import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(script):
    # the demos import gascap from this checkout's src/, as the tests do
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=180, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
