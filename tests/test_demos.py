import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"


def run_demo(script: pathlib.Path) -> subprocess.CompletedProcess:
    # the demos import gascap from this checkout's src/, as the tests do
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, timeout=180, env=env
    )


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = run_demo(script)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()


def test_demo_04_stdout_is_pinned():
    # sha256 of the printed amplification probabilities while the Hadamards
    # and the diffusion of each Grover operator were simulated gate by gate
    result = run_demo(DEMO_DIR / "04_grover_amplification.py")
    assert result.returncode == 0, result.stderr.decode()
    digest = hashlib.sha256(result.stdout).hexdigest()
    assert digest == "52e251af54a3baf65f5219e975ace1b861c3101a4e3b3f6b0b42a1fa0f8f0117"


def test_demo_05_stdout_is_pinned():
    # sha256 of the printed search statistics and one run's trace while
    # run_gas took the polynomial and an optional sampler and generator
    result = run_demo(DEMO_DIR / "05_adaptive_search.py")
    assert result.returncode == 0, result.stderr.decode()
    digest = hashlib.sha256(result.stdout).hexdigest()
    assert digest == "5085938393a64e51b843917dcd18ef30a4c738d1ed6db0b6fec43238efb2fa26"


# sha256 of the printed coefficient tables, encodings and resource counts,
# taken while CoeffTable stored d, c_min and d_sum and ResourceReport stored
# its ancillae and CNOT totals
EARLY_DEMO_DIGESTS = {
    "01_interference_model.py": "dddeef3a1e2f014b18e811edc808b3565ddc22327561159dde032020f04afe57",
    "02_objective_encodings.py": "6e6b3f3e0f67e91e429e50e9acaac8c0a61a6b417020a40d89d5896883512ea5",
    "03_circuit_resources.py": "c928da13ad9c50d6ceef2a349a4cc2c2900787019d8f7c18d9f580cd15a21c6c",
}


@pytest.mark.parametrize("name", sorted(EARLY_DEMO_DIGESTS))
def test_early_demo_stdout_is_pinned(name):
    result = run_demo(DEMO_DIR / name)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == EARLY_DEMO_DIGESTS[name]
