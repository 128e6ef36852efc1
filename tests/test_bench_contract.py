"""The benchmark's heavy-span contract, checked on small commands.

``bench/layers.json`` marks, for each workload, the traced spans that must
fire there (``heavy_in``); a traced benchmark run fails the workload when one
stays silent.  These tests run a small version of each workload's commands
in-process under ``bench/spans.py``'s tracer and check the same contract, so
a span that a change silences shows up here rather than only in a traced
benchmark run.  The bench files are read, never written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import gascap.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

KINDS = ("qubo", "hubo-asc", "hubo-desc", "quadratized")
# small versions of the commands bench/workloads.py times for each workload
COMMANDS = {
    "solve-ideal": [
        ["solve", "--synthetic", "6,3", "--backend", "ideal", "--formulation", "hubo-asc",
         "--formulation", "hubo-desc", "--runs", "3", "--seed", "1"],
    ],
    "solve-sv": [
        # the bundled 4-AP network, as in the workload; a 6x3 network needs
        # 12 key qubits and takes minutes to simulate
        ["solve", "--backend", "sv", "--formulation", "hubo-asc",
         "--formulation", "hubo-desc", "--runs", "3", "--seed", "4"],
    ],
    "compile": [
        ["estimate", "--sweep", "4:6:1", "--enum-cap", "6"],
        ["formulate", "--synthetic", "6,3", *(a for k in KINDS for a in ("--formulation", k))],
        ["verify"],
    ],
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


LAYERS = json.loads((BENCH / "layers.json").read_text())
SPANS = load_spans()


def test_every_workload_has_small_commands():
    assert set(COMMANDS) == set(LAYERS["workloads"])


def test_layer_map_names_the_traced_spans():
    assert set(LAYERS["spans"]) == set(SPANS.SPAN_NAMES)


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_heavy_spans_fire(workload, tmp_path, capsys):
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        for j, argv in enumerate(COMMANDS[workload]):
            out = [] if argv[0] == "verify" else ["--out", str(tmp_path / str(j))]
            assert gascap.cli.main(argv + out) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    fired = {row[0] for row in tracer.spans}
    heavy = {name for name, entry in LAYERS["spans"].items() if workload in entry["heavy_in"]}
    assert heavy
    assert sorted(heavy - fired) == []
