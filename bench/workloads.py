"""The benchmark's workloads: the CLI commands each runs and the checks their
outputs must pass.

Every workload is a closed loop of ``gascap.cli.main(argv)`` calls in one
process.  Instances are generated from the workload seed and handed to the
CLI as ``--instance`` JSON files.  Why each workload exists, and which layer
it loads, is recorded in ``layers.json``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("solve-ideal", "solve-sv", "compile")

# Term counts of the 16-AP x 6-channel objectives; the expansion has no
# cancellations for generic distances, so they hold for every seed.
COMPILE_TERMS = {"qubo": 1057, "hubo-asc": 5993, "hubo-desc": 4537, "quadratized": 6185}
ESTIMATE_ROWS = 39  # sweep 4:16:1, three formulations per size
# solve-sv runs SV_COMMANDS x SV_RUNS searches per formulation.  The
# iterations and Grover operators of one run vary widely with its seed, so a
# round needs many runs for its total simulation work to vary little from one
# workload seed to the next: the quartiles of that total lie about 6% apart at
# 100 runs and 11% apart at 30, going by 3,000 seeded runs per formulation.
# Four commands rather than one keep the host-speed samples taken between
# commands (see run.py) at most about ten seconds apart.
SV_COMMANDS = 4
SV_RUNS = 25
# Run once in every set-up so that lazy imports and first-call costs fall
# outside the timed rounds; its inputs are fixed, so set-up does the same work
# for every seed and workload.
WARMUP_ARGV = ["verify"]


@dataclass
class Command:
    argv: list[str]                           # "{out}" stands for the output directory
    check: Callable[[Path, str], list[str]]   # (output dir, stdout) -> problems found


def write_instances(gascap, n_ap: int, n_ch: int, seeds, tmp: Path) -> list[Path]:
    paths = []
    for s in seeds:
        inst = gascap.cap.synthetic_instance(n_ap, n_ch, seed=s)
        path = tmp / f"instance_{n_ap}x{n_ch}_seed{s}.json"
        path.write_text(json.dumps(gascap.cap.instance_to_dict(inst)))
        paths.append(path)
    return paths


def commands(gascap, name: str, seed: int, instances: list[Path]) -> list[Command]:
    """The workload's timed commands with their output checks."""
    if name == "solve-ideal":
        return [
            Command(["solve", "--instance", str(path), "--backend", "ideal",
                     "--formulation", "hubo-asc", "--formulation", "hubo-desc",
                     "--runs", "25", "--seed", str(seed), "--out", "{out}"],
                    solve_check(oracle_value(gascap, path), ("hubo-asc", "hubo-desc"), 25))
            for path in instances
        ]
    if name == "solve-sv":
        ref = gascap.cap.reference_instance()
        optimum = enumerate_optimum(ref.n_ch, gascap.cap.coeff_table(ref).d)
        return [Command(["solve", "--backend", "sv", "--formulation", "hubo-asc",
                         "--formulation", "hubo-desc", "--runs", str(SV_RUNS),
                         "--seed", str(SV_COMMANDS * seed + j), "--out", "{out}"],
                        solve_check(optimum, ("hubo-asc", "hubo-desc"), SV_RUNS))
                for j in range(SV_COMMANDS)]
    if name == "compile":
        cmds = [Command(["estimate", "--sweep", "4:16:1", "--enum-cap", "16", "--seed", str(seed),
                         "--out", "{out}"], estimate_check(ESTIMATE_ROWS))]
        cmds += [Command(["formulate", "--instance", str(path), "--formulation", "qubo",
                          "--formulation", "hubo-asc", "--formulation", "hubo-desc",
                          "--formulation", "quadratized", "--seed", str(seed), "--out", "{out}"],
                         formulate_check(COMPILE_TERMS))
                 for path in instances]
        cmds.append(Command(["verify"], verify_check))
        return cmds
    raise ValueError(f"unknown workload {name!r}")


def instance_shape(name: str) -> tuple[int, int] | None:
    return {"solve-ideal": (8, 3), "compile": (16, 6)}.get(name)


# -- independent references -------------------------------------------------


def enumerate_optimum(n_ch: int, d: np.ndarray) -> float:
    """Minimum co-channel cost over all n_ch^n_ap assignments, by one
    vectorised enumeration (independent of ``gas.brute_force_cap``)."""
    n_ap = d.shape[0]
    codes = np.arange(n_ch ** n_ap)
    assign = np.stack([(codes // n_ch ** (n_ap - 1 - i)) % n_ch for i in range(n_ap)], axis=1)
    cost = np.zeros(codes.size)
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            cost += d[i, k] * (assign[:, i] == assign[:, k])
    return float(cost.min())


def oracle_value(gascap, path: Path) -> float:
    inst = gascap.cap.load_instance(path)
    return enumerate_optimum(inst.n_ch, gascap.cap.coeff_table(inst).d)


# -- output checks ---------------------------------------------------------


def solve_check(optimum: float, kinds, runs: int):
    def check(out: Path, stdout: str) -> list[str]:
        summary = json.loads((out / "summary.json").read_text())
        problems = []
        got = summary["oracle"]["best_value"]
        if not math.isclose(got, optimum, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"oracle value {got!r} != enumerated optimum {optimum!r}")
        for kind in kinds:
            entry = summary[kind]
            if entry["runs"] != runs or not 0 <= entry["reached_optimum"] <= runs:
                problems.append(f"{kind}: bad run counts {entry}")
            if not (out / f"trace_{kind}.csv").is_file():
                problems.append(f"{kind}: trace CSV missing")
        return problems
    return check


def estimate_check(rows_expected: int):
    def check(out: Path, stdout: str) -> list[str]:
        rows = list(csv.DictReader(io.StringIO((out / "resources.csv").read_text())))
        problems = [] if len(rows) == rows_expected else [f"{len(rows)} rows, want {rows_expected}"]
        for row in rows:
            pairs = [(int(row["qubits_total"]), int(row["qubits_closed_form"])),
                     (int(row["cnot_enumerated"]), int(row["cnot_closed_form"]))]
            exact = row["formulation"] in ("qubo", "hubo-asc")
            for got, bound in pairs:
                if (got != bound) if exact else (got > bound):
                    problems.append(f"{row['formulation']} n_ap={row['n_ap']}: {got} vs closed form {bound}")
        return problems
    return check


def formulate_check(terms_expected: dict[str, int]):
    def check(out: Path, stdout: str) -> list[str]:
        summary = json.loads((out / "summary.json").read_text())
        problems = []
        for kind, want in terms_expected.items():
            if summary[kind]["terms"] != want:
                problems.append(f"{kind}: {summary[kind]['terms']} terms, want {want}")
            if not (out / f"{kind}.poly").is_file():
                problems.append(f"{kind}: polynomial file missing")
        for kind in ("qubo", "quadratized"):
            if summary[kind]["degree"] != 2:
                problems.append(f"{kind}: degree {summary[kind]['degree']}, want 2")
        return problems
    return check


def verify_check(out: Path, stdout: str) -> list[str]:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    done, _, total = last.partition(" ")[0].partition("/")
    return [] if done and done == total else [f"verify reported {last!r}"]
