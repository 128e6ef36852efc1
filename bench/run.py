#!/usr/bin/env python3
"""Benchmark of the gascap CLI pipeline.

    python3 bench/run.py --workload solve-ideal --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Runs one workload (see workloads.py and layers.json) in-process through
``gascap.cli.main(argv)``, imported from the checkout's ``src/``.  The
workload's commands are repeated in rounds, one after another, while the next
round should still end within ``--seconds`` (at least one round).  Every
command's outputs are checked, and every round's output files must be
byte-identical to the first round's.

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
fresh imports, instance writes and warm-ups), the median round's wall time
and CPU time, all three rescaled to a reference host speed (see HOST_REF_S),
and peak resident memory.  ``--trace 1`` alternates
untraced rounds with rounds traced by spans.py and reports the per-layer
metrics.  Metric names and units are read from BENCHMARK.json.  The last
line of standard output is one JSON object; scratch files live under
``.bench_work/`` in the checkout and the span dump of a traced run is left
there as ``spans-<workload>-seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAYERS = Path(__file__).resolve().parent / "layers.json"
SETUP_REPEATS = 9
# The host's speed changes by up to 40% for minutes at a time as neighbouring
# load comes and goes, more than any averaging within a run removes.  So each
# timed interval is rescaled by a fixed kernel timed right before and after it,
# and times are reported in seconds at the speed where that kernel takes
# HOST_REF_S; the raw times are printed on "#" lines.
HOST_REF_S = 0.025


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class HostClock:
    """Rescales measured times to the reference host speed (HOST_REF_S)."""

    # dict keys shaped like polynomial supports, for the kernel below
    KEYS = [tuple(sorted({7 * i % 97, 11 * i % 89 + 97, 13 * i % 83 + 190, i % 61 + 280}))
            for i in range(6000)]

    def __init__(self):
        self._kernel_s()  # first call pays one-off costs
        self.last = self._kernel_s()

    def _kernel_s(self) -> float:
        """Median of five timings of a fixed mix of the work gascap's hot
        paths do: building and copying dicts keyed by sorted tuples, and
        masked numpy updates on 2^16 entries."""
        times = []
        for _ in range(5):
            t0 = perf_counter()
            terms: dict[tuple[int, ...], float] = {}
            for key in self.KEYS:
                terms[key] = terms.get(key, 0.0) + 1.0
            for _ in range(6):
                copy = dict(terms)
                for key, value in list(copy.items())[:1500]:
                    key = tuple(sorted(set(key)))
                    copy[key] = copy.get(key, 0.0) + value
            idx = np.arange(1 << 16, dtype=np.uint64)
            values = np.zeros(1 << 16)
            for j in range(16):
                values[((idx >> np.uint64(j)) & np.uint64(1)).astype(bool)] += 1.0
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def scale(self) -> float:
        """Factor for an interval that ended just now and began just after
        the previous call (or construction)."""
        now = self._kernel_s()
        factor = HOST_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class Round:
    wall_s: float                   # at the reference host speed
    cpu_s: float                    # likewise
    raw_wall_s: float
    raw_cpu_s: float
    outputs: list[dict[str, str]]   # per command: file name -> sha256
    bytes_written: int
    search: dict[str, float]        # summed over the round's solve commands


def import_gascap():
    """Fresh import of every gascap module from the checkout's src/."""
    for name in [n for n in sys.modules if n == "gascap" or n.startswith("gascap.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    gascap = importlib.import_module("gascap")
    for module in spans.LAYERS:  # the layers are gascap's modules
        importlib.import_module(f"gascap.{module}")
    if Path(gascap.__file__).resolve().parent != SRC / "gascap":
        raise ImportError(f"gascap imported from {gascap.__file__}, not from {SRC}")
    return gascap


def call_cli(gascap, argv: list[str], out: Path) -> tuple[int | None, str]:
    """Run one command; returns (exit code or None on an exception, stdout)."""
    argv = [a.replace("{out}", str(out)) for a in argv]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            return gascap.cli.main(argv), buf.getvalue()
    except Exception:
        print(f"command {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None, buf.getvalue()


def setup(name: str, seed: int, tmp: Path):
    """Import gascap, write the workload's instances, run the warm-up."""
    t0 = perf_counter()
    gascap = import_gascap()
    shape = workloads.instance_shape(name)
    instances = workloads.write_instances(gascap, *shape, (seed, seed + 1), tmp) if shape else []
    rc, _ = call_cli(gascap, workloads.WARMUP_ARGV, tmp)
    if rc != 0:
        raise RuntimeError(f"warm-up command {workloads.WARMUP_ARGV} exited with {rc}")
    return perf_counter() - t0, gascap, instances


def run_round(gascap, cmds, tmp: Path, clock: HostClock, tally: Tally,
              reference: Round | None) -> Round:
    wall = cpu = raw_wall = raw_cpu = 0.0
    outputs, written = [], 0
    search = {"runs": 0, "hits": 0, "classical": 0.0, "quantum": 0.0}
    for i, cmd in enumerate(cmds):
        out = tmp / f"out{i}"
        shutil.rmtree(out, ignore_errors=True)
        clock.scale()
        t0, c0 = perf_counter(), process_time()
        rc, stdout = call_cli(gascap, cmd.argv, out)
        dt, dc = perf_counter() - t0, process_time() - c0
        scale = clock.scale()
        raw_wall += dt
        raw_cpu += dc
        wall += dt * scale
        cpu += dc * scale

        files = {}
        if out.is_dir():
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                files[path.name] = hashlib.sha256(data).hexdigest()
                written += len(data)
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            try:
                problems = cmd.check(out, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if reference is not None and files != reference.outputs[i]:
            problems.append("output files differ from the first round's")
        if cmd.argv[0] == "solve" and not problems:
            summary = json.loads((out / "summary.json").read_text())
            for kind, entry in summary.items():
                if kind != "oracle":
                    search["runs"] += entry["runs"]
                    search["hits"] += entry["reached_optimum"]
                    search["classical"] += entry["mean_classical_queries"] * entry["runs"]
                    search["quantum"] += entry["mean_quantum_queries"] * entry["runs"]
        tally.attempted += 1
        if problems:
            tally.failed += 1
            tally.problems += [f"{cmd.argv[0]} #{i}: {p}" for p in problems]
        outputs.append(files)
        shutil.rmtree(out, ignore_errors=True)
    return Round(wall, cpu, raw_wall, raw_cpu, outputs, written, search)


def run_rounds(gascap, cmds, tmp: Path, clock: HostClock, tally: Tally, seconds: float,
               trace: bool):
    """Rounds until the next would end after ``seconds``; with ``trace`` each
    untraced round is followed by a traced one.  Returns both lists."""
    untraced: list[Round] = []
    traced: list[tuple[Round, spans.Tracer]] = []
    start = perf_counter()
    while True:
        untraced.append(run_round(gascap, cmds, tmp, clock, tally, untraced[0] if untraced else None))
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append((run_round(gascap, cmds, tmp, clock, tally, untraced[0]), tracer))
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced


def measure(args, tmp: Path, declared: dict[str, str]) -> dict:
    clock = HostClock()
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        for child in tmp.iterdir():
            shutil.rmtree(child) if child.is_dir() else child.unlink()
        clock.scale()
        setup_s, gascap, instances = setup(args.workload, args.seed, tmp)
        setup_times.append(setup_s * clock.scale())
        raw_setup_times.append(setup_s)
    cmds = workloads.commands(gascap, args.workload, args.seed, instances)
    tally = Tally()
    untraced, traced = run_rounds(gascap, cmds, tmp, clock, tally, args.seconds, args.trace)

    first = untraced[0]
    runs = first.search["runs"]
    search = {
        "optimum_hit_ratio": spans.ratio(first.search["hits"], runs),
        "classical_queries_mean": spans.ratio(first.search["classical"], runs),
        "quantum_queries_mean": spans.ratio(first.search["quantum"], runs),
    }
    if args.trace:
        values = layer_metrics(args.workload, untraced, traced, tally)
        values.update(search)
        values["cli.bytes_written"] = first.bytes_written
        if (round(search["classical_queries_mean"] * runs) - runs != values["gas.run_gas.iterations"]
                or round(search["quantum_queries_mean"] * runs) != values["gas.run_gas.grover_ops"]):
            tally.problems.append("traced iterations or Grover operators disagree with summary.json")
        spans.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.csv",
                          [tracer for _, tracer in traced])
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "cpu_s": statistics.median(r.cpu_s for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"declared metrics not computed: {missing}")

    print(f"# host kernel s (reference {HOST_REF_S}): {clock.last:.4f}")
    for label, times in (("wall_s", [r.wall_s for r in untraced]),
                         ("raw wall_s", [r.raw_wall_s for r in untraced]),
                         ("cpu_s", [r.cpu_s for r in untraced]),
                         ("raw cpu_s", [r.raw_cpu_s for r in untraced]),
                         ("setup_s", setup_times), ("raw setup_s", raw_setup_times)):
        print(f"# {label} per round or set-up: " + " ".join(f"{t:.4f}" for t in times))
    print(f"# fail_ratio = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} commands)")
    for key, value in search.items():
        print(f"# {key} = {value:.6g} ({runs} runs)")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in declared.items()},
    }


def layer_metrics(name: str, untraced, traced, tally: Tally) -> dict[str, float]:
    """Median of each per-layer metric over the traced rounds.  Counts must
    repeat exactly across rounds, and every span listed as heavy for this
    workload in layers.json must have fired."""
    per_round = [tracer.metrics() for _, tracer in traced]
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    for key in values:
        if not key.endswith((".s", "cpu_s")) and not key.startswith("share."):
            if len({m[key] for m in per_round}) > 1:
                tally.problems.append(f"count {key} differs between traced rounds")
    layer_map = json.loads(LAYERS.read_text())["spans"]
    if set(layer_map) != set(spans.SPAN_NAMES):
        raise RuntimeError("layers.json and spans.py list different spans")
    silent = [s for s, entry in layer_map.items() if name in entry["heavy_in"] and values[f"{s}.calls"] == 0]
    if silent:
        raise RuntimeError(f"spans never fired on {name}: {silent}; "
                           "a traced function was renamed or is no longer called")
    values["trace.overhead_s"] = (statistics.median(r.wall_s for r, _ in traced)
                                  - statistics.median(r.wall_s for r in untraced))
    return values


# -- run record ------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> tuple[str, int | str]:
    """BLAS library numpy was built with and its current thread count."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{cfg.get('name')} {cfg.get('version')}"
    dirs = [Path(np.__file__).resolve().parent.parent / "numpy.libs", Path(cfg.get("lib directory", ""))]
    for lib in (p for d in dirs if d.is_dir() for p in sorted(d.glob("*openblas*.so*"))):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return name, fn()
    return name, "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(seed: int) -> dict:
    blas, threads = blas_info()
    return {
        "commit": git_commit(), "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
    }


# -- self-test -------------------------------------------------------------


def self_test(tmp: Path) -> int:
    """Checks must count a wrong expected value, and a non-zero exit, as a
    failure, and pass the same commands with the right expectations."""
    gascap = import_gascap()
    [inst] = workloads.write_instances(gascap, 16, 6, (0,), tmp)
    ref = gascap.cap.reference_instance()
    optimum = workloads.enumerate_optimum(ref.n_ch, gascap.cap.coeff_table(ref).d)
    formulate = ["formulate", "--instance", str(inst), "--formulation", "qubo",
                 "--formulation", "hubo-asc", "--formulation", "hubo-desc",
                 "--formulation", "quadratized", "--out", "{out}"]
    solve = ["solve", "--backend", "ideal", "--formulation", "hubo-asc", "--runs", "2",
             "--out", "{out}"]
    wrong_terms = dict(workloads.COMPILE_TERMS, **{"hubo-asc": 5994})
    cases = [
        ("right expectations", 0, [
            workloads.Command(formulate, workloads.formulate_check(workloads.COMPILE_TERMS)),
            workloads.Command(solve, workloads.solve_check(optimum, ("hubo-asc",), 2)),
            workloads.Command(["verify"], workloads.verify_check)]),
        ("wrong term count", 1, [
            workloads.Command(formulate, workloads.formulate_check(wrong_terms))]),
        ("wrong oracle value", 1, [
            workloads.Command(solve, workloads.solve_check(optimum + 1e-3, ("hubo-asc",), 2))]),
        ("non-zero exit", 1, [
            workloads.Command(["solve", "--synthetic", "9,4", "--formulation", "qubo",
                               "--out", "{out}"], workloads.verify_check)]),
    ]
    ok = True
    clock = HostClock()
    for label, want, cmds in cases:
        tally = Tally()
        with contextlib.redirect_stderr(io.StringIO()):
            run_round(gascap, cmds, tmp, clock, tally, None)
        passed = tally.failed == want
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {label}: {tally.failed} failed, want {want}")
    return 0 if ok else 1


# -- entry -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output checks catch wrong results, then exit")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gascap" / "__init__.py").is_file():
        print(f"no gascap sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.self_test:
            return self_test(tmp)
        result = measure(args, tmp, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("# run-record " + json.dumps(run_record(args.seed), sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
