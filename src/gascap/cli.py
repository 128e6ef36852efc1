"""Command-line harness: formulate, estimate, solve, verify.

Every command is deterministic given its arguments and seed, writes CSV plus
a small JSON manifest (argument echo, content hash, seed) once all its work
has succeeded, and uses exit codes 0 = success, 1 = validation failure,
2 = golden-value mismatch, 3 = budget or cap exceeded.  The master seed falls
back to the GASCAP_SEED environment variable when --seed is not given.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .cap import (
    CapInstance,
    CoeffTable,
    coeff_table,
    interference_coeff,
    load_instance,
    reference_instance,
    synthetic_instance,
)
from .circuits import closed_form_resources, formulation_resources, formulation_width
from .formulation import (
    Encoding,
    build_formulation,
    decode,
    default_quadratization_scale,
    formulation_from_table,
    quadratize,
    variable_counts,
)
from .gas import (
    OPTIMUM_TOL,
    BudgetExceededError,
    GasConfig,
    GasTrace,
    brute_force_cap,
    co_channel_partition,
    run_batch,
)
from .simulator import IdealSampler, StateVectorSampler

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

ENCODING_KINDS = tuple(enc.value for enc in Encoding)  # qubo, hubo-asc, hubo-desc
FORMULATION_KINDS = (*ENCODING_KINDS, "quadratized")
BACKENDS = ("ideal", "sv")  # IdealSampler, StateVectorSampler


def _master_seed(args) -> int:
    """--seed, else $GASCAP_SEED, else 0; a seed that is not a non-negative
    integer raises ``ValueError`` naming the flag or the variable."""
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must not be negative, got {args.seed}")
        return args.seed
    env = os.environ.get("GASCAP_SEED", "0")
    if not env.strip().isdecimal():
        raise ValueError(f"GASCAP_SEED must be a non-negative integer, got {env!r}")
    return int(env)


def _load_instance(args) -> CapInstance:
    if args.instance:
        return load_instance(args.instance)
    if args.synthetic:
        try:
            n_ap, n_ch = (int(v) for v in args.synthetic.split(","))
        except ValueError:
            raise ValueError(f"--synthetic takes NAP,NCH integers, got {args.synthetic!r}") from None
        return synthetic_instance(n_ap, n_ch, seed=_master_seed(args))
    return reference_instance()


def _write_outputs(args, command: str, files: dict[str, str]) -> None:
    """Create --out and write ``files`` (file name -> text) and manifest.json.
    Each command calls this once, after all its work, so a command that
    fails leaves no directory."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    manifest = {
        "command": command,
        "version": __version__,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "outputs": {name: hashlib.sha256(text.encode()).hexdigest() for name, text in files.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _trace_lines(labels: str, trace: GasTrace, lo: float, span: float) -> list[str]:
    """One line of solve's trace CSV per draw of ``trace``: ``labels`` (run,
    formulation, encoding), then the draw's index, y_i, L_i, the classical and
    quantum queries so far and the running best normalized to the
    objective's range [lo, lo + span].  The text ``_csv_text`` writes for the
    same ``_fmt`` fields, since none needs quoting: the labels hold no
    ``,``, ``"`` or line break, and the numbers none either."""
    lines = []
    cum_q = 0
    for i, y_i, _, l_i, _, y_new, improved in trace.iterations:
        cum_q += l_i
        # classical queries so far: the initial sample and draws 0..i; y_i
        # is the running minimum, replaced only on a strict <
        best = y_new if improved else y_i
        lines.append(f"{labels},{i},{y_i:.12g},{l_i},{i + 2},{cum_q},{100.0 * (best - lo) / span:.12g}\n")
    return lines


def _objectives(args, inst: CapInstance, table: CoeffTable):
    """Yield (kind, objective, encoding label, Formulation or None) for each
    --formulation; the quadratized objective has no Formulation.

    hubo-asc and quadratized share one ascending build, kept only while a
    later kind still needs it."""
    kinds = args.formulation
    shared = ("hubo-asc", "quadratized")
    asc = None
    for j, kind in enumerate(kinds):
        if kind in shared:
            form = asc or build_formulation(inst, "hubo-asc", args.penalty, table)
            asc = form if any(k in shared for k in kinds[j + 1:]) else None
        else:
            form = build_formulation(inst, kind, args.penalty, table)
        if kind == "quadratized":
            poly = quadratize(form.objective, default_quadratization_scale(form.objective)).poly
            form = None  # frees the ascending build unless asc still holds it
            yield kind, poly, "quadratized(binary_ascending)", None
        else:
            yield kind, form.objective, form.encoding.label, form


# -- formulate ------------------------------------------------------------


def cmd_formulate(args) -> int:
    inst = _load_instance(args)
    table = coeff_table(inst)
    files: dict[str, str] = {}
    summary: dict[str, dict] = {}

    counts = variable_counts(inst.n_ap, inst.n_ch)
    for kind, poly, label, _ in _objectives(args, inst, table):
        header = json.dumps({"encoding": label, "n_vars": poly.n_vars, "penalty": args.penalty})
        files[f"{kind}.poly"] = f"# {header}\n{poly.dumps()}\n"
        summary[kind] = {"n_vars": poly.n_vars, "terms": len(poly.terms), "degree": poly.degree}
    summary["counts"] = asdict(counts)
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _write_outputs(args, "formulate", files)
    print(files["summary.json"], end="")
    return EXIT_OK


# -- estimate -------------------------------------------------------------


def cmd_estimate(args) -> int:
    try:
        lo, hi, step = (int(v) for v in args.sweep.split(":"))
    except ValueError:
        raise ValueError(f"--sweep takes MIN:MAX:STEP integers, got {args.sweep!r}") from None
    if step < 1:
        raise ValueError(f"--sweep STEP must be positive, got {step}")
    sizes = [n_ap for n_ap in range(lo, hi + 1, step) if n_ap // 2 >= 2]
    if not sizes:
        raise ValueError(f"--sweep {args.sweep} holds no access-point count of 4 or more")
    if args.enum_cap < 0:
        raise ValueError(f"--enum-cap must not be negative, got {args.enum_cap}")
    header = [
        "formulation", "encoding", "n_ap", "n_ch",
        "n", "n_prime", "n_double_prime", "m",
        "qubits_total", "qubits_closed_form",
        "h", "r",
    ]
    max_arity = 0
    rows_raw = []
    for n_ap in sizes:
        n_ch = n_ap // 2
        counts = variable_counts(n_ap, n_ch)
        table = CoeffTable.uniform(n_ap, 1.0)
        d_sum = table.d_sum
        for kind in ENCODING_KINDS:
            closed = closed_form_resources(n_ap, n_ch, d_sum, 1.0, kind)
            row = {
                "formulation": kind,
                "encoding": kind if kind == "qubo" else kind.replace("hubo-", "binary_"),
                "n_ap": n_ap, "n_ch": n_ch,
                "n": counts.n, "n_prime": counts.n_prime,
                "n_double_prime": counts.n_double_prime,
                "qubits_closed_form": closed.n_qubits,
                "cnot_closed_form": closed.cnot_count,
                # sqrt(2^n) amplified against 2^n exhaustive queries over n key bits, in log2
                "log2_grover_queries": closed.n_key / 2.0,
                "log2_exhaustive_queries": float(closed.n_key),
            }
            if n_ap <= args.enum_cap:
                form = formulation_from_table(table, n_ch, kind, 1.0)
                report = formulation_resources(form)
                row.update({
                    "m": report.m_val,
                    "qubits_total": report.n_qubits,
                    "h": report.h_count,
                    "r": report.r_count,
                    "cnot_enumerated": report.cnot_count,
                })
                for k, v in report.cr_counts.items():
                    row[f"cr_{k}"] = v
                max_arity = max(max_arity, report.max_arity)
            rows_raw.append(row)
    header += [f"cr_{k}" for k in range(1, max_arity + 1)]
    header += ["cnot_enumerated", "cnot_closed_form",
               "log2_grover_queries", "log2_exhaustive_queries"]
    rows = [[_fmt(row.get(col, "")) for col in header] for row in rows_raw]
    _write_outputs(args, "estimate", {"resources.csv": _csv_text(header, rows)})
    print(f"wrote {len(rows)} rows to {Path(args.out) / 'resources.csv'}")
    return EXIT_OK


# -- solve ----------------------------------------------------------------


def cmd_solve(args) -> int:
    for flag, value in (("--runs", args.runs), ("--budget-classical", args.budget_classical),
                        ("--budget-quantum", args.budget_quantum)):
        if value is not None and value <= 0:
            raise ValueError(f"{flag} must be positive, got {value}")
    inst = _load_instance(args)
    table = coeff_table(inst)
    oracle = brute_force_cap(inst, table)

    files: dict[str, str] = {}
    summary: dict[str, dict] = {"oracle": {
        "best_value": oracle.best_value,
        "best_assignment": list(oracle.best_assignment),
        "evaluations": oracle.evaluations,
    }}
    header = "run_seed,formulation,encoding,iter,y_i,L_i,cum_classical,cum_quantum,best_y_normalized\n"

    for kind, poly, encoding, form in _objectives(args, inst, table):
        # one sampler per formulation: its value table gives the range, and
        # it makes the draws of every run
        if args.backend == "sv":
            width = None if form is None else formulation_width(form)
            sampler = StateVectorSampler(poly, width)
        else:
            sampler = IdealSampler(poly)
        lo, hi = float(sampler.sorted_values[0]), float(sampler.sorted_values[-1])
        span = hi - lo if hi > lo else 1.0
        cfg = GasConfig(
            max_classical_iters=args.budget_classical,
            max_quantum_queries=args.budget_quantum,
            stop_at_known_optimum=lo,
            master_seed=_master_seed(args),
        )
        lines = [header]
        hits = 0
        classical = []
        quantum = []
        for run, trace in enumerate(run_batch(sampler, cfg, args.runs)):
            lines += _trace_lines(f"{run},{kind},{encoding}", trace, lo, span)
            classical.append(trace.classical_queries)
            quantum.append(trace.quantum_queries)
            if trace.best_y <= lo + OPTIMUM_TOL:
                hits += 1
        mean_c = float(np.mean(classical))
        ci = 1.96 * float(np.std(classical)) / math.sqrt(len(classical))
        # every run reached the objective's minimum, and that minimum is the
        # oracle's: at too low a penalty it spells no assignment
        matched = hits == args.runs and abs(lo - oracle.best_value) <= OPTIMUM_TOL
        summary[kind] = {
            "runs": args.runs,
            "reached_optimum": hits,
            "mean_classical_queries": mean_c,
            "classical_queries_ci95": ci,
            "mean_quantum_queries": float(np.mean(quantum)),
            "oracle_matched": matched,
        }
        files[f"trace_{kind}.csv"] = "".join(lines)
        del sampler  # its value table, before the next formulation builds one

    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _write_outputs(args, "solve", files)
    print(files["summary.json"], end="")
    return EXIT_OK


# -- verify ---------------------------------------------------------------

GOLDEN_C = {(0, 1): -4.319, (0, 2): -4.938, (0, 3): -6.145,
            (1, 2): -4.392, (1, 3): -3.822, (2, 3): -4.784}
GOLDEN_D = {(0, 1): 1.835, (0, 2): 1.216, (0, 3): 0.010,
            (1, 2): 1.762, (1, 3): 2.333, (2, 3): 1.371}
GOLDEN_PARTITION = frozenset({frozenset({0, 3}), frozenset({1}), frozenset({2})})


def cmd_verify(args) -> int:
    inst = load_instance(args.instance) if args.instance else reference_instance()
    if inst.n_ap < 4:
        raise ValueError(f"verify needs the 4 golden access points, got {inst.n_ap}")
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    table = coeff_table(inst)
    for (i, k), want in GOLDEN_C.items():
        got = interference_coeff(inst, i, k)
        check(f"C[{i + 1}{k + 1}] = {want}", abs(got - want) <= 1e-3, f"got {got:.4f}")
    for (i, k), want in GOLDEN_D.items():
        check(f"D[{i + 1}{k + 1}] = {want}", abs(table.d[i, k] - want) <= 1e-3,
              f"got {table.d[i, k]:.4f}")

    oracle = brute_force_cap(inst, table)
    check("optimum value 0.010", abs(oracle.best_value - 0.010) <= 1e-3,
          f"got {oracle.best_value:.4f}")
    partition = co_channel_partition(oracle.best_assignment)
    check("co-channel partition {{1,4},{2},{3}}", partition == GOLDEN_PARTITION, str(partition))

    expectations = {"qubo": None, "hubo-asc": 67, "hubo-desc": 55}
    objectives = {}
    for kind, want_terms in expectations.items():
        form = build_formulation(inst, kind, 1.0, table)
        objectives[kind] = form.objective
        if want_terms is not None:
            got_terms = len(form.objective.terms)
            check(f"{kind} expands to {want_terms} terms", got_terms == want_terms,
                  f"got {got_terms}")
        x, v = form.objective.exhaustive_min()
        dec = decode(form, x)
        check(f"{kind} optimum value matches", abs(v - oracle.best_value) <= 1e-3,
              f"got {v:.4f}")
        ok = dec.valid and co_channel_partition(dec.assignment) == GOLDEN_PARTITION
        check(f"{kind} optimum decodes to the golden partition", ok, str(dec))

    for (i, k), want in GOLDEN_D.items():  # channel 1's co-channel products
        got = objectives["qubo"].coefficient([i * inst.n_ch, k * inst.n_ch])
        check(f"objective coefficient {want}", abs(got - want) <= 1e-3, f"got {got:.4f}")

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        mark = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if (detail and not ok) else ""
        print(f"[{mark}] {name}{suffix}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_MISMATCH


# -- entry ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gascap",
        description="Channel assignment via Grover adaptive search: "
                    "formulate objectives, estimate circuit resources, run "
                    "seeded searches, verify golden values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_instance=True):
        if with_instance:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--instance", help="instance JSON file")
            source.add_argument("--synthetic", metavar="NAP,NCH",
                                help="generate a random instance of this size")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: $GASCAP_SEED or 0)")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("formulate", help="expand objectives and report sizes")
    common(p)
    p.add_argument("--formulation", action="append", choices=FORMULATION_KINDS,
                   default=None)
    p.add_argument("--penalty", type=float, default=1.0)
    p.set_defaults(func=cmd_formulate)

    p = sub.add_parser("estimate", help="qubit and gate resource sweep")
    common(p, with_instance=False)
    p.add_argument("--sweep", default="4:12:2", metavar="MIN:MAX:STEP")
    p.add_argument("--enum-cap", type=int, default=12,
                   help="enumerate circuits up to this many APs")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("solve", help="seeded adaptive-search runs")
    common(p)
    p.add_argument("--formulation", action="append", choices=FORMULATION_KINDS,
                   default=None)
    p.add_argument("--penalty", type=float, default=1.0)
    p.add_argument("--backend", choices=BACKENDS, default="ideal")
    p.add_argument("--budget-classical", type=int, default=500)
    p.add_argument("--budget-quantum", type=int, default=None)
    p.add_argument("--runs", type=int, default=100)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="golden-value checks on the bundled instance")
    p.add_argument("--instance", help="alternate instance JSON (expects the bundled one)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error; argparse has printed it on stderr
            return EXIT_VALIDATION
        raise  # --help
    if getattr(args, "formulation", None) is None and hasattr(args, "formulation"):
        args.formulation = list(ENCODING_KINDS)
    try:
        if hasattr(args, "seed"):
            _master_seed(args)  # a bad seed fails before any output is made
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
