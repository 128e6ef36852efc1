"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``gascap`` with wrappers
that record one span per call (name, parent span, start, end) plus counters
taken from the call's arguments and result.  Spans stay in memory and are
written out once the benchmark ends.  Nothing in ``gascap`` is edited: the
wrappers are installed before a traced round and the originals restored
after it.

A module-level function is replaced at every place it is bound, because
``gascap.cli`` and ``gascap.gas`` import names at import time: wrapping
``gascap.gas.brute_force_cap`` alone would miss the call made through
``gascap.cli.brute_force_cap``.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter, process_time

GATE_KINDS = ("h", "r", "cr", "z", "iqft", "qft", "diffusion")


def _poly_key(p):
    return (p.n_vars, frozenset(p.terms.items()))


# -- counter hooks: (tracer, result, *call args) ----------------------------


def _count_evaluate_all(t, values, p):
    t.counts["poly.evaluate_all.entries"] += 1 << p.n_vars
    t.distinct["poly.evaluate_all"].add(_poly_key(p))


def _count_add(t, result, p, other):
    t.counts["poly.add.terms_copied"] += len(p.terms)


def _count_build(t, form, *args, **kwargs):
    t.counts["formulation.terms"] += len(form.objective.terms)


def _count_quadratize(t, quad, *args, **kwargs):
    t.counts["formulation.quadratize.aux_vars"] += len(quad.aux_map)


def _count_state_prep(t, circuit, p, y, m):
    t.counts["circuits.build_state_prep.gates"] += len(circuit.gates)
    t.distinct["circuits.build_state_prep"].add((_poly_key(p), y, m))


def _count_apply(t, state, circuit, *args, **kwargs):
    kinds = Counter(g.kind for g in circuit.gates)
    for kind, n in kinds.items():
        t.counts[f"simulator.apply.gates.{kind}"] += n
    t.counts["simulator.apply.gates"] += len(circuit.gates)
    t.counts["simulator.apply.amp_bytes"] += len(circuit.gates) * (16 << circuit.n_qubits)
    t.counts["simulator.apply.qubits_max"] = max(
        t.counts["simulator.apply.qubits_max"], circuit.n_qubits
    )


def _count_run_gas(t, trace, *args, **kwargs):
    t.counts["gas.run_gas.iterations"] += len(trace.iterations)
    t.counts["gas.run_gas.grover_ops"] += sum(it.l_i for it in trace.iterations)
    t.counts["gas.run_gas.improving"] += sum(it.improved for it in trace.iterations)


def _count_brute_force(t, result, *args, **kwargs):
    t.counts["gas.brute_force_cap.evaluations"] += result.evaluations


# (module, attribute path, span name, counter hook, also record CPU time)
TARGETS = (
    ("gascap.cap", "coeff_table", "cap.coeff_table", None, False),
    ("gascap.cap", "assignment_interference", "cap.assignment_interference", None, False),
    ("gascap.poly", "BinaryPolynomial.evaluate_all", "poly.evaluate_all", _count_evaluate_all, False),
    ("gascap.poly", "BinaryPolynomial.evaluate", "poly.evaluate", None, False),
    ("gascap.poly", "BinaryPolynomial.add", "poly.add", _count_add, False),
    ("gascap.poly", "BinaryPolynomial.multiply", "poly.multiply", None, False),
    ("gascap.poly", "BinaryPolynomial.dumps", "poly.dumps", None, False),
    ("gascap.formulation", "build_formulation", "formulation.build", _count_build, False),
    ("gascap.formulation", "formulation_from_table", "formulation.build", _count_build, False),
    ("gascap.formulation", "quadratize", "formulation.quadratize", _count_quadratize, False),
    ("gascap.circuits", "build_state_prep", "circuits.build_state_prep", _count_state_prep, False),
    ("gascap.circuits", "build_grover", "circuits.build_grover", None, False),
    ("gascap.circuits", "formulation_resources", "circuits.formulation_resources", None, False),
    ("gascap.simulator", "apply", "simulator.apply", _count_apply, True),
    ("gascap.simulator", "sample", "simulator.sample", None, False),
    ("gascap.simulator", "IdealSampler.__init__", "simulator.IdealSampler.init", None, False),
    ("gascap.simulator", "IdealSampler.sample", "simulator.IdealSampler.sample", None, False),
    ("gascap.gas", "run_gas", "gas.run_gas", _count_run_gas, False),
    ("gascap.gas", "brute_force_cap", "gas.brute_force_cap", _count_brute_force, False),
    ("gascap.cli", "main", "cli.main", None, False),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in TARGETS))
LAYERS = ("cap", "poly", "formulation", "circuits", "simulator", "gas", "cli")
COUNTERS = (
    "poly.evaluate_all.entries", "poly.add.terms_copied", "formulation.terms",
    "formulation.quadratize.aux_vars", "circuits.build_state_prep.gates",
    "simulator.apply.gates", *(f"simulator.apply.gates.{kind}" for kind in GATE_KINDS),
    "simulator.apply.amp_bytes", "simulator.apply.qubits_max", "gas.run_gas.iterations",
    "gas.run_gas.grover_ops", "gas.brute_force_cap.evaluations",
)


class Tracer:
    """Records spans and counters while installed; see ``install``."""

    def __init__(self):
        # one row per call: [name, parent index or -1, start, end, child time, cpu]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {"poly.evaluate_all": set(), "circuits.build_state_prep": set()}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook, cpu):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            row = [name, parent, 0.0, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(row)
            c0 = process_time() if cpu else 0.0
            t0 = row[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = perf_counter()
                if cpu:
                    row[5] = process_time() - c0
                stack.pop()
            if hook is not None:
                hook(self, result, *args, **kwargs)
            if parent >= 0:
                # counter bookkeeping is charged to no span's self time
                spans[parent][4] += perf_counter() - t0
            return result

        return traced

    def install(self):
        """Wrap every target at every binding inside the ``gascap`` package.

        Raises AttributeError naming the target when a function or method has
        been renamed or removed, so a stale span list fails loudly.
        """
        modules = [m for n, m in sys.modules.items() if n == "gascap" or n.startswith("gascap.")]
        try:
            for mod_name, path, name, hook, cpu in TARGETS:
                owner = sys.modules[mod_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(attr)
                if original is None:
                    raise AttributeError(f"span {name}: {mod_name}.{path} not found")
                wrapper = self._wrap(original, name, hook, cpu)
                if cls_path:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced round (see layers.json)."""
        calls: Counter = Counter()
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        total = apply_cpu = 0.0
        for name, parent, start, end, child, cpu in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
            apply_cpu += cpu  # recorded for simulator.apply only
            if parent < 0:
                total += end - start
        c = self.counts
        m: dict[str, float] = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = self_s[name]
        m["simulator.apply.cpu_s"] = apply_cpu
        m.update({key: c[key] for key in COUNTERS})
        n_tables = len(self.distinct["poly.evaluate_all"])
        m["poly.evaluate_all.distinct"] = n_tables
        m["poly.table_reuse_ratio"] = ratio(n_tables, calls["poly.evaluate_all"])
        m["circuits.build_reuse_ratio"] = ratio(
            len(self.distinct["circuits.build_state_prep"]), calls["circuits.build_state_prep"])
        m["gas.run_gas.improving_ratio"] = ratio(c["gas.run_gas.improving"], c["gas.run_gas.iterations"])
        for layer in LAYERS:
            layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            m[f"share.{layer}"] = ratio(layer_s, total)
        return m


def write_spans(path, tracers) -> None:
    """One CSV row per span of each traced round, with its self time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,span,name,parent,start_s,end_s,self_s\n")
        for r, tracer in enumerate(tracers):
            for i, (name, parent, start, end, child, _) in enumerate(tracer.spans):
                fh.write(f"{r},{i},{name},{parent},{start:.9f},{end:.9f},{end - start - child:.9f}\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
