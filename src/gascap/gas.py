"""Threshold-descent search with amplitude amplification.

Each iteration amplifies the states whose objective value lies strictly
below the running minimum y_i, measures one candidate key, looks its exact
objective value up in the classical value table (which also absorbs any
value-register approximation from real-valued coefficients), and tightens
the threshold on improvement.  The rotation count L_i is drawn uniformly
from {0, ..., ceil(k - 1)} where the reach k grows by lambda = 8/7 after
every non-improving iteration, capped at sqrt(2^n).

Accounting: classical queries = objective evaluations = iterations + 1 (the
initial uniform sample); quantum queries = the L_i Grover operators each
draw asks for, with an optional convention counting 2 L_i + 1 oracle calls
per iteration instead.  The charge is per draw, as on hardware, where every
draw prepares its state afresh; the statevector backend simulates A_y|0>
once per threshold and then exactly the operators it charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .cap import CapInstance, CoeffTable, assignment_interference
from .circuits import build_grover, build_state_prep, coefficient_width
from .poly import BinaryPolynomial, BitVector, BudgetExceededError, bits_to_int, int_to_bits
from .simulator import IdealSampler, apply, prepare, sample


BACKENDS = ("ideal", "sv")  # the analytic sampler, exact state-vector simulation


@dataclass(frozen=True)
class GasConfig:
    lambda_: float = 8.0 / 7.0
    backend: str = "ideal"  # one of BACKENDS
    max_classical_iters: int | None = None
    max_quantum_queries: int | None = None
    stop_at_known_optimum: float | None = None
    no_improvement_window: int | None = None
    master_seed: int = 0
    count_oracle_calls: bool = False  # count 2L+1 oracle calls instead of L
    value_width: int | None = None    # sv value-register width override

    def __post_init__(self):
        if self.lambda_ <= 1.0:
            raise ValueError("lambda must exceed 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        rules = (
            self.max_classical_iters,
            self.max_quantum_queries,
            self.stop_at_known_optimum,
            self.no_improvement_window,
        )
        if all(r is None for r in rules):
            raise ValueError("at least one termination rule must be set")


@dataclass(frozen=True)
class GasIteration:
    i: int
    y_i: float
    k_i: float
    l_i: int
    sampled_x: BitVector
    sampled_y: float
    improved: bool


@dataclass
class GasTrace:
    iterations: list[GasIteration] = field(default_factory=list)
    best_x: BitVector = ()
    best_y: float = math.inf
    classical_queries: int = 0
    quantum_queries: int = 0

    def threshold_history(self) -> list[float]:
        return [it.y_i for it in self.iterations]


def run_gas(
    p: BinaryPolynomial,
    cfg: GasConfig,
    rng: np.random.Generator | None = None,
    *,
    sampler: IdealSampler | None = None,
) -> GasTrace:
    """One seeded search run over the polynomial's full bit cube.

    ``sampler`` must have been built from ``p``; pass one to share its value
    table between runs, or leave it out to build one here.  Its table gives
    the value of every drawn key on both backends, and its draws are the
    ideal backend's outcomes.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.master_seed)
    n = p.n_vars
    sqrt_space = math.sqrt(2.0 ** n)
    sampler = sampler if sampler is not None else IdealSampler(p)
    values = sampler.values

    if cfg.backend == "ideal":
        draw = sampler.sample
    else:
        base_m = cfg.value_width if cfg.value_width is not None else coefficient_width(p)
        # the threshold moves only when a draw improves, so A_y and psi =
        # A_y|0> are built once per threshold, and G from that A_y once some
        # draw needs it; every draw applies G L times to psi
        at_y: float | None = None
        m = base_m
        prep = grover = prepared = None

        def draw(y: float, l_ops: int, gen: np.random.Generator) -> int:
            nonlocal at_y, m, prep, grover, prepared
            if y != at_y:
                # the folded constant moves with the threshold; widen the value
                # register when a large y would push it out of coefficient range
                at_y, m = y, max(base_m, coefficient_width(p, y))
                prep = build_state_prep(p, y, m)
                prepared, grover = prepare(prep), None
            if l_ops and grover is None:
                grover = build_grover(prep)
            state = prepared
            for _ in range(l_ops):
                state = apply(grover, state)
            return bits_to_int(sample(state, gen, n, m).key_bits)

    trace = GasTrace()
    x = tuple(int(b) for b in rng.integers(0, 2, size=n))
    y = p.evaluate(x)
    trace.classical_queries = 1
    trace.best_x, trace.best_y = x, y

    k = 1.0
    i = 0
    since_improvement = 0
    while True:
        if cfg.max_classical_iters is not None and i >= cfg.max_classical_iters:
            break
        if cfg.stop_at_known_optimum is not None and trace.best_y <= cfg.stop_at_known_optimum + 1e-12:
            break
        if cfg.max_quantum_queries is not None and trace.quantum_queries >= cfg.max_quantum_queries:
            break
        if cfg.no_improvement_window is not None and since_improvement >= cfg.no_improvement_window:
            break

        l_i = int(rng.integers(0, math.ceil(k - 1.0) + 1))
        key = draw(trace.best_y, l_i, rng)
        # evaluate_all equals evaluate bit for bit, so the table is exact
        y_new = float(values[key])
        x_new = int_to_bits(key, n)
        improved = y_new < trace.best_y
        trace.iterations.append(
            GasIteration(
                i=i, y_i=trace.best_y, k_i=k, l_i=l_i,
                sampled_x=x_new, sampled_y=y_new, improved=improved,
            )
        )
        trace.classical_queries += 1
        trace.quantum_queries += (2 * l_i + 1) if cfg.count_oracle_calls else l_i
        if improved:
            trace.best_x, trace.best_y = x_new, y_new
            k = 1.0
            since_improvement = 0
        else:
            k = min(cfg.lambda_ * k, sqrt_space)
            since_improvement += 1
        i += 1

    return trace


def run_seed(run_index: int, master_seed: int) -> np.random.Generator:
    """Stream split rule: one independent generator per (master seed, run)."""
    return np.random.default_rng([master_seed, run_index])


def run_batch(
    p: BinaryPolynomial, cfg: GasConfig, n_runs: int
) -> list[GasTrace]:
    """Independent seeded runs; run i uses the stream (master_seed, i), so
    different formulations executed with the same config are seed-paired.
    All runs share one value table."""
    sampler = IdealSampler(p)
    return [
        run_gas(p, cfg, rng=run_seed(i, cfg.master_seed), sampler=sampler)
        for i in range(n_runs)
    ]


# -- classical references -------------------------------------------------


ORACLE_CHUNK = 1 << 16  # assignments scored per numpy pass in brute_force_cap


def co_channel_partition(assignment) -> frozenset[frozenset[int]]:
    """The APs grouped by the channel they share."""
    groups: dict[int, set[int]] = {}
    for ap, ch in enumerate(assignment):
        groups.setdefault(ch, set()).add(ap)
    return frozenset(frozenset(g) for g in groups.values())


@dataclass(frozen=True)
class BruteForceResult:
    best_assignment: tuple[int, ...]
    best_value: float
    evaluations: int

    def co_channel_partition(self) -> frozenset[frozenset[int]]:
        return co_channel_partition(self.best_assignment)


def brute_force_cap(
    inst: CapInstance, table: CoeffTable, budget: int = 10_000_000
) -> BruteForceResult:
    """Exhaustive scan of all N_CH^N_AP assignments (lexicographic order,
    first minimum kept).

    Assignments are enumerated as mixed-radix numbers, AP 0 most significant,
    ``ORACLE_CHUNK`` at a time.  Each pair's ``d_ik`` is added where the two
    APs share a channel, from +0.0 and in ``assignment_interference``'s pair
    order, so every total has the same bits as that function's.  The winner
    is scored once more by ``assignment_interference``, which must agree.
    """
    n_ap, n_ch = inst.n_ap, inst.n_ch
    space = n_ch ** n_ap
    if space > budget:
        raise BudgetExceededError(
            f"search space {space} exceeds the enumeration budget {budget}"
        )
    d = table.d
    weight = [n_ch ** (n_ap - 1 - i) for i in range(n_ap)]  # AP 0 most significant
    best_code, best_value = 0, math.inf
    for start in range(0, space, ORACLE_CHUNK):
        codes = np.arange(start, min(start + ORACLE_CHUNK, space), dtype=np.int64)
        channel = [codes // w % n_ch for w in weight]  # 0-based
        total = np.zeros(codes.size)
        for i in range(n_ap):
            for k in range(i + 1, n_ap):
                total += np.where(channel[i] == channel[k], d[i, k], 0.0)
        at = int(np.argmin(total))  # the first minimum of the chunk
        if total[at] < best_value:
            best_code, best_value = start + at, float(total[at])
    best_assign = tuple(1 + best_code // w % n_ch for w in weight)
    if assignment_interference(inst, table, best_assign) != best_value:
        raise RuntimeError(f"oracle kernel disagrees with assignment_interference at {best_assign}")
    return BruteForceResult(
        best_assignment=best_assign, best_value=best_value, evaluations=space
    )


@dataclass(frozen=True)
class QueryEstimate:
    grover: float
    exhaustive: float


def log2_expected_queries(n_vars: int) -> QueryEstimate:
    """Reference scaling curves in log2, usable far beyond float range:
    sqrt(2^n) amplified versus 2^n exhaustive queries."""
    return QueryEstimate(grover=n_vars / 2.0, exhaustive=float(n_vars))
