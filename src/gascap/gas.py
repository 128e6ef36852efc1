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
draw asks for.  The charge is per draw, as on hardware, where every draw
prepares its state afresh.  The backend is the sampler that draws each
key: ``IdealSampler``, or ``StateVectorSampler``, which draws an L_i = 0 key
from the uniform distribution A_y|0> gives, writes A_y|0> only at thresholds
with an amplified draw and keeps the key distribution of each (y_i, L_i >= 1)
it draws from, so it applies at most the operators it charges.

Cost: a run scores its first uniform sample with ``evaluate`` and reads
every drawn key's value from the sampler's table.  The loop keeps its state
in locals, records each draw as a ``GasIteration`` tuple and writes the
trace's counters once, at the end; ``IdealSampler`` keeps t and the angle of
the last threshold.  So an ideal draw costs little more than its three
random numbers.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cap import CapInstance, CoeffTable, assignment_interference
from .poly import BudgetExceededError, bits_to_int
from .simulator import IdealSampler


LAMBDA = 8.0 / 7.0  # growth of the reach k after each non-improving draw
# A run within this of the known optimum has reached it.  Channel-symmetric
# optima can differ in their last bits: of the bundled network's 6 hubo-asc
# optima 2 are exactly at the minimum, the others 4.4e-16 and 1.6e-15 above
# it, so the stop rule, reached_optimum and oracle_matched rest on this.
OPTIMUM_TOL = 1e-12


@dataclass(frozen=True)
class GasConfig:
    """A run ends at the first rule set that holds: ``max_classical_iters``
    draws, ``max_quantum_queries`` Grover operators asked for, or a best
    value within ``OPTIMUM_TOL`` of ``stop_at_known_optimum``.  Budgets are
    integers of at least 1 and a NaN stop is refused; a stop below the
    objective's minimum never holds, so with no budget the run never ends
    (the CLI always sets ``--budget-classical``, default 500)."""

    max_classical_iters: int | None = None
    max_quantum_queries: int | None = None
    stop_at_known_optimum: float | None = None
    master_seed: int = 0

    def __post_init__(self):
        for name in ("max_classical_iters", "max_quantum_queries"):
            if (budget := getattr(self, name)) is not None:
                object.__setattr__(self, name, budget := operator.index(budget))
                if budget < 1:
                    raise ValueError(f"{name} must be at least 1, got {budget}")
        if self.stop_at_known_optimum is not None and math.isnan(self.stop_at_known_optimum):
            raise ValueError("stop_at_known_optimum must not be NaN")
        rules = (self.max_classical_iters, self.max_quantum_queries, self.stop_at_known_optimum)
        if all(r is None for r in rules):
            raise ValueError("at least one termination rule must be set")


class GasIteration(NamedTuple):
    """One draw of a run; a tuple, since a run records one per draw."""

    i: int
    y_i: float
    k_i: float
    l_i: int
    # the sampler's index into its value table, x_0 most significant; among
    # keys of equal value, which one is the sampler's choice
    sampled_key: int
    sampled_y: float
    improved: bool


@dataclass
class GasTrace:
    iterations: list[GasIteration] = field(default_factory=list)
    best_key: int = 0  # of value best_y: the initial sample or the last improving draw
    best_y: float = math.inf
    classical_queries: int = 0
    quantum_queries: int = 0


def run_gas(sampler: IdealSampler, cfg: GasConfig, rng: np.random.Generator) -> GasTrace:
    """One seeded search run over the full bit cube of the sampler's
    polynomial.  The sampler is the backend; its table gives the value of
    every drawn key.

    At 0 variables the reach stays 1, so every L_i is 0 and no draw improves
    on the first sample: only a classical budget, or a stop rule that sample
    already meets, ends such a run.  Without one it raises ``ValueError``
    before its first draw."""
    p, n = sampler.p, sampler.n_vars
    sqrt_space = math.sqrt(2.0 ** n)
    # an unset rule never stops the run: nothing is >= inf or <= NaN
    max_iters = math.inf if cfg.max_classical_iters is None else cfg.max_classical_iters
    max_quantum = math.inf if cfg.max_quantum_queries is None else cfg.max_quantum_queries
    stop_y = math.nan if cfg.stop_at_known_optimum is None else cfg.stop_at_known_optimum + OPTIMUM_TOL
    integers, draw, value_of = rng.integers, sampler.sample, sampler.values.item

    x = integers(0, 2, size=n).tolist()
    best_key, best_y = bits_to_int(x), p.evaluate(x)
    if n == 0 and max_iters == math.inf and not best_y <= stop_y:
        raise ValueError("a search over 0 variables draws L = 0 forever: it needs "
                         "max_classical_iters or a stop_at_known_optimum it already meets")
    iterations: list[GasIteration] = []
    record = iterations.append
    i = quantum = 0
    k = 1.0
    while i < max_iters and not best_y <= stop_y and quantum < max_quantum:
        l_i = int(integers(0, math.ceil(k - 1.0) + 1))
        key = draw(best_y, l_i, rng)
        # evaluate_all equals evaluate bit for bit, so the table is exact
        y_new = value_of(key)
        improved = y_new < best_y
        record(GasIteration(i, best_y, k, l_i, key, y_new, improved))
        i += 1
        quantum += l_i
        if improved:
            best_key, best_y = key, y_new
            k = 1.0
        else:
            k = min(LAMBDA * k, sqrt_space)
    # classical queries: the initial sample and one per draw
    return GasTrace(iterations, best_key, best_y, i + 1, quantum)


def run_seed(run_index: int, master_seed: int) -> np.random.Generator:
    """Stream split rule: one independent generator per (master seed, run)."""
    return np.random.default_rng([master_seed, run_index])


def run_batch(sampler: IdealSampler, cfg: GasConfig, n_runs: int) -> Iterator[GasTrace]:
    """Independent seeded runs on one sampler, yielded one at a time; run i
    uses the stream (master_seed, i), so different formulations executed
    with the same config are seed-paired."""
    for i in range(n_runs):
        yield run_gas(sampler, cfg, run_seed(i, cfg.master_seed))


# -- classical references -------------------------------------------------


ORACLE_CHUNK = 1 << 16  # assignments scored per numpy pass in brute_force_cap
ORACLE_BUDGET = 10_000_000  # the most assignments brute_force_cap enumerates


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


def brute_force_cap(inst: CapInstance, table: CoeffTable) -> BruteForceResult:
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
    if space > ORACLE_BUDGET:
        raise BudgetExceededError(
            f"search space {space} exceeds the enumeration budget {ORACLE_BUDGET}"
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
