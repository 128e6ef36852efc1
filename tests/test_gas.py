import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    BudgetExceededError,
    GasConfig,
    GasTrace,
    IdealSampler,
    StateVectorSampler,
    amplified_probability,
    apply,
    brute_force_cap,
    build_formulation,
    build_grover,
    build_state_prep,
    coefficient_width,
    key_cdf,
    run_batch,
    run_gas,
    run_seed,
    sample,
    reference_instance,
    synthetic_instance,
    coeff_table,
    zero_state,
)
from gascap import gas
from gascap.gas import ORACLE_BUDGET, GasIteration, co_channel_partition
from gascap.poly import bits_to_int, int_to_bits


def test_config_requires_a_termination_rule():
    with pytest.raises(ValueError):
        GasConfig()
    GasConfig(max_classical_iters=5)


@pytest.mark.parametrize("budget", [0, -1])
def test_config_rejects_budgets_below_one(budget):
    # a run with no budget left would do nothing and report one query
    with pytest.raises(ValueError, match="max_classical_iters"):
        GasConfig(max_classical_iters=budget)
    with pytest.raises(ValueError, match="max_quantum_queries"):
        GasConfig(max_quantum_queries=budget, max_classical_iters=5)


@pytest.mark.parametrize("budgets", [{}, {"max_classical_iters": 5}, {"max_quantum_queries": 5}])
def test_config_rejects_a_nan_stop(budgets):
    # best_y <= NaN never holds, so a NaN stop without a budget never ends
    with pytest.raises(ValueError, match="^stop_at_known_optimum must not be NaN$"):
        GasConfig(stop_at_known_optimum=math.nan, **budgets)
    with pytest.raises(ValueError, match="NaN"):
        GasConfig(stop_at_known_optimum=np.float64("nan"), **budgets)


@pytest.mark.parametrize("budget", [1.5, 2.0, "3"])
def test_config_rejects_budgets_that_are_not_integers(budget):
    with pytest.raises(TypeError):
        GasConfig(max_classical_iters=budget)
    with pytest.raises(TypeError):
        GasConfig(max_quantum_queries=budget, max_classical_iters=5)


def test_config_takes_a_numpy_integer_budget_as_an_int():
    cfg = GasConfig(max_classical_iters=np.int64(3), max_quantum_queries=np.int32(40))
    assert cfg == GasConfig(max_classical_iters=3, max_quantum_queries=40)
    assert type(cfg.max_classical_iters) is int and type(cfg.max_quantum_queries) is int
    trace = run_gas(IdealSampler(BinaryPolynomial(2, {(0,): 1.0})), cfg, np.random.default_rng(0))
    assert len(trace.iterations) == 3


def test_threshold_history_is_monotone(hubo_desc):
    cfg = GasConfig(max_classical_iters=120, master_seed=17)
    trace = run_gas(IdealSampler(hubo_desc.objective), cfg, np.random.default_rng(17))
    ys = [it.y_i for it in trace.iterations]
    assert all(a >= b for a, b in zip(ys, ys[1:]))


def test_query_accounting(hubo_asc):
    cfg = GasConfig(max_classical_iters=50, master_seed=3)
    trace = run_gas(IdealSampler(hubo_asc.objective), cfg, np.random.default_rng(3))
    assert trace.classical_queries == len(trace.iterations) + 1
    assert trace.quantum_queries == sum(it.l_i for it in trace.iterations)


def test_reach_grows_geometrically_until_cap():
    # a constant objective never improves, so k follows min(lambda^j, sqrt(2^n))
    p = BinaryPolynomial(4, {(): 2.0})
    cfg = GasConfig(max_classical_iters=40, master_seed=0)
    trace = run_gas(IdealSampler(p), cfg, np.random.default_rng(0))
    lam, cap = 8.0 / 7.0, math.sqrt(2.0 ** 4)
    for j, it in enumerate(trace.iterations):
        assert it.k_i == pytest.approx(min(lam ** j, cap))
        assert not it.improved
    assert trace.best_y == 2.0


def test_rotation_counts_within_reach(hubo_desc):
    cfg = GasConfig(max_classical_iters=200, master_seed=11)
    trace = run_gas(IdealSampler(hubo_desc.objective), cfg, np.random.default_rng(11))
    for it in trace.iterations:
        assert 0 <= it.l_i <= math.ceil(it.k_i - 1.0)


def test_already_optimal_initial_sample_never_improves():
    # unique minimum at the all-ones point; pick a seed whose first uniform
    # sample lands exactly there, so no later iteration can improve
    p = BinaryPolynomial(3, {(0, 1, 2): -1.0})
    for seed in range(200):
        probe = np.random.default_rng(seed)
        if tuple(probe.integers(0, 2, size=3)) == (1, 1, 1):
            break
    cfg = GasConfig(max_classical_iters=30, master_seed=seed)
    trace = run_gas(IdealSampler(p), cfg, np.random.default_rng(seed))
    assert trace.best_y == -1.0
    assert all(not it.improved for it in trace.iterations)
    assert all(it.y_i == -1.0 for it in trace.iterations)


def test_stop_at_known_optimum(hubo_desc):
    _, opt = hubo_desc.objective.exhaustive_min()
    cfg = GasConfig(max_classical_iters=500, stop_at_known_optimum=opt, master_seed=5)
    trace = run_gas(IdealSampler(hubo_desc.objective), cfg, np.random.default_rng(5))
    assert trace.best_y == pytest.approx(opt)


# (formulation, instance) -> assignment keys exactly at the minimum; each
# network has 6 channel-symmetric optima (3! permutations of its channels)
EXACT_MINIMA = {("qubo", "bundled"): 6, ("hubo-asc", "bundled"): 2, ("hubo-desc", "bundled"): 6,
                ("hubo-asc", "8x3 seed 1"): 3}


@pytest.mark.parametrize("kind, network", sorted(EXACT_MINIMA))
def test_optimum_tolerance_spans_the_channel_symmetric_optima(kind, network):
    # a tolerance of 0 would count hubo-asc's optima as fewer than 6
    inst = reference_instance() if network == "bundled" else synthetic_instance(8, 3, seed=1)
    values = build_formulation(inst, kind).objective.evaluate_all()
    lo = values.min()
    assert np.count_nonzero(values == lo) == EXACT_MINIMA[kind, network]
    assert np.count_nonzero(values <= lo + gas.OPTIMUM_TOL) == 6
    # the next value above the tolerance is a different channel plan
    assert values[values > lo + gas.OPTIMUM_TOL].min() - lo > 1e-3


def test_bundled_hubo_asc_optima_differ_in_their_last_bits(hubo_asc):
    distinct = np.unique(hubo_asc.objective.evaluate_all())
    assert distinct[1] - distinct[0] == 2.0 ** -51  # 4.4e-16


def test_quantum_budget_stops(hubo_asc):
    cfg = GasConfig(max_quantum_queries=25, max_classical_iters=10_000, master_seed=2)
    trace = run_gas(IdealSampler(hubo_asc.objective), cfg, np.random.default_rng(2))
    assert trace.quantum_queries >= 25 or len(trace.iterations) == 10_000
    # the budget is checked before each iteration, so the overshoot is at most
    # the final draw
    assert trace.quantum_queries - trace.iterations[-1].l_i < 25


class NoDraws(IdealSampler):
    """A sampler that fails a test at its first draw, so that a run which
    would loop forever fails instead."""

    def sample(self, y, l_ops, rng):
        raise AssertionError("drew from a search that cannot end")


@pytest.mark.parametrize("cfg", [
    GasConfig(max_quantum_queries=25),
    GasConfig(max_quantum_queries=25, stop_at_known_optimum=-1.0),
    GasConfig(stop_at_known_optimum=-1.0),
])
def test_zero_variable_search_that_cannot_end_is_rejected(cfg):
    # every draw at 0 variables has L = 0 and the value 0.0, so these rules
    # never stop the run
    with pytest.raises(ValueError, match="0 variables"):
        run_gas(NoDraws(BinaryPolynomial(0, {})), cfg, np.random.default_rng(0))


@pytest.mark.parametrize("cfg, draws", [
    (GasConfig(max_classical_iters=3), 3),
    (GasConfig(max_quantum_queries=25, max_classical_iters=4), 4),
    (GasConfig(max_quantum_queries=25, stop_at_known_optimum=0.0), 0),
])
def test_zero_variable_search_with_an_ending_rule_runs(cfg, draws):
    trace = run_gas(IdealSampler(BinaryPolynomial(0, {})), cfg, np.random.default_rng(0))
    assert len(trace.iterations) == draws
    assert trace.quantum_queries == 0 and trace.best_y == 0.0


def test_seed_determinism(hubo_asc):
    cfg = GasConfig(max_classical_iters=80, master_seed=77)
    sampler = IdealSampler(hubo_asc.objective)
    a = run_gas(sampler, cfg, run_seed(4, 77))
    b = run_gas(sampler, cfg, run_seed(4, 77))
    assert a.iterations == b.iterations
    c = run_gas(sampler, cfg, run_seed(5, 77))
    assert a.iterations != c.iterations


def test_invalid_samples_are_evaluated_not_rejected(qubo):
    # one-hot penalties keep invalid vectors in play; the trace must show
    # their penalized objective values rather than skipping them
    cfg = GasConfig(max_classical_iters=60, master_seed=13)
    trace = run_gas(IdealSampler(qubo.objective), cfg, np.random.default_rng(13))
    for it in trace.iterations:
        x = int_to_bits(it.sampled_key, qubo.objective.n_vars)
        assert it.sampled_y == pytest.approx(qubo.objective.evaluate(x))


def test_gas_finds_optimum_with_generous_budget(hubo_desc):
    _, opt = hubo_desc.objective.exhaustive_min()
    budget = int(10 * math.sqrt(2 ** hubo_desc.objective.n_vars))
    cfg = GasConfig(
        max_quantum_queries=budget, max_classical_iters=100_000,
        stop_at_known_optimum=opt, master_seed=2023,
    )
    hits = sum(trace.best_y <= opt + 1e-9
               for trace in run_batch(IdealSampler(hubo_desc.objective), cfg, 40))
    assert hits >= 38


def test_statevector_backend_survives_large_initial_threshold():
    # tiny coefficients, large values: the folded constant -y would overflow
    # a register sized from the coefficients alone; the backend must widen
    p = BinaryPolynomial(4, {(i,): 3.0 for i in range(4)})
    cfg = GasConfig(max_classical_iters=40, stop_at_known_optimum=0.0, master_seed=1)
    trace = run_gas(StateVectorSampler(p), cfg, np.random.default_rng(1))
    assert trace.best_y == 0.0


def test_statevector_backend_agrees_with_ideal(hubo_desc):
    from gascap.circuits import formulation_width
    _, opt = hubo_desc.objective.exhaustive_min()
    width = formulation_width(hubo_desc)
    for i in range(3):
        cfg = GasConfig(max_classical_iters=150, stop_at_known_optimum=opt, master_seed=9)
        sampler = StateVectorSampler(hubo_desc.objective, width)
        trace = run_gas(sampler, cfg, run_seed(i, 9))
        assert trace.best_y == pytest.approx(opt)


# -- classical references ------------------------------------------------


def test_brute_force_reference(instance, table):
    res = brute_force_cap(instance, table)
    assert res.evaluations == 81
    assert res.best_value == pytest.approx(0.010, abs=1e-3)
    assert co_channel_partition(res.best_assignment) == frozenset(
        {frozenset({0, 3}), frozenset({1}), frozenset({2})}
    )


def test_brute_force_surplus_channels_scores_zero():
    with pytest.warns(UserWarning):
        inst = synthetic_instance(3, 3, seed=4)
    res = brute_force_cap(inst, coeff_table(inst))
    assert res.best_value == 0.0


def test_brute_force_budget(monkeypatch):
    # 4^12 assignments, above the budget: refused before any is scored
    inst = synthetic_instance(12, 4, seed=0)
    assert inst.n_ch ** inst.n_ap > ORACLE_BUDGET
    table = coeff_table(inst)
    # the enumeration's first call
    monkeypatch.setattr(gas.np, "arange", lambda *a, **k: pytest.fail("enumerated"))
    with pytest.raises(BudgetExceededError, match=f"{4 ** 12} exceeds .* {ORACLE_BUDGET}"):
        brute_force_cap(inst, table)


def test_run_batch_is_seed_paired(hubo_asc, hubo_desc):
    cfg = GasConfig(max_classical_iters=30, master_seed=55)
    asc = IdealSampler(hubo_asc.objective)
    a1 = list(run_batch(asc, cfg, 5))
    a2 = list(run_batch(asc, cfg, 5))
    assert [t.iterations for t in a1] == [t.iterations for t in a2]
    d = run_batch(IdealSampler(hubo_desc.objective), cfg, 5)
    # same streams, different objective: first uniform draw is the same bits
    assert all(
        x.iterations[0].l_i == y.iterations[0].l_i for x, y in zip(a1, d)
        if x.iterations and y.iterations
    )


def test_run_batch_shares_one_value_table(hubo_asc, monkeypatch):
    # on either backend, run i of a batch is run_gas on the stream (55, i)
    cfg = GasConfig(max_classical_iters=30, master_seed=55)
    p = hubo_asc.objective
    for backend in (IdealSampler, StateVectorSampler):
        solo = [run_gas(backend(p), cfg, run_seed(i, 55)) for i in range(4)]
        sampler = backend(p)
        calls = []
        original = BinaryPolynomial.evaluate_all
        monkeypatch.setattr(BinaryPolynomial, "evaluate_all",
                            lambda self: calls.append(1) or original(self))
        batch = list(run_batch(sampler, cfg, 4))
        monkeypatch.undo()
        assert not calls  # every run draws from the sampler's table
        assert [t.iterations for t in batch] == [t.iterations for t in solo]


def spy_statevector_draw(monkeypatch):
    """Record the sv sampler's circuit builds, as thresholds, and the Grover
    operators it applies, per threshold."""
    import gascap.simulator as simulator
    seen = {"prep": [], "grover": [], "applied": {}}
    prep_y, grover_y = {}, {}
    build_state_prep, build_grover, apply = (
        simulator.build_state_prep, simulator.build_grover, simulator.apply)

    def spy_prep(p, y, m):
        a = build_state_prep(p, y, m)
        prep_y[id(a)] = y
        seen["prep"].append(y)
        return a

    def spy_grover(a):
        g = build_grover(a)
        grover_y[id(g)] = prep_y[id(a)]  # the A_y built at this threshold
        seen["grover"].append(prep_y[id(a)])
        return g

    def spy_apply(c, state):
        if id(c) in grover_y:
            y = grover_y[id(c)]
            seen["applied"][y] = seen["applied"].get(y, 0) + 1
        return apply(c, state)

    monkeypatch.setattr(simulator, "build_state_prep", spy_prep)
    monkeypatch.setattr(simulator, "build_grover", spy_grover)
    monkeypatch.setattr(simulator, "apply", spy_apply)
    return seen


def draws_by_threshold(trace):
    by_y: dict[float, list[int]] = {}
    for it in trace.iterations:
        by_y.setdefault(it.y_i, []).append(it.l_i)
    return by_y


def test_statevector_builds_circuits_once_per_threshold(hubo_asc, monkeypatch):
    seen = spy_statevector_draw(monkeypatch)
    cfg = GasConfig(max_classical_iters=40, master_seed=3)
    p = hubo_asc.objective
    trace = run_gas(StateVectorSampler(p), cfg, run_seed(0, 3))
    by_y = draws_by_threshold(trace)
    amplified = [y for y, l_seq in by_y.items() if any(l_seq)]
    assert len(by_y) > 1 and amplified
    # an L = 0 draw reads the uniform key distribution, so only a threshold
    # with an amplified draw builds A_y and G
    assert len(amplified) < len(by_y)
    assert seen["prep"] == seen["grover"] == amplified


def test_statevector_simulates_each_draw_once_while_kept(hubo_asc, monkeypatch):
    # the draws of a batch repeat (threshold, L) pairs; the sampler keeps the
    # key distribution of each and simulates a pair again only once its entry
    # is gone, so it applies fewer Grover operators than it charges
    seen = spy_statevector_draw(monkeypatch)
    simulated = []
    simulate = StateVectorSampler._simulate

    def spy(self, y, l_ops):
        assert (y, l_ops) not in self.cdfs
        simulated.append((y, l_ops))
        return simulate(self, y, l_ops)

    monkeypatch.setattr(StateVectorSampler, "_simulate", spy)
    cfg = GasConfig(max_classical_iters=40, master_seed=3)
    p = hubo_asc.objective
    sampler = StateVectorSampler(p)
    got = list(run_batch(sampler, cfg, 6))
    monkeypatch.undo()
    want = [reference_run_gas(p, cfg, run_seed(i, 3), PerDrawStatevector(p)) for i in range(6)]
    assert repr(got) == repr(want)
    draws = sum(len(t.iterations) for t in got)
    charged = sum(t.quantum_queries for t in got)
    assert 0 < sum(seen["applied"].values()) < charged
    assert len(simulated) < draws
    assert len(sampler.cdfs) <= 2 << sampler.base_m


# -- table lookups against re-evaluation ---------------------------------


def reference_run_gas(p, cfg, rng, sampler):
    """The ideal-backend search loop as it was before draws became table
    lookups: each drawn key becomes a bit vector that ``p.evaluate`` scores."""
    n = p.n_vars
    sqrt_space = math.sqrt(2.0 ** n)
    trace = GasTrace()
    x = tuple(int(b) for b in rng.integers(0, 2, size=n))
    trace.classical_queries = 1
    trace.best_key, trace.best_y = bits_to_int(x), p.evaluate(x)
    k, i = 1.0, 0
    while True:
        if cfg.max_classical_iters is not None and i >= cfg.max_classical_iters:
            break
        if cfg.stop_at_known_optimum is not None and trace.best_y <= cfg.stop_at_known_optimum + 1e-12:
            break
        if cfg.max_quantum_queries is not None and trace.quantum_queries >= cfg.max_quantum_queries:
            break
        l_i = int(rng.integers(0, math.ceil(k - 1.0) + 1))
        key = sampler.sample(trace.best_y, l_i, rng)
        y_new = p.evaluate(int_to_bits(key, n))
        improved = y_new < trace.best_y
        trace.iterations.append(GasIteration(
            i=i, y_i=trace.best_y, k_i=k, l_i=l_i,
            sampled_key=key, sampled_y=y_new, improved=improved,
        ))
        trace.classical_queries += 1
        trace.quantum_queries += l_i
        if improved:
            trace.best_key, trace.best_y = key, y_new
            k = 1.0
        else:
            k = min(8.0 / 7.0 * k, sqrt_space)
        i += 1
    return trace


@st.composite
def search_polynomials(draw, max_vars=8, bound=1e3):
    """Non-integer coefficients; a few shared levels make many keys tie."""
    n = draw(st.integers(0, max_vars))
    levels = draw(st.lists(st.floats(-bound, bound, allow_nan=False), min_size=1, max_size=4))
    coeff = st.one_of(st.sampled_from(levels), st.floats(-bound, bound, allow_nan=False))
    support = st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(tuple) if n else st.just(())
    return BinaryPolynomial(n, draw(st.dictionaries(support, coeff, max_size=20)))


@given(search_polynomials(), st.integers(0, 2**32 - 1), st.integers(1, 80), st.booleans())
@example(BinaryPolynomial(4, {(): 0.1}), 0, 30, False)
@example(BinaryPolynomial(3, {(0,): 0.1, (1,): 0.1, (2,): 0.2}), 5, 40, True)
@settings(deadline=None, max_examples=80)
def test_ideal_trace_equals_evaluate_per_draw_reference(p, seed, iters, stop):
    stop_at = p.exhaustive_min()[1] if stop else None
    cfg = GasConfig(max_classical_iters=iters, stop_at_known_optimum=stop_at, master_seed=seed)
    sampler = IdealSampler(p)
    got = run_gas(sampler, cfg, run_seed(0, seed))
    want = reference_run_gas(p, cfg, run_seed(0, seed), sampler)
    # repr shows every float exactly, so equal reprs mean equal bits
    assert repr(got) == repr(want)


class ParentIdealSampler:
    """``IdealSampler`` before the per-threshold memo and its single unstable
    sort: a stable argsort, and every draw finds t and the marked
    probability afresh."""

    def __init__(self, p):
        self.p, self.n_vars = p, p.n_vars
        self.values = p.evaluate_all()
        self.order = np.argsort(self.values, kind="stable")
        self.sorted_values = self.values[self.order]

    def sample(self, y, l_ops, rng):
        t = int(np.searchsorted(self.sorted_values, y, side="left"))
        n = 1 << self.n_vars
        p_marked = amplified_probability(t, n, l_ops)
        if t == n or rng.random() < p_marked:
            pick = self.order[int(rng.integers(t))]
        else:
            pick = self.order[t + int(rng.integers(n - t))]
        return int(pick)


def parent_run_gas(sampler, cfg, rng):
    """``run_gas`` before its loop held its state in locals: the trace's
    fields updated per draw and each record built by keyword."""
    p, n = sampler.p, sampler.n_vars
    sqrt_space = math.sqrt(2.0 ** n)
    trace = GasTrace()
    x = rng.integers(0, 2, size=n).tolist()
    trace.classical_queries = 1
    trace.best_key, trace.best_y = bits_to_int(x), p.evaluate(x)
    k = 1.0
    while True:
        i = len(trace.iterations)
        if cfg.max_classical_iters is not None and i >= cfg.max_classical_iters:
            break
        if cfg.stop_at_known_optimum is not None and trace.best_y <= cfg.stop_at_known_optimum + 1e-12:
            break
        if cfg.max_quantum_queries is not None and trace.quantum_queries >= cfg.max_quantum_queries:
            break
        l_i = int(rng.integers(0, math.ceil(k - 1.0) + 1))
        key = sampler.sample(trace.best_y, l_i, rng)
        y_new = float(sampler.values[key])
        improved = y_new < trace.best_y
        trace.iterations.append(GasIteration(
            i=i, y_i=trace.best_y, k_i=k, l_i=l_i,
            sampled_key=key, sampled_y=y_new, improved=improved,
        ))
        trace.classical_queries += 1
        trace.quantum_queries += l_i
        if improved:
            trace.best_key, trace.best_y = key, y_new
            k = 1.0
        else:
            k = min(8.0 / 7.0 * k, sqrt_space)
    return trace


def budget_config(rule, p, seed):
    """A config with the one termination rule ``rule`` set."""
    if rule == "classical":
        return GasConfig(max_classical_iters=30, master_seed=seed)
    if rule == "quantum":
        # a 0-variable search draws L = 0 forever, so run_gas refuses it
        # with this rule alone
        assume(p.n_vars > 0)
        return GasConfig(max_quantum_queries=25, master_seed=seed)
    return GasConfig(stop_at_known_optimum=p.exhaustive_min()[1], master_seed=seed)


@given(search_polynomials(max_vars=8), st.integers(0, 2**32 - 1),
       st.sampled_from(["classical", "quantum", "optimum"]))
@example(BinaryPolynomial(4, {(): 0.1}), 0, "optimum")
@example(BinaryPolynomial(0, {}), 3, "classical")
@example(BinaryPolynomial(2, {(0,): -math.inf, (1,): 1.0}), 5, "classical")  # no stop at -inf
@settings(deadline=None, max_examples=60)
def test_ideal_batch_equals_parent_loop(p, seed, rule):
    cfg = budget_config(rule, p, seed)
    sampler = IdealSampler(p)
    got = list(run_batch(sampler, cfg, 4))
    parent = ParentIdealSampler(p)
    want = [parent_run_gas(parent, cfg, run_seed(i, seed)) for i in range(4)]
    # the parent's stable order and the sampler's may return different keys
    # of one tie group, so each key stands as the bits of its value; repr
    # shows every float exactly, so equal reprs mean equal bits
    key_bits = sampler.values.view(np.int64).item
    for trace in (*got, *want):
        trace.iterations = [it._replace(sampled_key=key_bits(it.sampled_key)) for it in trace.iterations]
        trace.best_key = key_bits(trace.best_key)
    assert repr(got) == repr(want)


@given(search_polynomials(max_vars=4, bound=8.0), st.integers(0, 2**32 - 1),
       st.sampled_from(["classical", "quantum", "optimum"]))
@settings(deadline=None, max_examples=15)
def test_statevector_batch_equals_parent_loop(p, seed, rule):
    cfg = budget_config(rule, p, seed)
    got = list(run_batch(StateVectorSampler(p), cfg, 3))
    parent = StateVectorSampler(p)
    want = [parent_run_gas(parent, cfg, run_seed(i, seed)) for i in range(3)]
    assert repr(got) == repr(want)


class PerDrawStatevector:
    """The sv draw through ``apply`` alone, as a ``sample`` for
    ``reference_run_gas``: A_y|0> is simulated once per threshold and every
    draw applies G to it L times, G's plan compiled from its gates rather
    than the sampler's reflection about A_y|0>."""

    def __init__(self, p, value_width=None):
        self.p = p
        self.base_m = value_width if value_width is not None else coefficient_width(p)
        self.at_y = None

    def sample(self, y, l_ops, rng):
        if y != self.at_y:
            self.at_y, self.m = y, max(self.base_m, coefficient_width(self.p, y))
            prep = build_state_prep(self.p, y, self.m)
            self.prepared = apply(prep, zero_state(prep.n_qubits))
            self.grover = build_grover(prep)
        state = self.prepared
        for _ in range(l_ops):
            state = apply(self.grover, state)
        return sample(key_cdf(state), rng) >> self.m


def sv_width(p, widen):
    """A value-register width ``widen`` qubits wider than the coefficients
    need, or None, which leaves the width to the sampler."""
    return None if widen is None else coefficient_width(p) + widen


@given(search_polynomials(max_vars=5, bound=8.0), st.integers(0, 2**32 - 1),
       st.integers(1, 40), st.none() | st.integers(0, 3))
@settings(deadline=None, max_examples=25)
def test_statevector_trace_equals_per_draw_reference(p, seed, iters, widen):
    cfg = GasConfig(max_classical_iters=iters, master_seed=seed)
    width = sv_width(p, widen)
    got = run_gas(StateVectorSampler(p, width), cfg, run_seed(0, seed))
    want = reference_run_gas(p, cfg, run_seed(0, seed), PerDrawStatevector(p, width))
    assert repr(got) == repr(want)


@given(search_polynomials(max_vars=5, bound=8.0), st.integers(0, 2**32 - 1),
       st.none() | st.integers(0, 3), st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.floats(-40.0, 40.0, allow_nan=False), st.floats(-40.0, 40.0, allow_nan=False))
@settings(deadline=None, max_examples=25)
def test_statevector_sampler_equals_per_draw_reference(p, seed, widen, l_ops, y1, y2):
    # the sequence returns to its first threshold, which the sampler has to
    # prepare afresh
    width = sv_width(p, widen)
    got_sampler, want_sampler = StateVectorSampler(p, width), PerDrawStatevector(p, width)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for y, l in zip((y1, y2, y1), l_ops):
        assert got_sampler.sample(y, l, got_rng) == want_sampler.sample(y, l, want_rng)
        # a key's total probability rarely depends on the register width, so
        # check the width itself; every simulated draw leaves its y's A_y held
        if l and got_sampler.at_y == y:
            assert got_sampler.prep.m_val == want_sampler.m


@given(search_polynomials(max_vars=4, bound=8.0), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 1, 2]),
       st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), min_size=1, max_size=30))
@example(BinaryPolynomial(2, {(0,): 1.0, (1,): -2.0}), 0, 1, [0.5, -1.0],
         [(0, 3), (0, 1), (0, 3), (1, 2), (1, 0), (0, 4), (1, 1), (1, 5), (0, 2), (0, 3), (1, 2)])
@settings(deadline=None, max_examples=60)
def test_statevector_memo_equals_per_draw_reference(p, seed, width, thresholds, draws):
    # revisited thresholds, a smaller L after a larger one (the frontier
    # starts again from psi) and, with a 1- or 2-qubit base register, more
    # distinct draws than the memo keeps (4 or 8 entries); an L = 0 draw
    # reads the uniform distribution and leaves the memo alone
    got_sampler, want_sampler = StateVectorSampler(p, width), PerDrawStatevector(p, width)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    kept = []  # the draws the memo should hold, least recently drawn first
    for at, l_ops in draws:
        y = thresholds[at % len(thresholds)]
        assert got_sampler.sample(y, l_ops, got_rng) == want_sampler.sample(y, l_ops, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if not l_ops:
            assert list(got_sampler.cdfs) == kept
            continue
        if got_sampler.at_y == y:  # true after every simulated draw
            assert got_sampler.prep.m_val == want_sampler.m
        kept = [d for d in kept if d != (y, l_ops)] + [(y, l_ops)]
        kept = kept[-(2 << got_sampler.base_m):]
        assert list(got_sampler.cdfs) == kept


def test_shared_statevector_sampler_equals_fresh_per_run(hubo_asc, monkeypatch):
    # the state a sampler keeps from its last threshold depends only on that
    # threshold, so sharing one between runs changes no trace.  The small
    # objective has two values, so runs often start at the threshold the
    # previous run ended on and carry its state over.
    seen = spy_statevector_draw(monkeypatch)
    cfg = GasConfig(max_classical_iters=20, master_seed=21)
    for p in (hubo_asc.objective, BinaryPolynomial(3, {(0,): 1.0})):
        start = len(seen["prep"])
        want = [run_gas(StateVectorSampler(p), cfg, run_seed(i, 21)) for i in range(6)]
        fresh_builds = len(seen["prep"]) - start
        shared = StateVectorSampler(p)
        got = [run_gas(shared, cfg, run_seed(i, 21)) for i in range(6)]
        shared_builds = len(seen["prep"]) - start - fresh_builds
        assert repr(got) == repr(want)
    assert shared_builds < fresh_builds


def test_statevector_queries_are_charged_per_draw(hubo_asc):
    p = hubo_asc.objective
    for seed in range(4):
        cfg = GasConfig(max_classical_iters=30, master_seed=seed)
        got = run_gas(StateVectorSampler(p), cfg, run_seed(0, seed))
        want = reference_run_gas(p, cfg, run_seed(0, seed), PerDrawStatevector(p))
        assert [it.l_i for it in got.iterations] == [it.l_i for it in want.iterations]
        assert got.quantum_queries == want.quantum_queries == sum(it.l_i for it in got.iterations)


@given(search_polynomials(max_vars=4, bound=8.0), st.integers(0, 2**32 - 1))
@example(BinaryPolynomial(4, {(0, 1): -1.5, (2,): 0.25, (1, 3): 0.25, (): 0.5}), 3)
@settings(deadline=None, max_examples=20)
def test_statevector_values_are_the_evaluated_keys(p, seed):
    cfg = GasConfig(max_classical_iters=12, master_seed=seed)
    sampler = StateVectorSampler(p)
    trace = run_gas(sampler, cfg, run_seed(0, seed))
    best_x = int_to_bits(trace.best_key, p.n_vars)
    assert trace.best_y == sampler.values[trace.best_key] == p.evaluate(best_x)
    for it in trace.iterations:
        assert it.sampled_y == p.evaluate(int_to_bits(it.sampled_key, p.n_vars))
        assert type(it.sampled_y) is float


@pytest.mark.parametrize("backend", ["ideal", "sv"])
def test_only_the_first_sample_is_evaluated(hubo_asc, monkeypatch, backend):
    p = hubo_asc.objective
    sampler = {"ideal": IdealSampler, "sv": StateVectorSampler}[backend](p)
    calls = []
    original = BinaryPolynomial.evaluate
    monkeypatch.setattr(BinaryPolynomial, "evaluate",
                        lambda self, x: calls.append(x) or original(self, x))
    cfg = GasConfig(max_classical_iters=25, master_seed=8)
    trace = run_gas(sampler, cfg, run_seed(0, 8))
    assert len(trace.iterations) == 25
    assert len(calls) == 1
