import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    BudgetExceededError,
    GasConfig,
    GasTrace,
    IdealSampler,
    StateVector,
    apply,
    bits_to_int,
    brute_force_cap,
    build_grover,
    build_state_prep,
    coefficient_width,
    log2_expected_queries,
    run_batch,
    run_gas,
    run_seed,
    sample,
    synthetic_instance,
    coeff_table,
)
from gascap.gas import GasIteration
from gascap.poly import int_to_bits


def test_config_requires_a_termination_rule():
    with pytest.raises(ValueError):
        GasConfig()
    with pytest.raises(ValueError):
        GasConfig(lambda_=1.0, max_classical_iters=5)
    GasConfig(max_classical_iters=5)


def test_threshold_history_is_monotone(hubo_desc):
    cfg = GasConfig(max_classical_iters=120, master_seed=17)
    trace = run_gas(hubo_desc.objective, cfg)
    ys = trace.threshold_history()
    assert all(a >= b for a, b in zip(ys, ys[1:]))


def test_query_accounting(hubo_asc):
    cfg = GasConfig(max_classical_iters=50, master_seed=3)
    trace = run_gas(hubo_asc.objective, cfg)
    assert trace.classical_queries == len(trace.iterations) + 1
    assert trace.quantum_queries == sum(it.l_i for it in trace.iterations)


def test_oracle_call_convention(hubo_asc):
    base = GasConfig(max_classical_iters=50, master_seed=3)
    alt = GasConfig(max_classical_iters=50, master_seed=3, count_oracle_calls=True)
    t0 = run_gas(hubo_asc.objective, base)
    t1 = run_gas(hubo_asc.objective, alt)
    assert t1.quantum_queries == sum(2 * it.l_i + 1 for it in t1.iterations)
    assert [it.l_i for it in t0.iterations] == [it.l_i for it in t1.iterations]


def test_reach_grows_geometrically_until_cap():
    # a constant objective never improves, so k follows min(lambda^j, sqrt(2^n))
    p = BinaryPolynomial.constant(2.0, 4)
    cfg = GasConfig(max_classical_iters=40, master_seed=0)
    trace = run_gas(p, cfg)
    lam, cap = 8.0 / 7.0, math.sqrt(2.0 ** 4)
    for j, it in enumerate(trace.iterations):
        assert it.k_i == pytest.approx(min(lam ** j, cap))
        assert not it.improved
    assert trace.best_y == 2.0


def test_rotation_counts_within_reach(hubo_desc):
    cfg = GasConfig(max_classical_iters=200, master_seed=11)
    trace = run_gas(hubo_desc.objective, cfg)
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
    trace = run_gas(p, cfg)
    assert trace.best_y == -1.0
    assert all(not it.improved for it in trace.iterations)
    assert all(it.y_i == -1.0 for it in trace.iterations)


def test_stop_at_known_optimum(hubo_desc):
    _, opt = hubo_desc.objective.exhaustive_min()
    cfg = GasConfig(max_classical_iters=500, stop_at_known_optimum=opt, master_seed=5)
    trace = run_gas(hubo_desc.objective, cfg)
    assert trace.best_y == pytest.approx(opt)


def test_no_improvement_window_stops():
    p = BinaryPolynomial.constant(1.0, 3)
    cfg = GasConfig(no_improvement_window=7, master_seed=0)
    trace = run_gas(p, cfg)
    assert len(trace.iterations) == 7


def test_quantum_budget_stops(hubo_asc):
    cfg = GasConfig(max_quantum_queries=25, max_classical_iters=10_000, master_seed=2)
    trace = run_gas(hubo_asc.objective, cfg)
    assert trace.quantum_queries >= 25 or len(trace.iterations) == 10_000
    # the budget is checked before each iteration, so the overshoot is at most
    # the final draw
    assert trace.quantum_queries - trace.iterations[-1].l_i < 25


def test_seed_determinism(hubo_asc):
    cfg = GasConfig(max_classical_iters=80, master_seed=77)
    a = run_gas(hubo_asc.objective, cfg, rng=run_seed(4, 77))
    b = run_gas(hubo_asc.objective, cfg, rng=run_seed(4, 77))
    assert a.iterations == b.iterations
    c = run_gas(hubo_asc.objective, cfg, rng=run_seed(5, 77))
    assert a.iterations != c.iterations


def test_invalid_samples_are_evaluated_not_rejected(qubo):
    # one-hot penalties keep invalid vectors in play; the trace must show
    # their penalized objective values rather than skipping them
    cfg = GasConfig(max_classical_iters=60, master_seed=13)
    trace = run_gas(qubo.objective, cfg)
    for it in trace.iterations:
        assert it.sampled_y == pytest.approx(qubo.objective.evaluate(it.sampled_x))


def test_gas_finds_optimum_with_generous_budget(hubo_desc):
    _, opt = hubo_desc.objective.exhaustive_min()
    budget = int(10 * math.sqrt(2 ** hubo_desc.objective.n_vars))
    cfg = GasConfig(
        max_quantum_queries=budget, max_classical_iters=100_000,
        stop_at_known_optimum=opt, master_seed=2023,
    )
    hits = 0
    for i in range(40):
        trace = run_gas(hubo_desc.objective, cfg, rng=run_seed(i, 2023))
        hits += trace.best_y <= opt + 1e-9
    assert hits >= 38


def test_statevector_backend_survives_large_initial_threshold():
    # tiny coefficients, large values: the folded constant -y would overflow
    # a register sized from the coefficients alone; the backend must widen
    p = BinaryPolynomial(4, {(i,): 3.0 for i in range(4)})
    cfg = GasConfig(backend="sv", max_classical_iters=40,
                    stop_at_known_optimum=0.0, master_seed=1)
    trace = run_gas(p, cfg)
    assert trace.best_y == 0.0


def test_statevector_backend_agrees_with_ideal(hubo_desc, table):
    from gascap.circuits import formulation_width
    _, opt = hubo_desc.objective.exhaustive_min()
    width = formulation_width(hubo_desc, d_sum=table.d_sum)
    for i in range(3):
        cfg_sv = GasConfig(
            backend="sv", value_width=width,
            max_classical_iters=150, stop_at_known_optimum=opt, master_seed=9,
        )
        trace = run_gas(hubo_desc.objective, cfg_sv, rng=run_seed(i, 9))
        assert trace.best_y == pytest.approx(opt)


# -- classical references ------------------------------------------------


def test_brute_force_reference(instance, table):
    res = brute_force_cap(instance, table)
    assert res.evaluations == 81
    assert res.best_value == pytest.approx(0.010, abs=1e-3)
    assert res.co_channel_partition() == frozenset(
        {frozenset({0, 3}), frozenset({1}), frozenset({2})}
    )


def test_brute_force_surplus_channels_scores_zero():
    with pytest.warns(UserWarning):
        inst = synthetic_instance(3, 3, seed=4)
    res = brute_force_cap(inst, coeff_table(inst))
    assert res.best_value == 0.0


def test_brute_force_budget(instance, table):
    with pytest.raises(BudgetExceededError):
        brute_force_cap(instance, table, budget=80)


def test_expected_queries():
    q = log2_expected_queries(12)
    assert (2.0 ** q.grover, 2.0 ** q.exhaustive) == (64.0, 4096.0)
    assert 2.0 ** log2_expected_queries(8).grover == 16.0
    assert 2.0 ** log2_expected_queries(0).grover == 1.0
    lg = log2_expected_queries(768)
    assert (lg.grover, lg.exhaustive) == (384.0, 768.0)


def test_run_batch_is_seed_paired(hubo_asc, hubo_desc):
    cfg = GasConfig(max_classical_iters=30, master_seed=55)
    a1 = run_batch(hubo_asc.objective, cfg, 5)
    a2 = run_batch(hubo_asc.objective, cfg, 5)
    assert [t.iterations for t in a1] == [t.iterations for t in a2]
    d = run_batch(hubo_desc.objective, cfg, 5)
    # same streams, different objective: first uniform draw is the same bits
    assert all(
        x.iterations[0].l_i == y.iterations[0].l_i for x, y in zip(a1, d)
        if x.iterations and y.iterations
    )


def test_run_batch_shares_one_value_table(hubo_asc, monkeypatch):
    cfg = GasConfig(max_classical_iters=30, master_seed=55)
    p = hubo_asc.objective
    solo = [run_gas(p, cfg, rng=run_seed(i, 55)) for i in range(4)]
    calls = []
    original = BinaryPolynomial.evaluate_all
    monkeypatch.setattr(BinaryPolynomial, "evaluate_all",
                        lambda self: calls.append(1) or original(self))
    batch = run_batch(p, cfg, 4)
    assert len(calls) == 1
    assert [t.iterations for t in batch] == [t.iterations for t in solo]


def spy_statevector_draw(monkeypatch):
    """Record the sv draw's circuit builds, as thresholds, and the Grover
    operators it applies, per threshold."""
    import gascap.gas as gas
    seen = {"prep": [], "grover": [], "applied": {}}
    prep_y, grover_y = {}, {}
    build_state_prep, build_grover, apply = gas.build_state_prep, gas.build_grover, gas.apply

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

    monkeypatch.setattr(gas, "build_state_prep", spy_prep)
    monkeypatch.setattr(gas, "build_grover", spy_grover)
    monkeypatch.setattr(gas, "apply", spy_apply)
    return seen


def draws_by_threshold(trace):
    by_y: dict[float, list[int]] = {}
    for it in trace.iterations:
        by_y.setdefault(it.y_i, []).append(it.l_i)
    return by_y


def test_statevector_builds_circuits_once_per_threshold(hubo_asc, monkeypatch):
    seen = spy_statevector_draw(monkeypatch)
    cfg = GasConfig(backend="sv", max_classical_iters=40, master_seed=3)
    trace = run_gas(hubo_asc.objective, cfg, rng=run_seed(0, 3))
    by_y = draws_by_threshold(trace)
    amplified = [y for y, l_seq in by_y.items() if any(l_seq)]
    assert len(by_y) > 1 and amplified
    assert seen["prep"] == list(by_y)
    assert seen["grover"] == amplified


def test_statevector_applies_every_charged_operator(hubo_asc, monkeypatch):
    seen = spy_statevector_draw(monkeypatch)
    cfg = GasConfig(backend="sv", max_classical_iters=40, master_seed=3)
    trace = run_gas(hubo_asc.objective, cfg, rng=run_seed(0, 3))
    by_y = draws_by_threshold(trace)
    assert seen["applied"] == {y: sum(l_seq) for y, l_seq in by_y.items() if any(l_seq)}
    assert sum(seen["applied"].values()) == trace.quantum_queries > 0


# -- table lookups against re-evaluation ---------------------------------


def reference_run_gas(p, cfg, rng, sampler):
    """The ideal-backend search loop as it was before draws became table
    lookups: each drawn key becomes a bit vector that ``p.evaluate`` scores."""
    n = p.n_vars
    sqrt_space = math.sqrt(2.0 ** n)
    trace = GasTrace()
    x = tuple(int(b) for b in rng.integers(0, 2, size=n))
    trace.classical_queries = 1
    trace.best_x, trace.best_y = x, p.evaluate(x)
    k, i, since_improvement = 1.0, 0, 0
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
        x_new = int_to_bits(sampler.sample(trace.best_y, l_i, rng), n)
        y_new = p.evaluate(x_new)
        improved = y_new < trace.best_y
        trace.iterations.append(GasIteration(
            i=i, y_i=trace.best_y, k_i=k, l_i=l_i,
            sampled_x=x_new, sampled_y=y_new, improved=improved,
        ))
        trace.classical_queries += 1
        trace.quantum_queries += (2 * l_i + 1) if cfg.count_oracle_calls else l_i
        if improved:
            trace.best_x, trace.best_y = x_new, y_new
            k, since_improvement = 1.0, 0
        else:
            k = min(cfg.lambda_ * k, sqrt_space)
            since_improvement += 1
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


@given(search_polynomials(), st.integers(0, 2**32 - 1), st.integers(1, 80),
       st.booleans(), st.booleans())
@example(BinaryPolynomial.constant(0.1, 4), 0, 30, False, False)
@example(BinaryPolynomial(3, {(0,): 0.1, (1,): 0.1, (2,): 0.2}), 5, 40, True, True)
@settings(deadline=None, max_examples=80)
def test_ideal_trace_equals_evaluate_per_draw_reference(p, seed, iters, oracle_calls, stop):
    stop_at = p.exhaustive_min()[1] if stop else None
    cfg = GasConfig(max_classical_iters=iters, stop_at_known_optimum=stop_at,
                    count_oracle_calls=oracle_calls, master_seed=seed)
    sampler = IdealSampler(p)
    got = run_gas(p, cfg, rng=run_seed(0, seed), sampler=sampler)
    want = reference_run_gas(p, cfg, run_seed(0, seed), sampler)
    # repr shows every float exactly, so equal reprs mean equal bits
    assert repr(got) == repr(want)


class PerDrawStatevector:
    """The sv draw through ``apply`` alone, as a ``sample`` for
    ``reference_run_gas``: A_y|0> is simulated once per threshold and every
    draw applies G to it L times."""

    def __init__(self, p, value_width=None):
        self.p = p
        self.base_m = value_width if value_width is not None else coefficient_width(p)
        self.at_y = None

    def sample(self, y, l_ops, rng):
        if y != self.at_y:
            self.at_y, self.m = y, max(self.base_m, coefficient_width(self.p, y))
            prep = build_state_prep(self.p, y, self.m)
            self.prepared = apply(prep, StateVector.zero(prep.n_qubits))
            self.grover = build_grover(prep)
        state = self.prepared
        for _ in range(l_ops):
            state = apply(self.grover, state)
        return bits_to_int(sample(state, rng, self.p.n_vars, self.m).key_bits)


def sv_config(p, seed, iters, widen):
    """An sv search config whose value register is ``widen`` qubits wider
    than the coefficients need, or sized by the search when ``widen`` is None."""
    width = None if widen is None else coefficient_width(p) + widen
    return GasConfig(backend="sv", max_classical_iters=iters, master_seed=seed, value_width=width)


@given(search_polynomials(max_vars=5, bound=8.0), st.integers(0, 2**32 - 1),
       st.integers(1, 40), st.none() | st.integers(0, 3))
@settings(deadline=None, max_examples=25)
def test_statevector_trace_equals_per_draw_reference(p, seed, iters, widen):
    cfg = sv_config(p, seed, iters, widen)
    got = run_gas(p, cfg, rng=run_seed(0, seed))
    want = reference_run_gas(p, cfg, run_seed(0, seed), PerDrawStatevector(p, cfg.value_width))
    assert repr(got) == repr(want)


@pytest.mark.parametrize("oracle_calls", [False, True])
def test_statevector_queries_are_charged_per_draw(hubo_asc, oracle_calls):
    p = hubo_asc.objective
    for seed in range(4):
        cfg = GasConfig(backend="sv", max_classical_iters=30, master_seed=seed,
                        count_oracle_calls=oracle_calls)
        got = run_gas(p, cfg, rng=run_seed(0, seed))
        want = reference_run_gas(p, cfg, run_seed(0, seed), PerDrawStatevector(p))
        assert [it.l_i for it in got.iterations] == [it.l_i for it in want.iterations]
        assert got.quantum_queries == want.quantum_queries == sum(
            2 * it.l_i + 1 if oracle_calls else it.l_i for it in got.iterations)


@given(search_polynomials(max_vars=4, bound=8.0), st.integers(0, 2**32 - 1))
@example(BinaryPolynomial(4, {(0, 1): -1.5, (2,): 0.25, (1, 3): 0.25, (): 0.5}), 3)
@settings(deadline=None, max_examples=20)
def test_statevector_values_are_the_evaluated_keys(p, seed):
    cfg = GasConfig(backend="sv", max_classical_iters=12, master_seed=seed)
    trace = run_gas(p, cfg, rng=run_seed(0, seed))
    assert trace.best_y == p.evaluate(trace.best_x)
    for it in trace.iterations:
        assert it.sampled_y == p.evaluate(it.sampled_x)
        assert type(it.sampled_y) is float


@pytest.mark.parametrize("backend", ["ideal", "sv"])
def test_only_the_first_sample_is_evaluated(hubo_asc, monkeypatch, backend):
    p = hubo_asc.objective
    sampler = IdealSampler(p)
    calls = []
    original = BinaryPolynomial.evaluate
    monkeypatch.setattr(BinaryPolynomial, "evaluate",
                        lambda self, x: calls.append(x) or original(self, x))
    cfg = GasConfig(backend=backend, max_classical_iters=25, master_seed=8)
    trace = run_gas(p, cfg, rng=run_seed(0, 8), sampler=sampler)
    assert len(trace.iterations) == 25
    assert len(calls) == 1
