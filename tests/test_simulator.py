import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    BudgetExceededError,
    CapExceededError,
    IdealSampler,
    StateVectorSampler,
    amplified_probability,
    apply,
    build_grover,
    build_state_prep,
    key_cdf,
    marked_probability,
    quadratize,
    sample,
    value_register_width,
    zero_state,
)
from gascap import simulator
from gascap.circuits import CircuitSpec, GateSpec, coefficient_width, formulation_width
from gascap.poly import bits_to_int, int_to_bits
from test_gas import ParentIdealSampler, search_polynomials


def test_hadamard_on_zero():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0),))
    sv = apply(c, zero_state(1))
    assert np.allclose(sv, [1 / math.sqrt(2)] * 2)


def test_z_flips_phase_of_one():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0), GateSpec("z", target=0)))
    sv = apply(c, zero_state(1))
    assert np.allclose(sv, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_apply_rejects_mismatch_and_cap():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0),))
    with pytest.raises(ValueError):
        apply(c, zero_state(2))
    big = CircuitSpec(25, 0, ())
    with pytest.raises(ValueError):
        # the cap is checked before the amplitudes are read
        apply(big, np.zeros(1))


def test_zero_state_checks_the_cap_before_allocating():
    # 2^80 amplitudes are past addressable memory, so no width here allocates
    with pytest.raises(CapExceededError, match="^80 qubits above the simulation cap of 24$"):
        zero_state(80)
    assert zero_state(2).tolist() == [1, 0, 0, 0]


def test_norm_drift_is_a_value_error():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0),))
    with pytest.raises(ValueError, match="norm drifted"):
        apply(c, np.array([1, 1], complex))


# -- gate-by-gate reference ---------------------------------------------------
# Every gate on its own: each phase gate through a full-array mask, the
# (inverse) QFT as a dense matrix.  ``apply`` must match it.


def _iqft_matrix(m: int, inverse: bool) -> np.ndarray:
    size = 1 << m
    grid = np.outer(np.arange(size), np.arange(size))
    sign = -1.0 if inverse else 1.0
    return np.exp(sign * 2j * np.pi * grid / size) / math.sqrt(size)


def apply_gate_by_gate(c: CircuitSpec, s: np.ndarray) -> np.ndarray:
    n_total, m = c.n_qubits, c.m_val
    amps = s.astype(np.complex128)
    idx = np.arange(amps.size, dtype=np.uint64)

    def weight(q):
        return 1 << (n_total - 1 - q)

    for g in c.gates:
        if g.kind == "h":
            a = amps.reshape(1 << g.target, 2, weight(g.target))
            top, bot = a[:, 0, :].copy(), a[:, 1, :].copy()
            inv = 1.0 / math.sqrt(2.0)
            a[:, 0, :] = (top + bot) * inv
            a[:, 1, :] = (top - bot) * inv
        elif g.kind in ("r", "cr"):
            mask = np.uint64(sum(weight(q) for q in (g.target, *g.controls)))
            amps[(idx & mask) == mask] *= np.exp(1j * g.theta)
        elif g.kind == "z":
            amps[(idx & np.uint64(weight(g.target))) != 0] *= -1.0
        elif g.kind in ("iqft", "qft"):
            mat = _iqft_matrix(m, inverse=(g.kind == "iqft"))
            amps = (amps.reshape(-1, 1 << m) @ mat.T).reshape(-1)
        elif g.kind == "diffusion":
            first = amps[0]
            amps = -amps
            amps[0] = first
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
    return amps


def h_layer(draw, n_total, flaw=None):
    """A Hadamard on every qubit once, in random order, or a flawed layer:
    one qubit missing, or one qubit twice in place of another."""
    order = draw(st.permutations(range(n_total)))
    if flaw == "missing":
        order = order[1:]
    elif flaw == "repeat" and n_total > 1:
        order = [order[1]] + order[1:]
    return [GateSpec("h", target=q) for q in order]


@st.composite
def circuits(draw):
    """Random circuits plus the shapes of the search circuits: mirrors (gates
    X, a ``diffusion``, then X^dagger exactly or with one gate's angle,
    control or kind changed), mirrors with other gates in the middle, full
    Hadamard layers in random qubit order, and layer-diffusion-layer
    sandwiches, some with a flawed layer."""
    n_total = draw(st.integers(1, 8))
    m = draw(st.integers(0, n_total))
    qubit = st.integers(0, n_total - 1)
    theta = st.floats(-10.0, 10.0, allow_nan=False)

    def phase_gate():
        order = draw(st.permutations(range(n_total)))
        k = draw(st.integers(0, min(3, n_total - 1)))
        kind = "cr" if k else "r"
        return GateSpec(kind, target=order[0], controls=tuple(order[1:1 + k]), theta=draw(theta))

    def phase_run():
        return [phase_gate() for _ in range(draw(st.integers(1, 8)))]

    def block():
        # X of a mirror: phase runs, single gates, transforms and layers
        x = []
        for _ in range(draw(st.integers(1, 3))):
            part = draw(st.sampled_from(["phases", "h", "z", "iqft", "qft", "h-layer"]))
            if part == "phases":
                x.extend(phase_run())
            elif part == "h-layer":
                x.extend(h_layer(draw, n_total))
            elif part in ("h", "z"):
                x.append(GateSpec(part, target=draw(qubit)))
            else:
                x.append(GateSpec(part))
        return x

    def near_inverse(x):
        # one gate of X^dagger with its angle, a control or its kind changed
        inverse = [g.inverse() for g in reversed(x)]
        j = draw(st.integers(0, len(inverse) - 1))
        g = inverse[j]
        free = [q for q in range(n_total) if q != g.target and q not in g.controls]
        if g.kind in ("h", "z"):
            inverse[j] = GateSpec("z" if g.kind == "h" else "h", target=g.target)
        elif g.kind in ("iqft", "qft"):
            inverse[j] = g.inverse()
        elif g.controls and free and draw(st.booleans()):
            controls = (draw(st.sampled_from(free)),) + g.controls[1:]
            inverse[j] = GateSpec(g.kind, g.target, controls, g.theta)
        else:
            inverse[j] = GateSpec(g.kind, g.target, g.controls, g.theta + 0.5)
        return inverse

    kinds = ["phases", "h", "z", "iqft", "qft", "diffusion", "h-layer", "sandwich", "mirror"]
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "phases":
            gates.extend(phase_run())
        elif kind == "mirror":
            # X, a diffusion or other gates in the middle, then X^dagger or near it
            x = block()
            gates.extend(x)
            centred = draw(st.booleans())
            for _ in range(1 if centred else draw(st.integers(1, 3))):
                middle = "diffusion" if centred else draw(
                    st.sampled_from(["h", "z", "iqft", "qft", "diffusion", "sandwich"]))
                if middle == "sandwich":
                    gates.extend(h_layer(draw, n_total) + [GateSpec("diffusion")]
                                 + h_layer(draw, n_total))
                elif middle in ("h", "z"):
                    gates.append(GateSpec(middle, target=draw(qubit)))
                else:
                    gates.append(GateSpec(middle))
            exact = draw(st.booleans())
            gates.extend([g.inverse() for g in reversed(x)] if exact else near_inverse(x))
        elif kind == "h-layer":
            gates.extend(h_layer(draw, n_total))
        elif kind == "sandwich":
            flawed = draw(st.sampled_from([None, "before", "after"]))
            flaw = draw(st.sampled_from(["missing", "repeat"]))
            gates.extend(h_layer(draw, n_total, flaw if flawed == "before" else None))
            gates.append(GateSpec("diffusion"))
            gates.extend(h_layer(draw, n_total, flaw if flawed == "after" else None))
        elif kind in ("h", "z"):
            gates.append(GateSpec(kind, target=draw(qubit)))
        else:
            gates.append(GateSpec(kind))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << n_total) + 1j * rng.normal(size=1 << n_total)
    state = amps / np.linalg.norm(amps)
    return CircuitSpec(n_total - m, m, tuple(gates)), state


@given(circuits())
@settings(deadline=None)
def test_apply_matches_gate_by_gate_reference(case):
    c, state = case
    got = apply(c, state)
    assert np.max(np.abs(got - apply_gate_by_gate(c, state))) <= 1e-12


def test_apply_leaves_its_input_unchanged():
    c = CircuitSpec(1, 1, (GateSpec("h", target=0), GateSpec("r", target=1, theta=0.7),
                           GateSpec("z", target=0), GateSpec("iqft")))
    state = np.full(4, 0.5, dtype=complex)
    apply(c, state)
    assert np.array_equal(state, np.full(4, 0.5))


@pytest.mark.parametrize("c", [
    CircuitSpec(1, 0, (GateSpec("r", 0, (), 0.5),)),
    CircuitSpec(2, 0, (GateSpec("h", target=0), GateSpec("h", target=1))),
    CircuitSpec(1, 2, (GateSpec("iqft"),)),
], ids=["r", "h", "iqft"])
def test_real_amplitudes_give_the_state_of_their_complex_twin(c):
    # a phase step writes complex values and an h-only plan writes none; a
    # real input must come back complex128 either way
    real = np.random.default_rng(7).normal(size=1 << c.n_qubits)
    real /= np.linalg.norm(real)
    got = apply(c, real)
    assert got.dtype == np.complex128
    assert np.array_equal(got, apply(c, real.astype(np.complex128)))
    assert real.dtype == np.float64


# -- the compiled plan ----------------------------------------------------------


def _bundled_grover(hubo_asc, y=1.3):
    m = formulation_width(hubo_asc)
    prep = build_state_prep(hubo_asc.objective, y, m)
    return prep, build_grover(prep)


def test_grover_computes_one_diagonal_however_often_applied(hubo_asc, monkeypatch):
    diagonals = []
    kernel = simulator._phase_diagonal

    def spy(run, n_key, m_val):
        diagonals.append(n_key + m_val)
        return kernel(run, n_key, m_val)

    monkeypatch.setattr(simulator, "_phase_diagonal", spy)
    m = formulation_width(hubo_asc)
    sampler = StateVectorSampler(hubo_asc.objective, m)
    rng = np.random.default_rng(3)
    for l_ops in (1, 3, 2, 5):
        sampler.sample(1.3, l_ops, rng)
    # psi = A_y|0> comes from the value table, so A_y compiles nothing; G is
    # its oracle and the reflection about that same psi, and compiles nothing
    assert diagonals == []
    assert [op for op, _ in sampler.grover.plan] == ["z", "reflect"]
    assert sampler.grover.plan[1][1] is sampler.prepared


@given(search_polynomials(max_vars=6, bound=1e3), st.floats(-2e3, 2e3, allow_nan=False),
       st.none() | st.integers(1, 4))
@example(BinaryPolynomial.constant(2.5, 3), 2.5, None)  # A_y without a phase layer
@example(BinaryPolynomial.constant(-4.0, 0), 1.0, 2)  # no key qubit
@settings(deadline=None, max_examples=100)
def test_sampler_psi_matches_gate_level_state_prep(p, y, widen):
    # psi from the value table against A_y simulated gate run by gate run.
    # Both round each phase 2 pi (E(x) - y) k / 2^m to its size, and a row of
    # psi has norm 1/sqrt(2^n), so past |E - y| ~ 1e2 the bound grows with it
    sampler = StateVectorSampler(p, None if widen is None else coefficient_width(p) + widen)
    m = max(sampler.base_m, coefficient_width(p, y))
    want = apply(build_state_prep(p, y, m), zero_state(p.n_vars + m))
    rounding = 2 * math.pi * np.finfo(float).eps * np.max(np.abs(sampler.values - y))
    bound = max(1e-12, 8 * rounding / math.sqrt(1 << p.n_vars))
    assert np.max(np.abs(sampler._psi(y, m) - want)) <= bound


def psi_per_key(values, n, y, m):
    """psi = A_y|0> from the value table, one row computed per key."""
    n_total, size = n + m, 1 << m
    rows = np.zeros((values.size, size), dtype=np.complex128)
    np.multiply.outer(values - y, np.arange(size) * (2.0 * math.pi / size), out=rows.imag)
    np.exp(rows, out=rows)
    rows *= 1.0 / math.sqrt(1 << n_total)
    return np.fft.fft(rows, axis=1, norm="ortho").reshape(-1)


@given(search_polynomials(max_vars=7, bound=1e3), st.floats(-2e3, 2e3, allow_nan=False),
       st.integers(0, 3))
@example(BinaryPolynomial(4, {(0,): 1.0, (1,): 2.0, (2,): 4.0, (3,): 8.0}), 3.5, 0)  # distinct
@example(BinaryPolynomial(4, {(0,): 1.0, (1,): 1.0, (2, 3): -2.0}), 0.5, 1)  # repeated
@example(BinaryPolynomial.constant(1.5, 3), -2.0, 2)  # one value
@settings(deadline=None, max_examples=100)
def test_sampler_psi_per_distinct_value_is_the_per_key_psi(p, y, widen):
    # each distinct value's row, gathered into psi, has the bits of the row
    # computed for every key on its own
    sampler = StateVectorSampler(p, coefficient_width(p) + widen)
    m = max(sampler.base_m, coefficient_width(p, y))
    assert np.array_equal(sampler.distinct, np.unique(sampler.values))
    got = sampler._psi(y, m)
    assert np.array_equal(got.view(np.int64), psi_per_key(sampler.values, p.n_vars, y, m).view(np.int64))


@given(search_polynomials(max_vars=4, bound=8.0), st.floats(-40.0, 40.0, allow_nan=False),
       st.integers(0, 3), st.booleans())
@example(BinaryPolynomial(3, {(0, 1, 2): 2.0, (0,): -1.0}), 0.5, 0, True)
@example(BinaryPolynomial(3, {(0, 1): 1.0, (2,): -1.0}), 1e3, 2, False)  # y above the range
@example(BinaryPolynomial(3, {(0, 1): 1.0, (2,): -1.0}), -1e3, 0, False)  # y below it
@settings(deadline=None, max_examples=40)
def test_prepared_key_distribution_is_the_uniform_one(p, y, widen, quadratized):
    # A_y|0> simulated gate by gate puts 2^-n on every key, whatever the
    # register width, the objective's degree or where y lies: the
    # distribution an L = 0 draw reads
    if quadratized:
        p = quadratize(p, 1.0).poly
        assume(p.n_vars <= 7)
    sampler = StateVectorSampler(p, coefficient_width(p) + widen)
    m = max(sampler.base_m, coefficient_width(p, y))
    state = apply(build_state_prep(p, y, m), zero_state(p.n_vars + m))
    uniform = np.arange(1, (1 << p.n_vars) + 1) / (1 << p.n_vars)
    assert np.max(np.abs(key_cdf(state, m) - uniform)) <= 1e-12


@given(search_polynomials(max_vars=5, bound=8.0), st.floats(-40.0, 40.0, allow_nan=False),
       st.none() | st.integers(0, 3), st.integers(1, 4))
@settings(deadline=None, max_examples=40)
def test_sampler_grover_plan_matches_gate_by_gate_reference(p, y, widen, l_ops):
    # the sampler's plan for G is the only path that runs ``reflect``
    sampler = StateVectorSampler(p, None if widen is None else coefficient_width(p) + widen)
    sampler.sample(y, 1, np.random.default_rng(0))
    grover = build_grover(sampler.prep)
    got = want = sampler.prepared
    for _ in range(l_ops):
        got = apply(sampler.grover, got)
        want = apply_gate_by_gate(grover, want)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_applying_a_circuit_twice_is_bit_identical(hubo_asc):
    prep, grover = _bundled_grover(hubo_asc)
    state = apply(prep, zero_state(prep.n_qubits))
    before = state.copy()
    first = apply(grover, state)
    second = apply(grover, state)
    assert np.array_equal(first, second)
    assert np.array_equal(state, before)


def test_the_plan_leaves_equality_hash_and_repr_alone():
    gates = (GateSpec("h", target=0), GateSpec("r", target=1, theta=0.7), GateSpec("iqft"))
    applied, fresh = CircuitSpec(1, 1, gates), CircuitSpec(1, 1, gates)
    apply(applied, zero_state(2))
    assert applied.plan is not None and fresh.plan is None
    assert applied == fresh and hash(applied) == hash(fresh)
    assert repr(applied) == repr(fresh) == f"CircuitSpec(n_key=1, m_val=1, ops={gates!r})"


@pytest.mark.parametrize("y", [0.0, 1.3, 2.5, 5.0])
def test_grover_operator_matches_reference_on_bundled_objective(hubo_asc, y):
    # the register width solve uses: 8 key + 5 value qubits, 700 gates per G
    p = hubo_asc.objective
    m = formulation_width(hubo_asc)
    prep = build_state_prep(p, y, m)
    grover = build_grover(prep)
    state = apply(prep, zero_state(prep.n_qubits))
    want = apply_gate_by_gate(prep, zero_state(prep.n_qubits))
    for _ in range(3):
        assert np.max(np.abs(state - want)) <= 1e-12
        state = apply(grover, state)
        want = apply_gate_by_gate(grover, want)
    assert np.max(np.abs(state - want)) <= 1e-12


def test_norm_preserved_gate_by_gate():
    rng = np.random.default_rng(0)
    p = BinaryPolynomial(3, {(): 1.0, (0, 2): -2.5, (1,): 0.3})
    c = build_state_prep(p, 0.1, m=4)
    sv = zero_state(c.n_qubits)
    for g in c.gates:
        sv = apply(CircuitSpec(c.n_key, c.m_val, (g,)), sv)
        assert np.linalg.norm(sv) == pytest.approx(1.0, abs=1e-9)


def test_state_prep_keys_stay_uniform_with_exact_values():
    p = BinaryPolynomial(4, {(): 3.0, (0,): -2.0, (1, 3): 1.0})
    y = 1
    m = value_register_width(p.add(BinaryPolynomial.constant(float(-y), p.n_vars)))
    c = build_state_prep(p, y, m)
    sv = apply(c, zero_state(c.n_qubits))
    probs = (np.abs(sv) ** 2).reshape(1 << 4, 1 << m)
    for key in range(1 << 4):
        value = int(round(p.evaluate(int_to_bits(key, 4)) - y)) % (1 << m)
        assert probs[key, value] == pytest.approx(1 / 16, abs=1e-12)


def test_sampling_is_seed_deterministic():
    p = BinaryPolynomial(3, {(0,): 1.0, (1, 2): -2.0})
    c = build_state_prep(p, 0.0, m=3)
    sv = apply(c, zero_state(c.n_qubits))
    a = [sample(key_cdf(sv), np.random.default_rng(9)) for _ in range(5)]
    b = [sample(key_cdf(sv), np.random.default_rng(9)) for _ in range(5)]
    assert a == b


def test_sample_of_deterministic_state():
    assert sample(key_cdf(zero_state(4)), np.random.default_rng(0)) == 0
    amps = np.zeros(16, dtype=np.complex128)
    amps[0b1011] = 1j
    assert sample(key_cdf(amps), np.random.default_rng(0)) == 0b1011


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0))
@settings(deadline=None, max_examples=200)
def test_sample_draws_what_rng_choice_draws(n, state_seed, seed, sparsity):
    # the same index as ``rng.choice`` over the normalised probabilities, and
    # the generator left in the same place
    rng = np.random.default_rng(state_seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < sparsity] = 0.0
    amps[rng.integers(1 << n)] += 1.0  # never the zero vector
    sv = amps / np.linalg.norm(amps)
    probs = np.abs(sv) ** 2
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample(key_cdf(sv), got_rng) == int(want_rng.choice(probs.size, p=probs / probs.sum()))
    assert got_rng.random() == want_rng.random()


@given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(deadline=None, max_examples=200)
def test_key_cdf_row_ends_draw_the_key(n, m, state_seed, seed, sparsity):
    # the draw from row ends is the key of the draw from every amplitude,
    # from the same uniform; zero rows make flat stretches of the cdf
    rng = np.random.default_rng(state_seed)
    size = 1 << (n + m)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps[rng.random(size) < sparsity] = 0.0
    amps[rng.integers(size)] += 1.0
    sv = amps / np.linalg.norm(amps)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample(key_cdf(sv, m), got_rng) == sample(key_cdf(sv), want_rng) >> m
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sampled_key_frequencies_roughly_uniform():
    p = BinaryPolynomial(3, {(0, 1): 1.0})
    c = build_state_prep(p, 0.0, m=2)
    sv = apply(c, zero_state(c.n_qubits))
    rng = np.random.default_rng(123)
    cdf = key_cdf(sv, 2)  # keys above a 2-qubit value register
    counts = np.zeros(8)
    draws = 10_000
    for _ in range(draws):
        counts[sample(cdf, rng)] += 1
    # five-sigma band around the uniform expectation
    expect = draws / 8
    sigma = math.sqrt(draws * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


# -- amplification --------------------------------------------------------


def test_amplified_probability_edges():
    assert amplified_probability(0, 16, 5) == 0.0
    assert amplified_probability(16, 16, 3) == pytest.approx(1.0)
    assert amplified_probability(1, 256, 0) == pytest.approx(1 / 256)


def test_amplified_probability_reference_point():
    # a single mark in 256 states after 12 amplification rounds
    want = math.sin(25 * math.asin(1 / 16)) ** 2
    assert amplified_probability(1, 256, 12) == pytest.approx(want)
    assert want > 0.999


def test_statevector_matches_amplification_formula():
    rng = np.random.default_rng(21)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        terms = {(): float(rng.integers(-2, 3))}
        for _ in range(4):
            deg = int(rng.integers(1, 3))
            sup = tuple(sorted(rng.choice(n, size=deg, replace=False)))
            terms[sup] = float(rng.integers(-3, 4))
        p = BinaryPolynomial(n, terms)
        values = p.evaluate_all()
        y = float(rng.integers(int(values.min()), int(values.max()) + 1))
        m = value_register_width(p.add(BinaryPolynomial.constant(float(-y), p.n_vars)))
        t = int((values < y).sum())
        marked = np.where(values < y)[0]
        prep = build_state_prep(p, y, m)
        state = apply(prep, zero_state(n + m))
        grover = build_grover(prep)
        for l_ops in range(4):
            got = marked_probability(state, marked, m)
            assert got == pytest.approx(amplified_probability(t, 1 << n, l_ops), abs=1e-6)
            state = apply(grover, state)


def test_optimal_rotation_count_succeeds_whp():
    # one marked state among N: L = round(pi / (4 asin(sqrt(1/N))) - 1/2)
    # rotations push the success probability above 1 - 1/N
    for n in (3, 4, 5):
        p = BinaryPolynomial(n, {tuple(range(n)): -1.0})
        y, m = 0, 2
        n_states = 1 << n
        theta = math.asin(math.sqrt(1 / n_states))
        l_opt = round(math.pi / (4 * theta) - 0.5)
        prep = build_state_prep(p, y, m)
        state = apply(prep, zero_state(n + m))
        grover = build_grover(prep)
        for _ in range(l_opt):
            state = apply(grover, state)
        success = marked_probability(state, np.array([n_states - 1]), m)
        assert success >= 1 - 1 / n_states
        assert success == pytest.approx(amplified_probability(1, n_states, l_opt))


def test_grover_with_no_marked_states_keeps_uniform_keys():
    p = BinaryPolynomial(3, {(): 1.0})  # constant 1, nothing below y = 0
    m = 2
    prep = build_state_prep(p, 0.0, m)
    state = apply(build_grover(prep), apply(prep, zero_state(3 + m)))
    key_probs = (np.abs(state) ** 2).reshape(8, 1 << m).sum(axis=1)
    assert np.allclose(key_probs, 1 / 8)


# -- ideal backend --------------------------------------------------------


def test_ideal_sampler_zero_marked_is_uniform():
    p = BinaryPolynomial(3, {(): 1.0})
    sampler = IdealSampler(p)
    rng = np.random.default_rng(5)
    draws = [sampler.sample(0.0, 7, rng) for _ in range(4000)]
    counts = np.bincount(draws, minlength=8)
    sigma = math.sqrt(4000 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - 500) < 5 * sigma)


def test_ideal_sampler_matches_statevector_distribution():
    p = BinaryPolynomial(4, {(): 2.0, (0,): -3.0, (2, 3): 1.0, (1,): -1.0})
    y = 0
    values = p.evaluate_all()
    marked = set(np.where(values < y)[0].tolist())
    t, n_states = len(marked), 16
    sampler = IdealSampler(p)
    rng = np.random.default_rng(31)
    l_ops = 2
    want = amplified_probability(t, n_states, l_ops)
    draws = 20_000
    hits = sum(
        1 for _ in range(draws)
        if sampler.sample(y, l_ops, rng) in marked
    )
    sigma = math.sqrt(draws * want * (1 - want))
    assert abs(hits - draws * want) < 5 * sigma


def test_ideal_sampler_marked_draws_are_marked():
    # one mark in four states: a single round amplifies to certainty
    p = BinaryPolynomial(2, {(0, 1): -1.0})
    sampler = IdealSampler(p)
    assert sampler.marked_count(-0.5) == 1
    assert amplified_probability(1, 4, 1) == pytest.approx(1.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        assert sampler.sample(-0.5, 1, rng) == bits_to_int((1, 1))


def test_ideal_sampler_single_draw():
    p = BinaryPolynomial(2, {(0,): 1.0, (1,): 1.0})
    key = IdealSampler(p).sample(0.5, 0, np.random.default_rng(2))
    assert isinstance(key, int) and 0 <= key < 4


@st.composite
def tied_polynomials(draw):
    """Small-integer coefficients, so many keys share a value, and now and
    then +-1e308, whose sums overflow to +-inf, or a coefficient that has
    overflowed already, +-inf, which against the other infinity gives NaN."""
    n = draw(st.integers(0, 12))
    coeff = st.one_of(st.integers(-3, 3).map(float),
                      st.sampled_from([1e308, -1e308, math.inf, -math.inf]))
    support = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 3)).map(tuple) if n else st.just(())
    return BinaryPolynomial(n, draw(st.dictionaries(support, coeff, max_size=12)))


@given(tied_polynomials())
@example(BinaryPolynomial(3, {(0,): 1e308, (1,): 1e308, (2,): -1e308}))
@example(BinaryPolynomial(4, {(0,): math.inf, (1,): -1.0, (2,): -math.inf, (3,): 1.0}))
@example(BinaryPolynomial(0, {}))
@example(BinaryPolynomial(12, {(0,): math.inf, (5,): -math.inf, (7,): 1e308, (11,): 1e308, (3, 4): 1.0}))
@settings(deadline=None, max_examples=150)
def test_ideal_sampler_sorts_its_table(p):
    # which key of a tie group comes first is argsort's choice; the sorted
    # values are not
    with np.errstate(over="ignore", invalid="ignore"):  # the 1e308 sums
        sampler = IdealSampler(p)
    assert np.array_equal(np.sort(sampler.order), np.arange(1 << p.n_vars))
    # bit for bit, so NaN, -0.0 and 0.0 each sit where the gather puts them
    assert np.array_equal(sampler.values[sampler.order].view(np.int64),
                          sampler.sorted_values.view(np.int64))
    # np.sort puts NaN last, as searchsorted needs; it writes a NaN of its
    # own, and 0.0 ties -0.0, so the values are compared rather than bits
    assert np.array_equal(sampler.sorted_values, np.sort(sampler.values), equal_nan=True)


def test_ideal_sampler_draws_as_the_parent_sampler_at_every_marked_count():
    # superincreasing weights, so the 16 values are distinct and y can mark
    # any count t from 0 to 16; each threshold is drawn at twice, with a
    # return to an earlier one in between
    p = BinaryPolynomial(4, {(0,): 1.0, (1,): -2.0, (2,): 4.5, (3,): -9.25})
    got, want = IdealSampler(p), ParentIdealSampler(p)
    thresholds = [*want.sorted_values.tolist(), math.inf]
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    for t, y in enumerate(thresholds):
        assert got.marked_count(y) == t
        for y_at in (y, thresholds[t // 2], y):
            for l_ops in range(21):
                assert got.sample(y_at, l_ops, got_rng) == want.sample(y_at, l_ops, want_rng)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_ideal_sampler_cap():
    with pytest.raises(ValueError):
        IdealSampler(BinaryPolynomial.zero(25))


def test_every_size_cap_raises_the_budget_error_type():
    big = BinaryPolynomial.zero(25)
    calls = (big.evaluate_all, big.exhaustive_min,
             lambda: IdealSampler(big),
             # the cap is checked before the amplitudes are touched
             lambda: apply(CircuitSpec(25, 0, ()), np.zeros(1)))
    for call in calls:
        with pytest.raises(CapExceededError) as info:
            call()
        assert isinstance(info.value, BudgetExceededError)
        assert isinstance(info.value, ValueError)


def test_statevector_threshold_past_the_cap_fails_at_its_first_amplified_draw():
    # 3 key + 21 value qubits at the base width fit the cap, but the top
    # value as threshold needs 22: the sampler is built and an L = 0 draw
    # there simulates nothing, so only a Grover draw at it exceeds the cap,
    # before any state or row is allocated
    p = BinaryPolynomial(3, {(i,): 2.0 ** 19 for i in range(3)})
    sampler, top = StateVectorSampler(p), 3 * 2.0 ** 19
    assert p.n_vars + sampler.base_m == 24 and coefficient_width(p, top) == 22
    assert 0 <= sampler.sample(top, 0, np.random.default_rng(0)) < 8
    with pytest.raises(CapExceededError, match="^25 qubits above the simulation cap of 24$"):
        sampler.sample(top, 1, np.random.default_rng(0))
    with pytest.raises(CapExceededError, match="^25 qubits"):
        StateVectorSampler(p, 22)


def _peak_sampler():
    """A sampler on 12 key and 4 value qubits, a threshold inside its range
    and a generator."""
    rng = np.random.default_rng(1)
    n = 12
    terms = {(i,): float(rng.integers(-6, 7)) for i in range(n)}
    terms.update({(i, i + 1): float(rng.integers(-6, 7)) for i in range(n - 1)})
    sampler = StateVectorSampler(BinaryPolynomial(n, terms))
    return sampler, float(np.median(sampler.values)) + 0.5, rng


def test_statevector_draw_peak_memory():
    # peaks in arrays of 2^N amplitudes.  Writing psi = A_y|0> holds the
    # state and one row per distinct value (np.take's default mode would
    # buffer a second state, 2.13); a Grover draw holds psi and the
    # state being advanced, and apply's copy while it runs or the draw's
    # half-size probabilities after: the reflection takes a block at a time.
    # A threshold change drops the last psi, G and frontier before it writes
    # the next psi (holding them would make that write 3.1)
    sampler, y, rng = _peak_sampler()
    n, psi_of = sampler.n_vars, sampler._psi
    peaks, widths, writes = [], [], []

    def spy(at, m):
        # the peak from here on counts every array still held, as all were
        # allocated while tracing
        tracemalloc.reset_peak()
        psi = psi_of(at, m)
        writes.append(tracemalloc.get_traced_memory()[1] / (16 << 16))
        return psi

    sampler._psi = spy
    tracemalloc.start()
    try:
        # the first Grover draw; a later one; a new threshold
        for at, l_ops in ((y, 2), (y, 3), (y - 1.0, 2)):
            tracemalloc.reset_peak()
            sampler.sample(at, l_ops, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
            widths.append(n + sampler.prep.m_val)
    finally:
        tracemalloc.stop()
    assert widths == [16] * 3
    first, later, moved = (peak / (16 << 16) for peak in peaks)
    assert len(writes) == 2 and max(writes) < 1.25, writes
    assert first < 3.5 and later < 3.5 and moved < 3.5, (first, later, moved)


def test_psi_peak_memory_with_every_value_distinct():
    # the rows then take a state's bytes: writing psi holds them and the FFT's
    # output, then that output and the state, never all three
    p = BinaryPolynomial(12, {(i,): 2.0 ** (i - 8) for i in range(12)})
    sampler = StateVectorSampler(p)
    m = max(sampler.base_m, coefficient_width(p, 1.0))
    assert sampler.distinct.size == 1 << 12
    tracemalloc.start()
    try:
        sampler._psi(1.0, m)
        peak = tracemalloc.get_traced_memory()[1] / (16 << (12 + m))
    finally:
        tracemalloc.stop()
    assert peak < 2.25, peak


def test_uniform_draw_simulates_nothing(monkeypatch):
    # an L = 0 draw, at a new threshold or the one the sampler holds, reads
    # the uniform key distribution: no circuit, no state, no memo entry
    sampler, y, rng = _peak_sampler()
    sampler.sample(y, 2, rng)
    prepared, front, cdfs = sampler.prepared, sampler.front, dict(sampler.cdfs)
    for name in ("build_state_prep", "build_grover", "apply"):
        monkeypatch.setattr(simulator, name, lambda *a, name=name: pytest.fail(name))
    tracemalloc.start()
    try:
        for at in (y - 1.0, y, y + 1.0):
            sampler.sample(at, 0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 12, peak  # a state would take 1 MB
    assert sampler.at_y == y and sampler.prepared is prepared and sampler.front is front
    assert list(sampler.cdfs) == list(cdfs)
    assert all(sampler.cdfs[d] is cdf for d, cdf in cdfs.items())
    # the key is floor(u 2^n) of the generator's next uniform
    copy = np.random.default_rng()
    copy.bit_generator.state = rng.bit_generator.state
    assert sampler.sample(y, 0, rng) == int(copy.random() * (1 << sampler.n_vars))


def test_statevector_frontier_draw_peak_memory():
    # a draw past the frontier releases it before advancing, and a draw short
    # of it starts again from psi: each holds psi, the state being advanced
    # and apply's copy, never the old frontier besides
    sampler, y, rng = _peak_sampler()
    peaks = []
    tracemalloc.start()
    try:
        sampler.sample(y, 2, rng)  # psi and the frontier, traced
        for l_ops in (5, 3):
            tracemalloc.reset_peak()
            sampler.sample(y, l_ops, rng)
            peaks.append(tracemalloc.get_traced_memory()[1] / (16 << 16))
    finally:
        tracemalloc.stop()
    assert sampler.front_l == 3
    assert max(peaks) < 3.5, peaks


@pytest.mark.parametrize("n_key,m_val", [(12, 4), (8, 8), (4, 12), (15, 1), (0, 16)])
def test_oracle_negates_the_sign_half_with_the_same_bits(n_key, m_val):
    # the oracle z on the sign bit, a block of rows at a time, against one
    # strided pass; zeros of both signs keep the sign the pass gives them
    rng = np.random.default_rng(n_key)
    amps = rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16)
    amps[rng.random(amps.size) < 0.1] = 0.0
    amps.real[rng.random(amps.size) < 0.1] = -0.0
    sv = amps / np.linalg.norm(amps)
    got = apply(CircuitSpec(n_key, m_val, (GateSpec("z", n_key),)), sv)
    want = sv.copy()
    want.reshape(1 << n_key, 2, -1)[:, 1, :] *= -1.0
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_oracle_step_peak_memory():
    # apply's copy of the state and at most a block's buffer of the strided
    # half; one pass over every row buffered a quarter of an array
    rng = np.random.default_rng(2)
    amps = rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16)
    sv = amps / np.linalg.norm(amps)
    oracle = CircuitSpec(12, 4, (GateSpec("z", 12),))
    apply(oracle, sv)  # compiles the plan
    tracemalloc.start()
    try:
        apply(oracle, sv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 << 16) < 1.15, peak / (16 << 16)


def test_draw_peak_memory_is_half_an_array():
    # one draw holds one float array of 2^N: |a|^2 and its cumulative sums
    # are written in place
    rng = np.random.default_rng(3)
    amps = rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16)
    sv = amps / np.linalg.norm(amps)
    tracemalloc.start()
    try:
        sample(key_cdf(sv), rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 << 16) < 0.55, peak / (16 << 16)
