import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    BudgetExceededError,
    CapExceededError,
    IdealSampler,
    SampleOutcome,
    StateVector,
    amplified_probability,
    apply,
    build_grover,
    build_state_prep,
    marked_probability,
    prepare,
    sample,
    value_register_width,
)
from gascap import simulator
from gascap.circuits import CircuitSpec, GateSpec, formulation_width
from gascap.poly import bits_to_int, int_to_bits


def test_hadamard_on_zero():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0),))
    sv = apply(c, StateVector.zero(1))
    assert np.allclose(sv.amplitudes, [1 / math.sqrt(2)] * 2)


def test_z_flips_phase_of_one():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0), GateSpec("z", target=0)))
    sv = apply(c, StateVector.zero(1))
    assert np.allclose(sv.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_apply_rejects_mismatch_and_cap():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0),))
    with pytest.raises(ValueError):
        apply(c, StateVector.zero(2))
    big = CircuitSpec(25, 0, ())
    with pytest.raises(ValueError):
        # the cap is checked before the amplitudes are read
        apply(big, StateVector(25, np.zeros(1)))


def test_zero_state_checks_the_cap_before_allocating():
    # 2^80 amplitudes are past addressable memory, so no width here allocates
    with pytest.raises(CapExceededError, match="^80 qubits above the simulation cap of 24$"):
        StateVector.zero(80)
    assert StateVector.zero(2).amplitudes.tolist() == [1, 0, 0, 0]


def test_norm_drift_is_a_value_error():
    c = CircuitSpec(1, 0, (GateSpec("h", target=0),))
    with pytest.raises(ValueError, match="norm drifted"):
        apply(c, StateVector(1, np.array([1, 1], complex)))


# -- gate-by-gate reference ---------------------------------------------------
# Every gate on its own: each phase gate through a full-array mask, the
# (inverse) QFT as a dense matrix.  ``apply`` must match it.


def _iqft_matrix(m: int, inverse: bool) -> np.ndarray:
    size = 1 << m
    grid = np.outer(np.arange(size), np.arange(size))
    sign = -1.0 if inverse else 1.0
    return np.exp(sign * 2j * np.pi * grid / size) / math.sqrt(size)


def apply_gate_by_gate(c: CircuitSpec, s: StateVector) -> np.ndarray:
    n_total, m = c.n_qubits, c.m_val
    amps = s.amplitudes.astype(np.complex128)
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
    """Random circuits plus the patterns ``apply`` compiles specially: gates
    X, a ``diffusion``, then X^dagger exactly or with one gate's angle,
    control or kind changed (where the mirror must end); mirrors with other
    gates in the middle; full Hadamard layers in random qubit order; and
    layer-diffusion-layer sandwiches, some with a flawed layer."""
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
    state = StateVector(n_total, amps / np.linalg.norm(amps))
    return CircuitSpec(n_total - m, m, tuple(gates)), state


@given(circuits())
@settings(deadline=None)
def test_apply_matches_gate_by_gate_reference(case):
    c, state = case
    got = apply(c, state).amplitudes
    assert np.max(np.abs(got - apply_gate_by_gate(c, state))) <= 1e-12


@given(circuits(), st.sampled_from([None, "full", "missing", "repeat"]), st.data())
@settings(deadline=None)
def test_prepare_matches_gate_by_gate_reference(case, opening, data):
    c, _ = case
    if opening is not None:
        # a full opening layer is written as the uniform state, a flawed one is not
        layer = h_layer(data.draw, c.n_qubits, None if opening == "full" else opening)
        c = CircuitSpec(c.n_key, c.m_val, tuple(layer) + c.gates)
    got = prepare(c).amplitudes
    want = apply_gate_by_gate(c, StateVector.zero(c.n_qubits))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_prepare_writes_the_bits_of_the_hadamard_passes():
    # (1/sqrt 2)^n rounded once differs from n rounded passes from n = 6 on
    for n in range(1, 15):
        c = CircuitSpec(n - 1, 1, tuple(GateSpec("h", target=q) for q in reversed(range(n))))
        assert np.array_equal(prepare(c).amplitudes, apply(c, StateVector.zero(n)).amplitudes)


def test_apply_leaves_its_input_unchanged():
    c = CircuitSpec(1, 1, (GateSpec("h", target=0), GateSpec("r", target=1, theta=0.7),
                           GateSpec("z", target=0), GateSpec("iqft")))
    state = StateVector(2, np.full(4, 0.5, dtype=complex))
    apply(c, state)
    assert np.array_equal(state.amplitudes, np.full(4, 0.5))


# -- the compiled plan ----------------------------------------------------------


def _bundled_grover(hubo_asc, table, y=1.3):
    m = formulation_width(hubo_asc, d_sum=table.d_sum)
    prep = build_state_prep(hubo_asc.objective, y, m)
    return prep, build_grover(prep)


def test_grover_computes_one_diagonal_however_often_applied(hubo_asc, table, monkeypatch):
    prep, grover = _bundled_grover(hubo_asc, table)
    state = prepare(prep)
    diagonals = []
    kernel = simulator._phase_diagonal

    def spy(gates, n_qubits):
        diagonals.append(n_qubits)
        return kernel(gates, n_qubits)

    monkeypatch.setattr(simulator, "_phase_diagonal", spy)
    for _ in range(5):
        state = apply(grover, state)
    # O, then A_y D A_y^dagger as the reflection about A_y|0>, whose one
    # phase run is computed once, when G is compiled
    assert diagonals == [grover.n_qubits]
    assert [op for op, _ in grover.plan] == ["z", "reflect"]
    assert np.array_equal(grover.plan[1][1], prepare(prep).amplitudes)


def test_applying_a_circuit_twice_is_bit_identical(hubo_asc, table):
    prep, grover = _bundled_grover(hubo_asc, table)
    state = apply(prep, StateVector.zero(prep.n_qubits))
    before = state.amplitudes.copy()
    first = apply(grover, state).amplitudes
    second = apply(grover, state).amplitudes
    assert np.array_equal(first, second)
    assert np.array_equal(state.amplitudes, before)


def test_the_plan_leaves_equality_hash_and_repr_alone():
    gates = (GateSpec("h", target=0), GateSpec("r", target=1, theta=0.7), GateSpec("iqft"))
    applied, fresh = CircuitSpec(1, 1, gates), CircuitSpec(1, 1, gates)
    apply(applied, StateVector.zero(2))
    assert applied.plan is not None and fresh.plan is None
    assert applied == fresh and hash(applied) == hash(fresh)
    assert repr(applied) == repr(fresh) == f"CircuitSpec(n_key=1, m_val=1, gates={gates!r})"


def _plan_ops(gates, n_key=1, m_val=2):
    c = CircuitSpec(n_key, m_val, tuple(gates))
    apply(c, StateVector.zero(c.n_qubits))
    return [op for op, _ in c.plan]


def test_only_full_hadamard_layers_around_diffusion_fuse():
    layer = [GateSpec("h", target=q) for q in (2, 0, 1)]
    diffusion = GateSpec("diffusion")
    assert _plan_ops(layer + [diffusion] + layer[::-1]) == ["reflect"]
    assert _plan_ops(layer[1:] + [diffusion] + layer) == ["h", "h", "diffusion", "h", "h", "h"]
    doubled = layer + [GateSpec("h", target=0)]
    assert "reflect" not in _plan_ops(doubled + [diffusion] + layer)
    repeated = [GateSpec("h", target=q) for q in (2, 0, 0)]
    assert "reflect" not in _plan_ops(layer + [diffusion] + repeated)


def test_only_exact_mirrors_around_diffusion_reflect():
    run = [GateSpec("cr", target=2, controls=(0,), theta=0.3), GateSpec("r", target=1, theta=-1.1)]
    x = [GateSpec("h", target=0), GateSpec("qft"), *run]
    inverse = [g.inverse() for g in reversed(x)]
    diffusion = GateSpec("diffusion")
    assert _plan_ops(inverse + [diffusion] + x) == ["reflect"]
    # the mirror ends where the gates stop inverting each other
    assert _plan_ops([GateSpec("z", target=0)] + inverse + [diffusion] + x) == ["z", "reflect"]
    assert _plan_ops(inverse + [diffusion] + x[:-1]) == ["phase", "reflect"]
    # the same gates around something other than a diffusion
    assert "reflect" not in _plan_ops(inverse + [GateSpec("z", target=1)] + x)
    # one gate of X^dagger changed, from the outermost in: only the gates
    # inside it still mirror, and with the innermost changed none do
    near = [
        GateSpec("r", target=1, theta=1.2),                    # angle
        GateSpec("cr", target=2, controls=(1,), theta=-0.3),   # control
        GateSpec("qft"),                                       # kind: qft for iqft
        GateSpec("z", target=0),                               # kind: z for h
    ]
    rng = np.random.default_rng(4)
    for at, gate in enumerate(near):
        c = CircuitSpec(1, 2, tuple(inverse[:at] + [gate] + inverse[at + 1:] + [diffusion] + x))
        apply(c, StateVector.zero(3))
        psi = [arg for op, arg in c.plan if op == "reflect"]
        k = len(x) - 1 - at
        assert len(psi) == (1 if k else 0), gate
        if k:
            assert np.array_equal(psi[0], prepare(CircuitSpec(1, 2, tuple(x[:k]))).amplitudes)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        assert np.max(np.abs(apply(c, state).amplitudes - apply_gate_by_gate(c, state))) <= 1e-12


@pytest.mark.parametrize("y", [0.0, 1.3, 2.5, 5.0])
def test_grover_operator_matches_reference_on_bundled_objective(hubo_asc, table, y):
    # the register width solve uses: 8 key + 5 value qubits, 700 gates per G
    p = hubo_asc.objective
    m = formulation_width(hubo_asc, d_sum=table.d_sum)
    prep = build_state_prep(p, y, m)
    grover = build_grover(prep)
    state = apply(prep, StateVector.zero(prep.n_qubits))
    want = StateVector(prep.n_qubits, apply_gate_by_gate(prep, StateVector.zero(prep.n_qubits)))
    for _ in range(3):
        assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-12
        state = apply(grover, state)
        want = StateVector(want.n_qubits, apply_gate_by_gate(grover, want))
    assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-12


def test_norm_preserved_gate_by_gate():
    rng = np.random.default_rng(0)
    p = BinaryPolynomial(3, {(): 1.0, (0, 2): -2.5, (1,): 0.3})
    c = build_state_prep(p, 0.1, m=4)
    sv = StateVector.zero(c.n_qubits)
    for g in c.gates:
        sv = apply(CircuitSpec(c.n_key, c.m_val, (g,)), sv)
        assert sv.norm() == pytest.approx(1.0, abs=1e-9)


def test_state_prep_keys_stay_uniform_with_exact_values():
    p = BinaryPolynomial(4, {(): 3.0, (0,): -2.0, (1, 3): 1.0})
    y = 1
    m = value_register_width(p + (-y))
    c = build_state_prep(p, y, m)
    sv = apply(c, StateVector.zero(c.n_qubits))
    probs = sv.probabilities().reshape(1 << 4, 1 << m)
    for key in range(1 << 4):
        value = int(round(p.evaluate(int_to_bits(key, 4)) - y)) % (1 << m)
        assert probs[key, value] == pytest.approx(1 / 16, abs=1e-12)


def test_two_complement_readout():
    out = SampleOutcome.from_index(0b101_1101, n_key=3, m_val=4)
    assert out.key_bits == (1, 0, 1)
    assert out.value_bits == (1, 1, 0, 1)
    assert out.decoded_value == 0b1101 - 16


def test_sampling_is_seed_deterministic():
    p = BinaryPolynomial(3, {(0,): 1.0, (1, 2): -2.0})
    c = build_state_prep(p, 0.0, m=3)
    sv = apply(c, StateVector.zero(c.n_qubits))
    a = [sample(sv, np.random.default_rng(9), 3, 3) for _ in range(5)]
    b = [sample(sv, np.random.default_rng(9), 3, 3) for _ in range(5)]
    assert a == b


def test_sample_of_deterministic_state():
    sv = StateVector.zero(4)  # |0000> split as 2 key + 2 value
    out = sample(sv, np.random.default_rng(0), 2, 2)
    assert out.key_bits == (0, 0) and out.value_bits == (0, 0)


def test_sampled_key_frequencies_roughly_uniform():
    p = BinaryPolynomial(3, {(0, 1): 1.0})
    c = build_state_prep(p, 0.0, m=2)
    sv = apply(c, StateVector.zero(c.n_qubits))
    rng = np.random.default_rng(123)
    counts = np.zeros(8)
    draws = 10_000
    for _ in range(draws):
        counts[bits_to_int(sample(sv, rng, 3, 2).key_bits)] += 1
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
        m = value_register_width(p + (-y))
        t = int((values < y).sum())
        marked = np.where(values < y)[0]
        prep = build_state_prep(p, y, m)
        state = apply(prep, StateVector.zero(n + m))
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
        state = apply(prep, StateVector.zero(n + m))
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
    state = apply(build_grover(prep), apply(prep, StateVector.zero(3 + m)))
    key_probs = state.probabilities().reshape(8, 1 << m).sum(axis=1)
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


def test_ideal_sampler_cap():
    with pytest.raises(ValueError):
        IdealSampler(BinaryPolynomial.zero(25))


def test_every_size_cap_raises_the_budget_error_type():
    big = BinaryPolynomial.zero(25)
    calls = (big.evaluate_all, big.exhaustive_min, big.exhaustive_max,
             lambda: IdealSampler(big),
             # the cap is checked before the amplitudes are touched
             lambda: apply(CircuitSpec(25, 0, ()), StateVector(25, np.zeros(1))))
    for call in calls:
        with pytest.raises(CapExceededError) as info:
            call()
        assert isinstance(info.value, BudgetExceededError)
        assert isinstance(info.value, ValueError)
