"""Phase layers: A_y keeps its rotations as one ``PhaseLayer`` of the
polynomial and the threshold, and every consumer (``gates``,
``enumerate_resources``, ``build_grover``, the simulator's phase kernel) must
agree with the circuit built one ``GateSpec`` per rotation."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    CircuitSpec,
    GateSpec,
    PhaseLayer,
    apply,
    build_grover,
    build_state_prep,
    coefficient_width,
    enumerate_resources,
    formulation_resources,
)
from gascap import circuits, simulator
from test_gas import search_polynomials
from test_simulator import apply_gate_by_gate


def eager_state_prep(p: BinaryPolynomial, y: float, m: int) -> tuple[GateSpec, ...]:
    """A_y as one ``GateSpec`` per rotation, the way it was built before
    phase layers: the reference for ``build_state_prep(p, y, m).gates``."""
    n = p.n_vars
    limit = 2.0 ** (m - 1)
    const = p.constant_term - y
    for label, coeff in [("constant-y", const)] + [
        (str(s), c) for s, c in p.terms.items() if s
    ]:
        if not -limit <= coeff < limit:
            raise ValueError(
                f"coefficient {coeff} ({label}) outside [-2^{m - 1}, 2^{m - 1}) for m={m}"
            )

    gates: list[GateSpec] = []
    for q in range(n + m):
        gates.append(GateSpec("h", target=q))

    def phase_block(coeff: float, controls: tuple[int, ...]):
        theta = 2.0 * math.pi * coeff / (2.0 ** m)
        kind = "cr" if controls else "r"
        for j in range(m):
            angle = (2.0 ** (m - 1 - j)) * theta
            gates.append(GateSpec(kind, n + j, controls, angle))

    if const != 0.0:
        phase_block(const, ())
    for support, coeff in p.sorted_terms():
        if support:
            phase_block(coeff, tuple(support))

    gates.append(GateSpec("iqft"))
    return tuple(gates)


def phase_by_gate(gates, n_qubits: int) -> np.ndarray:
    """exp(i * phase) of a run of ``r``/``cr`` gates, each angle added on its
    own in gate order, then the subset-sum pass over the 2^N cube."""
    weight = [1 << (n_qubits - 1 - q) for q in range(n_qubits)]
    phase = np.zeros(1 << n_qubits)
    for g in gates:
        mask = weight[g.target]
        for q in g.controls:
            mask |= weight[q]
        phase[mask] += g.theta
    cube = phase.reshape((2,) * n_qubits)
    for q in range(n_qubits):
        cube[(slice(None),) * q + (1,)] += cube[(slice(None),) * q + (0,)]
    return np.exp(1j * phase)


@st.composite
def state_preps(draw, max_vars=8, bound=1e3, widen=4):
    """(p, y, m) with non-integer coefficients and m from one below the
    coefficient width (which the range check rejects) to ``widen`` above."""
    p = draw(search_polynomials(max_vars=max_vars, bound=bound))
    y = draw(st.floats(-2 * bound, 2 * bound, allow_nan=False))
    width = coefficient_width(p, y)
    return p, y, draw(st.integers(max(1, width - 1), width + widen))


# a constant-only polynomial at its own threshold: a layer with no term
TERMLESS = (BinaryPolynomial(2, {(): 3.0}), 3.0, 2)


@given(state_preps())
@example(TERMLESS)
@settings(deadline=None, max_examples=150)
def test_state_prep_gates_equal_the_eager_builder(case):
    p, y, m = case
    try:
        want = eager_state_prep(p, y, m)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            build_state_prep(p, y, m)
        return
    c = build_state_prep(p, y, m)
    # repr shows every float exactly, so equal reprs mean equal bits
    assert c.gates == want and repr(c.gates) == repr(want)
    # n + m Hadamards, the layer (also when it has no term) and the IQFT
    assert len(c.ops) == p.n_vars + m + 2


@given(state_preps())
@settings(deadline=None, max_examples=150)
def test_resources_equal_a_histogram_over_the_gates(case):
    p, y, m = case
    try:
        c = build_state_prep(p, y, m)
    except ValueError:
        return
    report = enumerate_resources(c)
    kinds = Counter(g.kind for g in c.gates)
    arity = Counter(len(g.controls) for g in c.gates if g.kind == "cr")
    assert (report.h_count, report.r_count, report.iqft_count) == (kinds["h"], kinds["r"], 1)
    assert report.cr_counts == dict(arity)
    assert list(report.cr_counts) == list(arity)  # first-seen order, as the gate walk gives it
    # the layer's histogram and the r/cr gates it expands into count alike
    assert enumerate_resources(CircuitSpec(c.n_key, c.m_val, c.gates)) == report


@given(state_preps(max_vars=6, bound=50.0, widen=3))
@example(TERMLESS)
@settings(deadline=None, max_examples=60)
def test_state_prep_phase_vector_equals_the_gate_by_gate_sum(case):
    p, y, m = case
    try:
        c = build_state_prep(p, y, m)
    except ValueError:
        return
    phases = [arg for op, arg in simulator._compile(c) if op == "phase"]
    rotations = [g for g in c.gates if g.kind in ("r", "cr")]
    [phase] = phases  # one step, of ones when the layer has no term
    assert np.array_equal(phase, phase_by_gate(rotations, c.n_qubits))


@st.composite
def mixed_phase_runs(draw):
    """A run of layers and single ``r``/``cr`` gates on the value register,
    their supports drawn from a pool of at most four, so that many rotations
    share a qubit mask across ops and the order of addition shows."""
    n_key, m = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    subsets = st.lists(st.integers(0, n_key - 1), unique=True, max_size=n_key).map(tuple) \
        if n_key else st.just(())
    pool = draw(st.lists(subsets, min_size=1, max_size=4))
    controls = st.sampled_from(pool)
    coeff = st.floats(-10.0, 10.0, allow_nan=False)
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            terms = draw(st.dictionaries(controls, coeff, max_size=len(pool)))
            layer = PhaseLayer(BinaryPolynomial(n_key, terms), draw(coeff))
            ops.append(layer.inverse() if draw(st.booleans()) else layer)
        else:
            ctrl = draw(controls)
            target = n_key + draw(st.integers(0, m - 1))
            ops.append(GateSpec("cr" if ctrl else "r", target, ctrl, draw(coeff)))
    return CircuitSpec(n_key, m, tuple(ops))


@given(mixed_phase_runs())
@settings(deadline=None, max_examples=100)
def test_mixed_run_phase_vector_equals_the_gate_by_gate_sum(c):
    [(op, diagonal)] = simulator._compile(c)
    assert op == "phase"
    assert np.array_equal(diagonal, phase_by_gate(c.gates, c.n_qubits))


@given(state_preps(max_vars=5, bound=8.0, widen=2), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_grover_matches_the_gate_level_reference(case, seed):
    p, y, m = case
    try:
        a = build_state_prep(p, y, m)
    except ValueError:
        return
    g = build_grover(a)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << a.n_qubits) + 1j * rng.normal(size=1 << a.n_qubits)
    state = amps / np.linalg.norm(amps)
    got = apply(g, state)
    assert np.max(np.abs(got - apply_gate_by_gate(g, state))) <= 1e-12


def test_block_expands_to_its_rotations():
    p = BinaryPolynomial(3, {(0, 2): 2.0, (): 1.0, (1,): -1.0})
    layer = PhaseLayer(p, 0.5)
    # constant - y first, then graded order; theta = 2 pi c / 2^m, here m = 3
    const, x1, x02 = (2.0 * math.pi * c / 8.0 for c in (0.5, -1.0, 2.0))
    want = (GateSpec("r", 3, (), 4.0 * const), GateSpec("r", 4, (), 2.0 * const),
            GateSpec("r", 5, (), const),
            GateSpec("cr", 3, (1,), 4.0 * x1), GateSpec("cr", 4, (1,), 2.0 * x1),
            GateSpec("cr", 5, (1,), x1),
            GateSpec("cr", 3, (0, 2), 4.0 * x02), GateSpec("cr", 4, (0, 2), 2.0 * x02),
            GateSpec("cr", 5, (0, 2), x02))
    assert layer.expand(3, 3) == want
    assert layer.inverse() == PhaseLayer(p, 0.5, -1) and layer.inverse().inverse() == layer
    assert layer.inverse().expand(3, 3) == tuple(g.inverse() for g in want)
    assert PhaseLayer(p, 1.0).expand(3, 1)[0].controls == (1,)


@given(state_preps())
@settings(deadline=None, max_examples=100)
def test_layer_inverse_negates_every_expanded_theta(case):
    p, y, m = case
    layer = PhaseLayer(p, y)
    gates, inverse = layer.expand(p.n_vars, m), layer.inverse().expand(p.n_vars, m)
    want = tuple(GateSpec(g.kind, g.target, g.controls, -g.theta) for g in gates)
    assert inverse == want and repr(inverse) == repr(want)


def test_grover_inverts_the_layer_as_one_op():
    p = BinaryPolynomial(3, {(): 1.0, (0, 2): -2.5, (1,): 0.25})
    a = build_state_prep(p, 0.5, 4)
    [layer] = [op for op in a.ops if isinstance(op, PhaseLayer)]
    g = build_grover(a)
    assert [op for op in g.ops if isinstance(op, PhaseLayer)] == [layer.inverse(), layer]
    assert len(g.ops) == 2 * len(a.ops) + 2


def test_counting_resources_builds_no_gate_list(hubo_asc, monkeypatch):
    # the spy sees the circuit formulation_resources builds, after it is counted
    built = []
    count = circuits.enumerate_resources

    def spy(circuit):
        built.append(circuit)
        return count(circuit)

    monkeypatch.setattr(circuits, "enumerate_resources", spy)
    formulation_resources(hubo_asc)
    [circuit] = built
    assert "gates" not in circuit.__dict__


def test_gates_are_cached_outside_equality_hash_and_repr():
    p = BinaryPolynomial(3, {(): 1.0, (0, 2): -2.5, (1,): 0.25})
    expanded, fresh = build_state_prep(p, 0.5, 4), build_state_prep(p, 0.5, 4)
    assert expanded.gates is expanded.gates
    assert expanded == fresh and hash(expanded) == hash(fresh)
    assert repr(expanded) == repr(fresh)
    assert CircuitSpec(3, 4, expanded.gates).gates == expanded.gates


# -- layer validation ----------------------------------------------------------
#
# A layer's controls are its polynomial's supports, so the polynomial's
# invariant keeps them distinct and inside 0..n_vars-1, and the circuit keeps
# n_vars inside the key register.


def test_block_rejects_a_repeated_control():
    with pytest.raises(ValueError, match=re.escape("duplicate variable in monomial support (1, 0, 1)")):
        BinaryPolynomial(3, {(1, 0, 1): 0.5})


def test_block_rejects_a_negative_control():
    with pytest.raises(ValueError, match="^variable index -1 out of range for n_vars=2$"):
        BinaryPolynomial(2, {(0, -1): 0.5})


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_block_rejects_a_non_finite_theta(theta):
    p = BinaryPolynomial(1, {(0,): theta})
    with pytest.raises(ValueError, match=re.escape(f"coefficient {theta} ((0,)) outside")):
        build_state_prep(p, 0.0, 4)
    with pytest.raises(ValueError, match=re.escape(f"coefficient {-theta} (constant-y) outside")):
        build_state_prep(BinaryPolynomial(1, {(0,): 0.5}), theta, 4)
    with pytest.raises(ValueError, match="theta must be finite"):
        PhaseLayer(p, 0.0).expand(1, 4)


def test_circuit_rejects_a_block_controlled_outside_the_key_register():
    # a control on the value register would also be one of the layer's targets
    layer = PhaseLayer(BinaryPolynomial(3, {(0, 2): 0.5}), 0.0)
    with pytest.raises(ValueError, match=re.escape("layer on variables 0..2 outside the key register 0..1")):
        CircuitSpec(2, 3, (layer,))
    with pytest.raises(ValueError, match=re.escape("layer on variables 0..0 outside the key register 0..-1")):
        CircuitSpec(0, 1, (PhaseLayer(BinaryPolynomial(1, {(0,): 0.5}), 0.0),))
    assert CircuitSpec(2, 3, (PhaseLayer(BinaryPolynomial(2, {(1, 0): 0.5}), 0.5),)).n_qubits == 5
    assert CircuitSpec(3, 1, (PhaseLayer(BinaryPolynomial(1), 0.0),)).n_qubits == 4
