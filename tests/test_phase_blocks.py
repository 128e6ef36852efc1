"""Phase blocks: A_y keeps one ``PhaseBlock`` per polynomial term, and every
consumer (``gates``, ``enumerate_resources``, the simulator's phase kernel)
must agree with the circuit built one ``GateSpec`` per rotation."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    CircuitSpec,
    GateSpec,
    PhaseBlock,
    StateVector,
    apply,
    build_grover,
    build_state_prep,
    coefficient_width,
    enumerate_resources,
)
from gascap import simulator
from test_gas import search_polynomials
from test_simulator import apply_gate_by_gate


def eager_state_prep(p: BinaryPolynomial, y: float, m: int) -> tuple[GateSpec, ...]:
    """A_y as one ``GateSpec`` per rotation, the way it was built before
    phase blocks: the reference for ``build_state_prep(p, y, m).gates``."""
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


@given(state_preps())
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
    assert len(c.ops) == p.n_vars + m + len([s for s in p.terms if s]) \
        + (p.constant_term - y != 0.0) + 1


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


@given(state_preps(max_vars=6, bound=50.0, widen=3))
@settings(deadline=None, max_examples=60)
def test_state_prep_phase_vector_equals_the_gate_by_gate_sum(case):
    p, y, m = case
    try:
        c = build_state_prep(p, y, m)
    except ValueError:
        return
    phases = [arg for op, arg in simulator._compile(c) if op == "phase"]
    rotations = [g for g in c.gates if g.kind in ("r", "cr")]
    assert len(phases) == (1 if rotations else 0)
    if rotations:
        assert np.array_equal(phases[0], phase_by_gate(rotations, c.n_qubits))


@st.composite
def mixed_phase_runs(draw):
    """A run of blocks and single ``r``/``cr`` gates on the value register,
    many of them on the same qubit masks, so the order of addition shows."""
    n_key, m = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    controls = st.lists(st.integers(0, n_key - 1), unique=True, max_size=n_key).map(tuple) \
        if n_key else st.just(())
    theta = st.floats(-10.0, 10.0, allow_nan=False)
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        ctrl = draw(controls)
        if draw(st.booleans()):
            ops.append(PhaseBlock(ctrl, draw(theta)))
        else:
            target = n_key + draw(st.integers(0, m - 1))
            ops.append(GateSpec("cr" if ctrl else "r", target, ctrl, draw(theta)))
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
    state = StateVector(a.n_qubits, amps / np.linalg.norm(amps))
    got = apply(g, state).amplitudes
    assert np.max(np.abs(got - apply_gate_by_gate(g, state))) <= 1e-12


def test_block_expands_to_its_rotations():
    block = PhaseBlock((0, 2), 0.75)
    assert block.expand(3, 3) == (GateSpec("cr", 3, (0, 2), 3.0), GateSpec("cr", 4, (0, 2), 1.5),
                                  GateSpec("cr", 5, (0, 2), 0.75))
    assert PhaseBlock((), -0.5).expand(1, 2) == (GateSpec("r", 1, (), -1.0),
                                                 GateSpec("r", 2, (), -0.5))
    assert block.inverse() == PhaseBlock((0, 2), -0.75)


def test_gates_are_cached_outside_equality_hash_and_repr():
    p = BinaryPolynomial(3, {(): 1.0, (0, 2): -2.5, (1,): 0.25})
    expanded, fresh = build_state_prep(p, 0.5, 4), build_state_prep(p, 0.5, 4)
    assert expanded.gates is expanded.gates
    assert expanded == fresh and hash(expanded) == hash(fresh)
    assert repr(expanded) == repr(fresh)
    assert CircuitSpec(3, 4, expanded.gates).gates == expanded.gates


# -- block validation ----------------------------------------------------------


def test_block_rejects_a_repeated_control():
    with pytest.raises(ValueError, match=re.escape("repeated control in (1, 0, 1)")):
        PhaseBlock((1, 0, 1), 0.5)


def test_block_rejects_a_negative_control():
    with pytest.raises(ValueError, match="^control -1 outside the key register$"):
        PhaseBlock((0, -1), 0.5)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_block_rejects_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        PhaseBlock((0,), theta)


def test_circuit_rejects_a_block_controlled_outside_the_key_register():
    # a control on the value register would also be one of the block's targets
    with pytest.raises(ValueError, match=re.escape("control 2 outside the key register 0..1")):
        CircuitSpec(2, 3, (PhaseBlock((0, 2), 0.5),))
    with pytest.raises(ValueError, match=re.escape("control 0 outside the key register 0..-1")):
        CircuitSpec(0, 1, (PhaseBlock((0,), 0.5),))
    assert CircuitSpec(2, 3, (PhaseBlock((1, 0), 0.5), PhaseBlock((), 0.5))).n_qubits == 5
