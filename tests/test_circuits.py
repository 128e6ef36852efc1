import math

import numpy as np
import pytest

from gascap import (
    BinaryPolynomial,
    CoeffTable,
    apply,
    build_grover,
    build_state_prep,
    closed_form_resources,
    coefficient_width,
    enumerate_resources,
    formulation_resources,
    formulation_width,
    value_register_width,
    zero_state,
)
from gascap.circuits import GateSpec, cnot_cost
from gascap.formulation import formulation_from_table


def fig_poly():
    return BinaryPolynomial(4, {(): 1.0, (0,): 1.0, (1, 2, 3): -1.8})


# -- register sizing ------------------------------------------------------


def test_value_register_width_reference():
    # max value 2 needs the strict inequality: 2 < 2^(m-1) forces m = 3
    assert value_register_width(fig_poly()) == 3


def test_value_register_width_zero_polynomial():
    assert value_register_width(BinaryPolynomial.zero(3)) == 1


def test_value_register_width_monotone_in_bounds():
    # four coefficients of 25 fit six bits, their sum 100 needs eight
    assert value_register_width(BinaryPolynomial(2, {(0,): 1.0})) == 2
    assert value_register_width(BinaryPolynomial(4, {(i,): 25.0 for i in range(4)})) == 8


def test_coefficient_width_reference_circuit(hubo_desc):
    # the reference 8+4 circuit: largest magnitude coefficient 6.999 fits
    # four signed bits, and that is the sizing the circuit uses
    assert coefficient_width(hubo_desc.objective) == 4
    assert formulation_width(hubo_desc) == 4
    assert hubo_desc.n_vars + formulation_width(hubo_desc) == 12


def test_sizing_rules_differ_on_reference_objective(hubo_desc):
    # the strict two's-complement rule needs one more qubit than the
    # coefficient rule here: the objective's true maximum 8.527 does not fit
    # [-8, 8).  The compiled circuit accepts the rare wraparound because the
    # adaptive loop re-evaluates every sample classically.
    hi = hubo_desc.objective.evaluate_all().max()
    assert hi == pytest.approx(8.527, abs=5e-3)
    assert 2.0 ** 3 <= hi < 2.0 ** 4  # past four signed bits, within five
    assert coefficient_width(hubo_desc.objective) == 4


def test_closed_form_qubits_reference(table):
    # 12 + ceil(log2(3 * 8.527 + 4 * 4)) + 1 = 12 + 6 + 1
    assert closed_form_resources(4, 3, table.d_sum, 1.0, "qubo").n_qubits == 19
    # 8 + ceil(log2 8.527) + 1; the built circuit is one qubit slimmer
    assert closed_form_resources(4, 3, table.d_sum, 1.0, "hubo-asc").n_qubits == 13


def test_closed_form_hubo_below_qubo_everywhere():
    for n_ap in range(3, 65):
        for n_ch in range(2, n_ap):
            hubo = closed_form_resources(n_ap, n_ch, math.comb(n_ap, 2), 1.0, "hubo-asc").n_qubits
            qubo = closed_form_resources(n_ap, n_ch, math.comb(n_ap, 2), 1.0, "qubo").n_qubits
            assert hubo < qubo


# -- state preparation structure -----------------------------------------


def test_state_prep_reference_blocks():
    c = build_state_prep(fig_poly(), y=0.0, m=3)
    h_gates = [g for g in c.gates if g.kind == "h"]
    assert len(h_gates) == 7  # n + m
    # uncontrolled block carries theta = 2 pi / 8 = pi / 4 on its last rotation
    r_gates = [g for g in c.gates if g.kind == "r"]
    assert len(r_gates) == 3
    assert r_gates[-1].theta == pytest.approx(math.pi / 4)
    assert r_gates[0].theta == pytest.approx(4 * math.pi / 4)
    # the cubic term drives a triple-controlled block with theta = -1.8 pi / 4
    cr3 = [g for g in c.gates if g.kind == "cr" and len(g.controls) == 3]
    assert len(cr3) == 3
    assert cr3[-1].theta == pytest.approx(-1.8 * math.pi / 4)
    assert cr3[0].controls == (1, 2, 3)
    assert c.gates[-1].kind == "iqft"


def test_state_prep_hadamard_layer_for_reference_hubo(hubo_desc):
    m = formulation_width(hubo_desc)
    c = build_state_prep(hubo_desc.objective, 0.0, m)
    assert sum(1 for g in c.gates if g.kind == "h") == 12
    assert c.gates[0].kind == "h"


def test_reference_hubo_circuit_fingerprint(hubo_desc):
    # the compiled descending circuit carries the two hallmark phase blocks:
    # an uncontrolled 4.000 * pi/8 (the constant) and a four-fold controlled
    # 5.505 * pi/8 on the first AP pair's slot bits
    m = formulation_width(hubo_desc)
    # coefficient sizing coincides with beta'
    assert m == closed_form_resources(4, 3, math.comb(4, 2), 1.0, "hubo-desc").m_val
    c = build_state_prep(hubo_desc.objective, 0.0, m)
    unit = math.pi / 8  # 2 pi / 2^m
    r_last = [g for g in c.gates if g.kind == "r"][-1]
    assert r_last.theta == pytest.approx(4.000 * unit, abs=1e-3)
    quartic = [g for g in c.gates if g.kind == "cr" and g.controls == (0, 1, 2, 3)]
    assert len(quartic) == m
    assert quartic[-1].theta == pytest.approx(5.505 * unit, abs=1e-3)


def test_state_prep_rejects_overflowing_coefficient():
    p = BinaryPolynomial(1, {(0,): 9.0})
    with pytest.raises(ValueError, match="outside"):
        build_state_prep(p, 0.0, m=4)
    build_state_prep(p, 0.0, m=5)


def test_constant_polynomial_readout_is_deterministic():
    p = BinaryPolynomial.constant(1.0, 1)
    c = build_state_prep(p, 0.0, m=2)
    sv = apply(c, zero_state(c.n_qubits))
    probs = (np.abs(sv) ** 2).reshape(2, 4)
    # both keys uniformly likely, value register always reads 01
    assert probs[:, 1] == pytest.approx([0.5, 0.5])
    assert probs[:, [0, 2, 3]].sum() == pytest.approx(0.0, abs=1e-12)


def test_state_prep_then_inverse_is_identity():
    rng = np.random.default_rng(12)
    p = BinaryPolynomial(3, {(): 2.0, (0, 1): -1.5, (2,): 0.75})
    c = build_state_prep(p, 0.25, m=4)
    sv = apply(c.inverse(), apply(c, zero_state(c.n_qubits)))
    want = np.zeros(1 << c.n_qubits); want[0] = 1.0
    assert np.max(np.abs(sv - want)) < 1e-10


def test_grover_gate_order():
    g = build_grover(build_state_prep(fig_poly(), 0.0, 3))
    kinds = [gate.kind for gate in g.gates]
    assert kinds[0] == "z"
    assert kinds.count("diffusion") == 1
    assert kinds[-1] == "iqft"  # the closing A_y ends with the inverse QFT
    # the Z oracle targets the sign qubit
    assert g.gates[0].target == g.n_key


# -- resource accounting --------------------------------------------------


def test_cnot_cost_rule():
    assert [cnot_cost(k) for k in (0, 1, 2, 3, 5)] == [0, 2, 6, 12, 24]


def test_enumerate_constant_only():
    p = BinaryPolynomial.constant(3.0, 0)
    c = build_state_prep(p, 0.0, m=3)
    rep = enumerate_resources(c)
    assert rep.r_count == 3
    assert rep.cr_counts == {}
    assert rep.cnot_count == 0
    assert rep.iqft_count == 1


def test_enumerate_qubo_counts_match_closed_forms():
    for n_ap in (4, 6, 8):
        n_ch = n_ap // 2
        t = CoeffTable.uniform(n_ap, 1.0)
        form = formulation_from_table(t, n_ch, "qubo", 1.0)
        rep = formulation_resources(form)
        closed = closed_form_resources(n_ap, n_ch, math.comb(n_ap, 2), 1, "qubo")
        beta = closed.m_val
        assert rep.m_val == closed_form_resources(n_ap, n_ch, t.d_sum, 1.0, "qubo").m_val == beta
        assert rep.h_count == rep.n_qubits == closed.h_count
        assert rep.cr(1) == n_ap * n_ch * beta == closed.cr(1)
        assert rep.cr(2) == closed.cr(2)
        assert all(rep.cr(k) == 0 for k in range(3, 9))


def test_qubo_two_cr_closed_form_identity():
    # the binomial form equals N_AP N_CH (N_AP + N_CH - 2) / 2
    for n_ap, n_ch in [(4, 2), (6, 3), (10, 5), (12, 6)]:
        closed = closed_form_resources(n_ap, n_ch, math.comb(n_ap, 2), 1, "qubo")
        beta = closed.m_val
        assert closed.cr(2) == n_ap * n_ch * (n_ap + n_ch - 2) // 2 * beta


def test_hubo_beta_reference():
    # ceil(log2 6) + 1
    assert closed_form_resources(4, 3, math.comb(4, 2), 1.0, "hubo-asc").m_val == 4


def test_hubo_closed_form_two_cr():
    for n_ap, n_ch in [(6, 3), (10, 5)]:
        n_b = (n_ch - 1).bit_length()
        closed = closed_form_resources(n_ap, n_ch, math.comb(n_ap, 2), 1.0, "hubo-asc")
        assert closed.cr(2) == math.comb(n_ap * n_b, 2) * closed.m_val


def test_enumerated_hubo_never_exceeds_closed_form():
    for n_ap in (4, 6, 8, 10):
        n_ch = n_ap // 2
        t = CoeffTable.uniform(n_ap, 1.0)
        form = formulation_from_table(t, n_ch, "hubo-asc", 1.0)
        rep = formulation_resources(form)
        closed = closed_form_resources(n_ap, n_ch, t.d_sum, 1.0, "hubo-asc")
        for k in range(1, max(rep.max_arity, closed.max_arity) + 1):
            assert rep.cr(k) <= closed.cr(k)
        assert rep.ancillae == form.objective.degree - 1


@pytest.mark.parametrize("kind", ["hubo-asc", "hubo-desc"])
def test_binary_closed_form_term_counts_are_exact_where_documented(kind):
    # exact for the ascending encoding at N_AP >= 3 and for both kinds at a
    # power-of-two N_CH; an upper bound elsewhere, where the descending
    # expansion is smaller and at N_AP = 2 single-AP coefficients cancel
    for n_ap in range(2, 7):
        t = CoeffTable.uniform(n_ap)
        for n_ch in range(2, 18):
            rep = formulation_resources(formulation_from_table(t, n_ch, kind, 1.0))
            closed = closed_form_resources(n_ap, n_ch, t.d_sum, 1.0, kind)
            arities = range(1, max(rep.max_arity, closed.max_arity) + 1)
            got = [closed.cr(k) // closed.m_val for k in arities]
            want = [rep.cr(k) // rep.m_val for k in arities]
            assert all(g >= w for g, w in zip(got, want))
            if kind == "hubo-asc":
                exact = n_ap >= 3 or n_ch not in (7, 11, 13, 14)
            else:
                exact = n_ch in (2, 4, 8, 16)
            assert (got == want) == exact, (n_ap, n_ch)
    if kind == "hubo-asc":
        rep = formulation_resources(formulation_from_table(CoeffTable.uniform(2), 7, kind, 1.0))
        closed = closed_form_resources(2, 7, 1.0, 1.0, kind)
        assert (closed.cr(3) // closed.m_val, rep.cr(3) // rep.m_val) == (20, 18)


def test_descending_cnot_never_above_ascending():
    for n_ap in (4, 6, 8, 10, 12):
        n_ch = n_ap // 2
        t = CoeffTable.uniform(n_ap, 1.0)
        asc = formulation_resources(
            formulation_from_table(t, n_ch, "hubo-asc", 1.0))
        desc = formulation_resources(
            formulation_from_table(t, n_ch, "hubo-desc", 1.0))
        assert desc.cnot_count <= asc.cnot_count
        if n_ch & (n_ch - 1):  # not a power of two
            assert desc.cnot_count < asc.cnot_count
        else:
            assert desc.cnot_count == asc.cnot_count


def test_gate_and_circuit_validation():
    from gascap.circuits import CircuitSpec, GateSpec
    with pytest.raises(ValueError):
        GateSpec("cr", target=0, controls=())
    with pytest.raises(ValueError):
        CircuitSpec(1, 1, (GateSpec("h", target=5),))


def test_gate_spec_is_slotted_value_type():
    from dataclasses import replace

    from gascap.circuits import GateSpec
    g = GateSpec("cr", target=3, controls=(0, 1), theta=0.25)
    assert not hasattr(g, "__dict__")
    assert g == GateSpec("cr", target=3, controls=(0, 1), theta=0.25)
    assert hash(g) == hash(GateSpec("cr", target=3, controls=(0, 1), theta=0.25))
    assert g.inverse() == GateSpec("cr", target=3, controls=(0, 1), theta=-0.25)
    assert replace(g, theta=0.5).theta == 0.5
    with pytest.raises(AttributeError):
        g.theta = 1.0


def test_closed_forms_take_only_real_kinds():
    with pytest.raises(ValueError, match="unknown formulation kind"):
        closed_form_resources(6, 3, 15.0, 1.0, "hubo")
    assert (closed_form_resources(6, 3, 15.0, 1.0, "hubo-desc")
            == closed_form_resources(6, 3, 15.0, 1.0, "hubo-asc"))


# -- gate validation --------------------------------------------------------
# A malformed gate fails where it is built, never later inside ``apply``.


def test_gate_spec_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind 'cx'"):
        GateSpec("cx", target=0, controls=(1,))


@pytest.mark.parametrize("kwargs", [
    {"kind": "h"}, {"kind": "z"}, {"kind": "r", "theta": 0.3},
    {"kind": "cr", "controls": (1,), "theta": 0.3}, {"kind": "h", "target": 1.0},
    {"kind": "r", "target": "0"},
], ids=["h", "z", "r", "cr", "float-target", "str-target"])
def test_gate_spec_needs_an_integer_target(kwargs):
    with pytest.raises(ValueError, match="need an integer target"):
        GateSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"kind": "iqft", "target": 0}, {"kind": "qft", "controls": (1,)},
    {"kind": "diffusion", "target": 2}, {"kind": "diffusion", "controls": (0, 1)},
], ids=["iqft-target", "qft-controls", "diffusion-target", "diffusion-controls"])
def test_register_gates_take_no_target_or_controls(kwargs):
    with pytest.raises(ValueError, match="take no target or controls"):
        GateSpec(**kwargs)


def test_gate_spec_rejects_a_control_on_its_target():
    with pytest.raises(ValueError, match="control 1 equals the target"):
        GateSpec("cr", target=1, controls=(0, 1), theta=0.5)


def test_gate_spec_rejects_a_repeated_control():
    with pytest.raises(ValueError, match="repeated control"):
        GateSpec("cr", target=2, controls=(0, 3, 0), theta=0.5)


@pytest.mark.parametrize("kind", ["h", "z", "r"])  # r is uncontrolled; cr is its controlled form
def test_hadamard_and_z_take_no_controls(kind):
    with pytest.raises(ValueError, match=f"{kind} gates take no controls"):
        GateSpec(kind, target=0, controls=(1,))


def test_well_formed_gates_still_build():
    for gate in (GateSpec("h", target=0), GateSpec("z", target=3), GateSpec("r", target=1),
                 GateSpec("cr", target=0, controls=(2, 1), theta=-0.5), GateSpec("iqft"),
                 GateSpec("qft"), GateSpec("diffusion")):
        assert gate.inverse().inverse() == gate
