"""Values derived from their inputs, checked against the code they replaced.

``CoeffTable`` computes ``d``, ``c_min`` and ``d_sum`` from (c, epsilon);
``ResourceReport`` computes ``ancillae`` and ``cnot_count`` from its control
histogram; register widths come from two extremes in O(1).  Each reference
below is the earlier construction, kept here verbatim in behaviour.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    CoeffTable,
    build_formulation,
    build_state_prep,
    closed_form_resources,
    coeff_table,
    coefficient_width,
    enumerate_resources,
    formulation_resources,
    formulation_width,
    value_register_width,
)
from gascap.cap import synthetic_instance
from gascap.circuits import CircuitSpec, GateSpec, _width, cnot_cost
from gascap.formulation import Encoding, bits_per_channel, formulation_from_table

# -- references -------------------------------------------------------------


def loop_width(v: float) -> int:
    """Smallest m with -2^(m-1) <= v < 2^(m-1), by search."""
    m = 1
    while not (-(2 ** (m - 1)) <= v < 2 ** (m - 1)):
        m += 1
        if m > 128:
            raise ValueError(f"value {v} not representable")
    return m


def loop_value_register_width(p):
    # interval arithmetic: each non-constant term adds 0 or its coefficient
    const = p.constant_term
    lo = const + sum(min(0.0, c) for s, c in p.terms.items() if s)
    hi = const + sum(max(0.0, c) for s, c in p.terms.items() if s)
    m = 1
    for v in [lo, hi] + list(p.terms.values()):
        m = max(m, loop_width(v))
    return m


def loop_coefficient_width(p, y=0.0):
    m = 1
    const = p.constant_term - y
    if const != 0.0:
        m = loop_width(const)
    for s, c in p.terms.items():
        if s:
            m = max(m, loop_width(c))
    return m


def reference_table(c, epsilon):
    """(d, c_min, d_sum) as the former ``CoeffTable.from_c_matrix`` built them."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    iu = np.triu_indices(n, k=1)
    c_min = float(c[iu].min())
    d = np.zeros_like(c)
    d[iu] = c[iu] - c_min + epsilon
    d += d.T
    return d, c_min, float(d[iu].sum())


def closed_form_width_reference(max_e: float) -> int:
    """The paper's closed-form width: ceil(log2 max(E)) plus the sign bit,
    and the sign bit alone when max(E) <= 1/2."""
    return max(1, math.ceil(math.log2(max_e)) + 1)


def qubo_width(n_ap: int, n_ch: int, d_sum: float, w: float) -> int:
    """Closed-form width for the one-hot objective, with max(E) = N_CH *
    D_sum + w * N_AP * (N_CH - 1)^2."""
    return closed_form_width_reference(n_ch * d_sum + w * n_ap * (n_ch - 1) ** 2)


def hubo_width_closed_form(d_sum: float) -> int:
    """Closed-form width for the binary-encoded objective, with max(E') =
    D_sum."""
    return closed_form_width_reference(d_sum)


def closed_form_qubits(n_ap: int, n_ch: int, d_sum: float, w: float, kind: str) -> int:
    """Total n + m from the closed forms, per formulation family, with the
    key widths N_AP * N_B and N_AP * N_CH written out."""
    if d_sum <= 0:
        raise ValueError("d_sum must be positive")
    if Encoding(kind).is_binary:
        return n_ap * bits_per_channel(n_ch) + hubo_width_closed_form(d_sum)
    return n_ap * n_ch + qubo_width(n_ap, n_ch, d_sum, w)


def stored_ancillae(cr_counts):
    return max(0, max(cr_counts, default=0) - 1)


def stored_cnot_count(cr_counts):
    return sum(cnot_cost(k) * v for k, v in cr_counts.items())


def same_outcome(fast, slow):
    """Both raise the not-representable ValueError, or both return one value."""
    try:
        want = slow()
    except ValueError as exc:
        assert "not representable" in str(exc)
        with pytest.raises(ValueError, match=r"^value .* not representable$"):
            fast()
        return
    assert fast() == want


# -- register widths ----------------------------------------------------------

EDGE = 2.0 ** 127
powers = st.integers(-1074, 130).map(lambda k: math.ldexp(1.0, k))
near_powers = st.tuples(powers, st.sampled_from([-math.inf, 0.0, math.inf])).map(
    lambda pair: pair[0] if pair[1] == 0.0 else math.nextafter(*pair))
edges = st.sampled_from([EDGE, math.nextafter(EDGE, 0.0), math.nextafter(EDGE, math.inf),
                         0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0])
subnormals = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
magnitudes = st.one_of(powers, near_powers, edges, subnormals,
                       st.floats(allow_nan=False, allow_infinity=False), st.floats(-64.0, 64.0))
finite = st.tuples(magnitudes, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])
values = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(deadline=None, max_examples=1000)
@given(values, values)
@example(-EDGE, 0.0)
@example(0.0, EDGE)
@example(-0.0, -0.0)
@example(math.nan, 1.0)
@example(-math.inf, 1.0)
def test_width_equals_the_search_on_both_ends(lo, hi):
    same_outcome(lambda: _width(lo, hi), lambda: max(loop_width(lo), loop_width(hi)))


@st.composite
def polynomials(draw, coeffs=finite):
    n = draw(st.integers(0, 5))
    supports = st.lists(st.integers(0, max(n - 1, 0)), max_size=n, unique=True) if n else st.just([])
    terms = draw(st.lists(st.tuples(supports, coeffs), max_size=8))
    return BinaryPolynomial(n, {tuple(sorted(support)): c for support, c in terms})


def spoiled(p, where, bad):
    """p with one coefficient (the ``where``-th, cyclically) set to ``bad``."""
    keys = list(p.terms) or [()]
    key = keys[where % len(keys)]
    return BinaryPolynomial(p.n_vars, {**p.terms, key: bad})


small = st.floats(-1e6, 1e6)


@settings(deadline=None, max_examples=400)
@given(polynomials(), finite)
@example(BinaryPolynomial(0, {(): -sys.float_info.max}), 1e292)  # the constant - y overflows
def test_coefficient_width_equals_the_search(p, y):
    same_outcome(lambda: coefficient_width(p, y), lambda: loop_coefficient_width(p, y))


@settings(deadline=None, max_examples=400)
@given(polynomials(small))
def test_value_register_width_equals_the_search(p):
    same_outcome(lambda: value_register_width(p), lambda: loop_value_register_width(p))


@settings(deadline=None, max_examples=200)
@given(polynomials(small), st.integers(0, 7), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.floats(-10.0, 10.0))
def test_a_non_finite_coefficient_anywhere_raises(p, where, bad, y):
    q = spoiled(p, where, bad)
    for width in (lambda: coefficient_width(q, y), lambda: value_register_width(q)):
        with pytest.raises(ValueError, match=r"^value .* not representable$"):
            width()


@pytest.mark.parametrize("a, b", [(EDGE / 2, EDGE / 2), (-EDGE, -EDGE / 2)])
def test_a_value_bound_past_every_coefficient_raises(a, b):
    # each coefficient fits 128 bits, their sum, a bound of the value range, does not
    p = BinaryPolynomial(2, {(0,): a, (1,): b})
    assert coefficient_width(p) == 128
    with pytest.raises(ValueError, match=r"^value .* not representable$"):
        value_register_width(p)


# -- CoeffTable ---------------------------------------------------------------


@st.composite
def symmetric_costs(draw):
    n = draw(st.integers(2, 9))
    entries = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e-3, 1e-3), st.integers(-5, 5).map(float))
    c = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            c[i, k] = c[k, i] = draw(entries)
    return c


@settings(deadline=None, max_examples=300)
@given(symmetric_costs(), st.one_of(st.sampled_from([0.01, 0.1, 1.0]), st.floats(1e-9, 1e3)))
def test_coeff_table_derives_the_reference_bits(c, epsilon):
    table = CoeffTable(c, epsilon)
    d, c_min, d_sum = reference_table(c, epsilon)
    assert np.array_equal(table.d, d)
    assert table.c_min == c_min
    assert table.d_sum == d_sum
    assert table.d.dtype == np.float64 and np.all(table.d[np.triu_indices(len(c), 1)] > 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coeff_table_of_an_instance_matches_the_reference(seed):
    inst = synthetic_instance(7, 3, seed=seed)
    table = coeff_table(inst)
    d, c_min, d_sum = reference_table(table.c, inst.epsilon)
    assert np.array_equal(table.d, d) and table.c_min == c_min and table.d_sum == d_sum
    assert isinstance(table.d, np.ndarray)


def test_coeff_table_keeps_two_settable_fields():
    table = CoeffTable.uniform(4, 1.0)
    assert table.d_sum == 6.0 and table.c_min == 0.0
    assert "d=" not in repr(table) and "epsilon=1.0" in repr(table)
    with pytest.raises(TypeError):
        CoeffTable(np.zeros((3, 3)), 0.01, np.zeros((3, 3)))


@pytest.mark.parametrize("c, want", [
    (np.zeros((2, 3)), "square"),
    (np.zeros(4), "square"),
    (np.zeros((2, 2, 2)), "square"),
    (np.zeros((1, 1)), "at least 2 access points, got 1"),
    (np.zeros((0, 0)), "at least 2 access points, got 0"),
    (np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]), "symmetric"),
    (np.array([[0.0, np.nan], [np.nan, 0.0]]), "finite"),
    (np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
    (np.array([[np.inf, 1.0], [1.0, 0.0]]), "finite"),
])
def test_coeff_table_rejects_a_malformed_c(c, want):
    with pytest.raises(ValueError, match=want):
        CoeffTable(c, 0.01)


@pytest.mark.parametrize("epsilon", [0.0, -0.01, -math.inf, math.inf, math.nan])
def test_coeff_table_rejects_a_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        CoeffTable(np.zeros((3, 3)), epsilon)


# -- resource reports -----------------------------------------------------------


def test_closed_form_report_totals_equal_the_stored_formulas():
    for n_ap in range(2, 40):
        for n_ch in range(2, 12):
            for kind in ("qubo", "hubo-asc", "hubo-desc"):
                rep = closed_form_resources(n_ap, n_ch, math.comb(n_ap, 2), 1.0, kind)
                stored = 1 if kind == "qubo" else max(0, 2 * bits_per_channel(n_ch) - 1)
                assert rep.ancillae == stored == stored_ancillae(rep.cr_counts)
                assert rep.cnot_count == stored_cnot_count(rep.cr_counts) > 0


def test_closed_form_widths_equal_the_reference_widths():
    # max(E) = 2 * 6 + 4 * 1 = 16 at 4 x 2 under the uniform table and
    # w = 1: the paper's width stops one short of the power of two
    assert closed_form_resources(4, 2, 6.0, 1.0, "qubo").m_val == qubo_width(4, 2, 6.0, 1.0) == 5
    form = formulation_from_table(CoeffTable.uniform(4, 1.0), 2, "qubo", 1.0)
    assert formulation_width(form) == 5
    assert value_register_width(form.objective) == 6
    for n_ap in range(2, 41):
        grid = [(math.comb(n_ap, 2), 1.0)]
        grid += [(d_sum, w) for d_sum in (0.01, 1.0, 6.0, 8.527, 1024.0) for w in (0.1, 1.0, 2.5)]
        for n_ch in range(2, 65):
            for kind in ("qubo", "hubo-asc", "hubo-desc"):
                binary = Encoding(kind).is_binary
                for d_sum, w in grid:
                    rep = closed_form_resources(n_ap, n_ch, d_sum, w, kind)
                    want = hubo_width_closed_form(d_sum) if binary else qubo_width(
                        n_ap, n_ch, d_sum, w)
                    assert rep.m_val == want
                    assert rep.n_qubits == closed_form_qubits(n_ap, n_ch, d_sum, w, kind)


@settings(deadline=None, max_examples=100)
@given(symmetric_costs(), st.floats(1e-3, 10.0), st.integers(2, 5),
       st.one_of(st.sampled_from([0.1, 1.0, 2.5]), st.floats(1e-3, 1e3)))
@example(np.zeros((4, 4)), 1.0, 2, 1.0)  # uniform 4 x 2: max(E) = 16, width 5
def test_one_hot_width_is_the_closed_form_at_the_tables_d_sum(c, epsilon, n_ch, w):
    table = CoeffTable(c, epsilon)
    form = formulation_from_table(table, n_ch, "qubo", w)
    want = closed_form_resources(table.n_ap, n_ch, table.d_sum, w, "qubo").m_val
    assert formulation_width(form) == want


def binary_closed_form_cr_reference(n_ap: int, n_ch: int, beta: int) -> dict[int, int]:
    """The binary closed form's control histogram, case by case: k = 1 and 2
    from N and C(N, 2), then the k <= N_B and k > N_B formulas."""
    n_b = bits_per_channel(n_ch)
    n, pairs = n_ap * n_b, math.comb(n_ap, 2)
    cr = {1: n * beta}
    if n >= 2:
        cr[2] = math.comb(n, 2) * beta
    for k in range(3, 2 * n_b + 1):
        if k <= n_b:
            count = pairs * math.comb(2 * n_b, k) - n_ap * (n_ap - 2) * math.comb(n_b, k)
        else:
            count = pairs * math.comb(2 * n_b, k)
        if count:
            cr[k] = count * beta
    return cr


def test_binary_closed_form_histogram_equals_the_case_by_case_formulas():
    for n_ap in range(2, 41):
        for n_ch in range(2, 65):
            for kind in ("hubo-asc", "hubo-desc"):
                rep = closed_form_resources(n_ap, n_ch, math.comb(n_ap, 2), 1.0, kind)
                want = binary_closed_form_cr_reference(n_ap, n_ch, rep.m_val)
                assert list(rep.cr_counts.items()) == list(want.items())


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 16), st.integers(2, 6), st.sampled_from(["qubo", "hubo-asc", "hubo-desc"]))
@example(16, 6, "hubo-asc")
def test_enumerated_report_totals_equal_the_stored_formulas(n_ap, n_ch, kind):
    t = CoeffTable.uniform(n_ap, 1.0)
    form = formulation_from_table(t, n_ch, kind, 1.0)
    rep = formulation_resources(form)
    assert rep.ancillae == stored_ancillae(rep.cr_counts) == max(0, form.objective.degree - 1)
    assert rep.cnot_count == stored_cnot_count(rep.cr_counts)


@pytest.mark.parametrize("terms", [{}, {(): 3.0}, {(0,): 1.0}, {(0, 1, 2): -1.5, (1,): 0.5}])
def test_report_totals_of_small_circuits(terms):
    rep = enumerate_resources(build_state_prep(BinaryPolynomial(3, terms), 0.0, 3))
    assert rep.ancillae == stored_ancillae(rep.cr_counts) >= 0
    assert rep.cnot_count == stored_cnot_count(rep.cr_counts)


# -- registers of at least one qubit ------------------------------------------


def test_closed_form_widths_keep_the_sign_qubit():
    assert closed_form_resources(2, 2, 0.01, 1.0, "hubo-asc").m_val == 1
    for d_sum in (0.51, 0.75, 1.0, 1.5, 6.0, 120.0):  # the floor changes nothing above 1/2
        rep = closed_form_resources(2, 2, d_sum, 1.0, "hubo-asc")
        assert rep.m_val == math.ceil(math.log2(d_sum)) + 1
    assert closed_form_resources(2, 2, 0.01, 0.1, "qubo").m_val == 1
    assert closed_form_resources(2, 2, 0.01, 1.0, "hubo-asc").n_qubits == 2 + 1
    assert closed_form_resources(2, 2, 0.01, 0.1, "qubo").n_qubits == 4 + 1


@pytest.mark.parametrize("kind", ["qubo", "hubo-asc", "hubo-desc"])
@pytest.mark.parametrize("n_ap, n_ch, want", [
    (1, 2, "^a closed form needs at least 2 access points, got 1$"),
    (0, 3, "^a closed form needs at least 2 access points, got 0$"),
    (4, 1, "^n_ch must be at least 2$"),
    (4, 0, "^n_ch must be at least 2$"),
])
def test_closed_forms_reject_what_the_builders_reject(n_ap, n_ch, want, kind):
    # N_AP = 1 once died in math.log2(0); N_CH = 1 once gave a binary report
    # for an encoding no builder makes
    with pytest.raises(ValueError, match=want):
        closed_form_resources(n_ap, n_ch, 1.0, 1.0, kind)


@pytest.mark.parametrize("kind", ["qubo", "hubo-asc", "hubo-desc"])
@pytest.mark.parametrize("d_sum, w, want", [
    (8.5, -1.0, r"^penalty weight must be finite and positive, got -1.0$"),
    (8.5, -10.0, r"^penalty weight must be finite and positive, got -10.0$"),
    (8.5, 0.0, r"^penalty weight must be finite and positive, got 0.0$"),
    (8.5, math.nan, r"^penalty weight must be finite and positive, got nan$"),
    (8.5, math.inf, r"^penalty weight must be finite and positive, got inf$"),
    (math.nan, 1.0, r"^d_sum must be finite, got nan$"),
    (math.inf, 1.0, r"^d_sum must be finite, got inf$"),
    (0.0, 1.0, r"^d_sum must be positive$"),
    (-math.inf, 1.0, r"^d_sum must be positive$"),
])
def test_closed_forms_reject_a_bad_d_sum_or_penalty(d_sum, w, want, kind):
    # w = -1 once gave m = 5 and w = -10 died in math.log2; a NaN D_sum
    # failed converting to int and an infinite one raised OverflowError
    with pytest.raises(ValueError, match=want):
        closed_form_resources(4, 3, d_sum, w, kind)


def test_two_ap_one_hot_report_has_no_negative_count():
    with pytest.warns(UserWarning, match="trivial"):
        inst = synthetic_instance(2, 2, seed=1)
    table = coeff_table(inst)
    assert table.d_sum == inst.epsilon == 0.01
    form = build_formulation(inst, "qubo", 0.1, table)
    assert formulation_width(form) == 1
    rep = formulation_resources(form)
    assert rep.m_val == rep.r_count == 1
    assert rep.cr_counts == {1: 4, 2: 4} and rep.cnot_count == 32 and rep.ancillae == 1


@pytest.mark.parametrize("m", [0, -1])
def test_state_prep_needs_the_sign_qubit(m):
    with pytest.raises(ValueError, match=f"at least the sign qubit, got m={m}"):
        build_state_prep(BinaryPolynomial(1, {(0,): 0.25}), 0.0, m)


@pytest.mark.parametrize("n_key, m_val", [(-1, 1), (1, -1)])
def test_circuit_spec_rejects_negative_registers(n_key, m_val):
    with pytest.raises(ValueError, match="register widths must be nonnegative"):
        CircuitSpec(n_key, m_val, ())


def test_circuit_spec_allows_a_key_only_register():
    c = CircuitSpec(2, 0, (GateSpec("h", target=0), GateSpec("h", target=1)))
    assert c.n_qubits == 2
