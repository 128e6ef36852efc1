import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gascap import BinaryPolynomial, bits_to_int, int_to_bits, loads_poly, value_register_width
from gascap.circuits import _width


def fig_poly():
    # 1 + x1 - 1.8 x2 x3 x4 over four variables
    return BinaryPolynomial(4, {(): 1.0, (0,): 1.0, (1, 2, 3): -1.8})


def random_poly(rng, n, max_terms=6, max_deg=3, int_coeffs=True):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        deg = int(rng.integers(0, min(n, max_deg) + 1))
        sup = tuple(sorted(rng.choice(n, size=deg, replace=False))) if deg else ()
        coeff = int(rng.integers(-5, 6)) if int_coeffs else float(rng.normal())
        terms[sup] = terms.get(sup, 0.0) + coeff
    return BinaryPolynomial(n, terms)


def test_evaluate_reference_polynomial():
    p = fig_poly()
    assert p.evaluate((0, 0, 0, 0)) == pytest.approx(1.0)
    assert p.evaluate((1, 1, 1, 1)) == pytest.approx(0.2)


def test_evaluate_empty_polynomial():
    p = BinaryPolynomial.zero(3)
    assert p.evaluate((1, 0, 1)) == 0.0


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        fig_poly().evaluate((1, 0))


def test_idempotence_and_projector():
    x1 = BinaryPolynomial.variable(0, 1)
    assert x1.multiply(x1) == x1
    proj = BinaryPolynomial.constant(1.0, 1).add(x1.scale(-1.0))
    assert proj.multiply(proj) == proj


def test_zero_coefficients_are_dropped():
    p = BinaryPolynomial(2, {(0,): 1.0, (1,): 0.0})
    assert (1,) not in p.terms
    one_minus_x0 = BinaryPolynomial.constant(1.0, 2).add(BinaryPolynomial.variable(0, 2).scale(-1.0))
    q = one_minus_x0.add(p).multiply(BinaryPolynomial.variable(0, 2))
    assert all(1 not in s for s in q.terms)


def test_add_is_pointwise(seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        p, q = random_poly(rng, n), random_poly(rng, n)
        s = p.add(q)
        for x in range(1 << n):
            bits = int_to_bits(x, n)
            assert s.evaluate(bits) == pytest.approx(p.evaluate(bits) + q.evaluate(bits))


def test_multiply_is_pointwise(seed=1):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        p, q = random_poly(rng, n), random_poly(rng, n)
        m = p.multiply(q)
        assert m.degree <= n
        for x in range(1 << n):
            bits = int_to_bits(x, n)
            assert m.evaluate(bits) == pytest.approx(p.evaluate(bits) * q.evaluate(bits))


def test_scale_and_operators():
    p = fig_poly()
    assert p.scale(2.0).evaluate((1, 1, 1, 1)) == pytest.approx(0.4)
    assert p.add(p.scale(-1.0)).terms == {}
    assert p.scale(-1.0).evaluate((0, 0, 0, 0)) == pytest.approx(-1.0)


def test_canonicalization_is_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = random_poly(rng, 5)
        again = BinaryPolynomial(p.n_vars, p.terms)
        assert again == p


@pytest.mark.parametrize("support,index", [((-1,), -1), ((-2, 0), -2), ((0, 2), 2), ((-1, 5), -1)])
def test_out_of_range_index_is_rejected(support, index):
    # a negative index would alias x_{n+index} in evaluate and evaluate_all
    with pytest.raises(ValueError, match=f"variable index {index} out of range"):
        BinaryPolynomial(2, {support: 1.0})


@pytest.mark.parametrize("support,index", [((1.5,), "1.5"), ((True,), "True"), ((0, False), "False"),
                                           ((np.float64(1.0),), "np.float64(1.0)")])
def test_non_integer_index_is_rejected(support, index):
    # 1.5 and True both lie in 0..n_vars-1 but name no variable; a phase
    # layer takes its controls from these supports
    with pytest.raises(ValueError, match=f"^variable index {re.escape(index)} is not an integer$"):
        BinaryPolynomial(3, {support: 1.0})
    assert BinaryPolynomial(3, {(np.int64(2),): 1.0}).coefficient((2,)) == 1.0


@pytest.mark.parametrize("text,index", [("1.0 : -1", -1), ("2.5 : 0\n1.0 : 0 2", 2)])
def test_loads_poly_rejects_out_of_range_index(text, index):
    with pytest.raises(ValueError, match=f"variable index {index} out of range"):
        loads_poly(text, 2)


# exact zeros of both signs, ints and numpy scalars, which the private
# constructor must turn into the floats the public one stores
CANONICAL_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, -2, np.float64(0.0), np.float64(-0.0)]),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.floats(-1e6, 1e6).map(np.float64),
)


@st.composite
def canonical_dicts(draw):
    n = draw(st.integers(0, 10))
    support = st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(
        lambda s: tuple(sorted(s))) if n else st.just(())
    return n, draw(st.dictionaries(support, CANONICAL_COEFFS, max_size=24))


@given(canonical_dicts())
@example((3, {(0,): 0.0, (): -0.0, (1,): 3, (0, 2): np.float64(0.5), (2,): -0.0, (1, 2): 0}))
@settings(deadline=None)
def test_private_constructor_equals_public_on_canonical_dicts(case):
    n, terms = case
    got = BinaryPolynomial._from_canonical(n, terms)
    want = BinaryPolynomial(n, terms)
    assert got.n_vars == want.n_vars
    assert list(got.terms.items()) == list(want.terms.items())  # dict order too
    assert [type(c) for c in got.terms.values()] == [float] * len(want.terms)
    assert got.dumps() == want.dumps()


def test_value_register_width_reference_polynomial():
    p = fig_poly()
    assert p.degree == 3
    assert len(p.terms) == 3
    # exhaustive extrema of this polynomial are exactly -0.8 and 2
    assert _width(-0.8, 2.0) <= value_register_width(p) == 3


def test_value_register_width_constant():
    p = BinaryPolynomial.constant(5.0)
    assert p.degree == 0
    # both value bounds are the constant itself
    assert value_register_width(p) == _width(5.0, 5.0) == 4


def test_value_register_width_admits_exhaustive_range():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        p = random_poly(rng, n, int_coeffs=False)
        values = p.evaluate_all()
        assert _width(values.min(), values.max()) <= value_register_width(p)


def test_exhaustive_min_simple():
    p = BinaryPolynomial.variable(0, 1)
    x, v = p.exhaustive_min()
    assert x == (0,) and v == 0.0


def test_exhaustive_min_tie_break_is_lexicographic():
    # x1 XOR-ish landscape: minima at (0,1) and (1,0); lexicographic first wins
    p = BinaryPolynomial(2, {(0,): 1.0, (1,): 1.0, (0, 1): -2.0})
    x, v = p.exhaustive_min()
    assert v == 0.0
    assert x == (0, 0)  # value 0 also at (0,0); smallest vector kept
    q = BinaryPolynomial(2, {(): 1.0, (0,): -1.0, (1,): -1.0, (0, 1): 1.0})
    x, v = q.exhaustive_min()
    assert v == 0.0 and x == (0, 1)


def test_exhaustive_min_cap():
    with pytest.raises(ValueError):
        BinaryPolynomial.zero(25).exhaustive_min()


def test_evaluate_all_matches_pointwise():
    rng = np.random.default_rng(4)
    p = random_poly(rng, 6, int_coeffs=False)
    values = p.evaluate_all()
    for x in range(1 << 6):
        assert values[x] == p.evaluate(int_to_bits(x, 6))


@st.composite
def polynomials(draw):
    n = draw(st.integers(0, 10))
    support = st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(tuple) if n else st.just(())
    coeff = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(support, coeff, max_size=24))
    return BinaryPolynomial(n, terms)


@given(polynomials())
@example(BinaryPolynomial.zero(3))
@example(BinaryPolynomial.constant(-2.5, 4))
@settings(deadline=None)
def test_evaluate_all_equals_evaluate_exactly(p):
    values = p.evaluate_all()
    assert values.shape == (1 << p.n_vars,)
    for x in range(1 << p.n_vars):
        assert values[x] == p.evaluate(int_to_bits(x, p.n_vars))


def test_dump_format_and_round_trip():
    p = fig_poly()
    text = p.dumps()
    lines = text.splitlines()
    assert lines[0].startswith("1.0 :")          # constant first, empty support
    assert lines[1].endswith(": 0")              # then the linear term
    assert lines[2].endswith(": 1 2 3")          # then the cubic
    assert loads_poly(text, 4) == p


def sorted_terms_reference(p):
    """Graded order as one sort keyed on (degree, support)."""
    return sorted(p.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


def dumps_reference(p):
    """The dump format with each coefficient formatted on its own line."""
    lines = []
    for support, coeff in sorted_terms_reference(p):
        idxs = " ".join(str(i) for i in support)
        lines.append(f"{coeff!r} : {idxs}".rstrip())
    return "\n".join(lines)


# a few values drawn often, so most polynomials repeat coefficients, with
# subnormals, both infinities and NaN among them
DUMP_COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.1, 5e-324, -2.5e-310, float("inf"), float("-inf"), float("nan")]),
    st.floats(),
)


@st.composite
def dump_polynomials(draw, finite=False):
    # up to 40 variables, so indices have one and two digits
    n = draw(st.integers(0, 40))
    support = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 8)).map(tuple) \
        if n else st.just(())
    coeff = st.floats(allow_nan=False, allow_infinity=False) if finite else DUMP_COEFFS
    return BinaryPolynomial(n, draw(st.dictionaries(support, coeff, max_size=40)))


@given(dump_polynomials())
@example(BinaryPolynomial.zero(0))
@example(BinaryPolynomial.zero(40))
@example(BinaryPolynomial.constant(-2.5, 0))
@example(BinaryPolynomial.constant(float("nan"), 12))
@example(BinaryPolynomial(12, {(): 0.5, (11,): 0.5, (3, 10): float("inf"), (2, 4, 9): 0.5}))
@settings(deadline=None)
def test_dumps_and_sorted_terms_equal_their_references(p):
    assert p.sorted_terms() == sorted_terms_reference(p)
    assert p.dumps() == dumps_reference(p)


@given(dump_polynomials(finite=True))
@example(BinaryPolynomial.zero(7))
@example(BinaryPolynomial.constant(5e-324, 3))
@settings(deadline=None)
def test_dumps_round_trips_finite_coefficients(p):
    assert loads_poly(p.dumps(), p.n_vars) == p


def test_bit_conversions():
    assert int_to_bits(5, 4) == (0, 1, 0, 1)
    assert bits_to_int((0, 1, 0, 1)) == 5
    assert bits_to_int(int_to_bits(11, 5)) == 11
