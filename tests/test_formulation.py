import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    CoeffTable,
    Encoding,
    assignment_interference,
    bits_per_channel,
    build_formulation,
    build_quadratized,
    channel_codeword,
    channel_indicator,
    coeff_table,
    decode,
    default_quadratization_scale,
    encode_assignment,
    quadratize,
    synthetic_instance,
    variable_counts,
)
from gascap.formulation import (
    Quadratization,
    _hubo_from_table,
    codeword_indicator,
    dumps_formulation,
    formulation_from_table,
)
from gascap.poly import bits_to_int, int_to_bits

ASC = Encoding.BINARY_ASCENDING
DESC = Encoding.BINARY_DESCENDING


# -- codewords ------------------------------------------------------------


@pytest.mark.parametrize("c,n_ch,enc,want", [
    (1, 3, ASC, (0, 0)),
    (2, 3, ASC, (0, 1)),
    (3, 3, ASC, (1, 0)),
    (1, 3, DESC, (1, 1)),
    (2, 3, DESC, (1, 0)),
    (3, 3, DESC, (0, 1)),
    (1, 2, ASC, (0,)),
])
def test_channel_codewords(c, n_ch, enc, want):
    assert channel_codeword(c, n_ch, enc) == want


def test_codeword_errors():
    with pytest.raises(ValueError):
        channel_codeword(4, 3, ASC)
    with pytest.raises(ValueError):
        channel_codeword(1, 3, Encoding.ONE_HOT)


def test_codewords_are_bijective_for_power_of_two():
    for enc in (ASC, DESC):
        seen = {channel_codeword(c, 4, enc) for c in range(1, 5)}
        assert len(seen) == 4


def test_bits_per_channel():
    assert [bits_per_channel(n) for n in (2, 3, 4, 5, 8, 9, 64)] == [1, 2, 2, 3, 3, 4, 6]


# -- indicators -----------------------------------------------------------


def test_indicator_ascending_channel_two(instance):
    # codeword [0, 1]: (1 - x_i1) x_i2 = x_i2 - x_i1 x_i2
    ind = channel_indicator(0, 2, instance, ASC)
    assert ind.terms == {(1,): 1.0, (0, 1): -1.0}


def test_indicator_descending_channel_one(instance):
    # codeword [1, 1] is the single monomial x_i1 x_i2
    ind = channel_indicator(0, 1, instance, DESC)
    assert ind.terms == {(0, 1): 1.0}


def test_indicator_evaluates_as_kronecker(instance):
    n_b = bits_per_channel(instance.n_ch)
    for enc in (ASC, DESC):
        for c in range(1, instance.n_ch + 1):
            ind = channel_indicator(1, c, instance, enc)
            cw = channel_codeword(c, instance.n_ch, enc)
            for bits in itertools.product((0, 1), repeat=n_b):
                x = [0] * (instance.n_ap * n_b)
                x[n_b: 2 * n_b] = bits
                want = 1.0 if tuple(bits) == cw else 0.0
                assert ind.evaluate(tuple(x)) == pytest.approx(want)


def test_indicators_partition_the_cube():
    # sum over all codewords is the constant polynomial 1
    for n_b in (1, 2, 3):
        total = BinaryPolynomial.zero(n_b)
        for value in range(1 << n_b):
            bits = int_to_bits(value, n_b)
            total = total.add(codeword_indicator(0, bits, n_b, n_b))
        assert total.terms == {(): 1.0}


# -- one-hot objective ----------------------------------------------------


def test_qubo_reference_coefficients(qubo):
    lay = qubo.var_layout
    assert qubo.objective.coefficient([lay[(0, 1)], lay[(1, 1)]]) == pytest.approx(1.835, abs=1e-3)
    assert qubo.objective.coefficient([lay[(0, 2)], lay[(1, 2)]]) == pytest.approx(1.835, abs=1e-3)
    assert qubo.objective.constant_term == pytest.approx(4.0)
    assert qubo.objective.coefficient([lay[(0, 1)]]) == pytest.approx(-1.0)
    assert qubo.objective.coefficient([lay[(0, 1)], lay[(0, 2)]]) == pytest.approx(2.0)


def test_qubo_quadratic_term_count(instance, qubo):
    n_ap, n_ch = instance.n_ap, instance.n_ch
    quad = sum(1 for s in qubo.objective.terms if len(s) == 2)
    from math import comb
    assert quad == n_ch * comb(n_ap, 2) + n_ap * comb(n_ch, 2)


def test_qubo_rejects_nonpositive_penalty(instance):
    with pytest.raises(ValueError):
        build_formulation(instance, "qubo", 0.0)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_builders_reject_non_finite_penalty(instance, w):
    with pytest.raises(ValueError, match="finite"):
        build_formulation(instance, "qubo", w)
    with pytest.raises(ValueError, match="finite"):
        build_formulation(instance, "hubo-asc", w)


def test_builders_reject_coefficients_a_finite_penalty_overflows(instance):
    # w * N_AP and 2w overflow in the one-hot penalty; w' times the codeword
    # indicator's coefficients overflows, and opposite infinities sum to nan
    with pytest.raises(ValueError, match="not finite at penalty weight 1e"):
        build_formulation(instance, "qubo", 1e308)
    wide = synthetic_instance(6, 5, seed=0)
    for kind in ("hubo-asc", "hubo-desc"):
        with pytest.raises(ValueError, match="not finite at penalty weight 1e"):
            build_formulation(wide, kind, 1e308)


def test_qubo_max_matches_closed_form():
    # max over the cube equals N_CH * D_sum + w * N_AP * (N_CH - 1)^2
    for n_ap, n_ch, seed in [(4, 3, 0), (4, 2, 1), (3, 2, 2)]:
        inst = synthetic_instance(n_ap, n_ch, seed=seed)
        t = coeff_table(inst)
        form = build_formulation(inst, "qubo", 1.0, t)
        _, got = form.objective.exhaustive_max()
        want = n_ch * t.d_sum + 1.0 * n_ap * (n_ch - 1) ** 2
        assert got == pytest.approx(want)


# -- binary objectives ----------------------------------------------------


def test_hubo_term_counts(hubo_asc, hubo_desc):
    assert hubo_asc.objective.stats().term_count == 67
    assert hubo_desc.objective.stats().term_count == 55
    assert hubo_asc.objective.degree == 4
    assert hubo_desc.objective.degree == 4


def test_hubo_descending_quartic_coefficient(hubo_desc):
    # the expanded quartic collects one copy from each of the three channel
    # products: 3 * 1.835 = 5.505, the angle the compiled gate block carries
    assert hubo_desc.objective.coefficient([0, 1, 2, 3]) == pytest.approx(5.505, abs=2e-3)


def test_hubo_descending_penalty_terms(hubo_desc):
    # all four forbidden-codeword penalties carry the same +w' sign: the
    # constant collects exactly 4
    assert hubo_desc.objective.constant_term == pytest.approx(4.0)
    assert hubo_desc.objective.coefficient([0]) == pytest.approx(-1.0)


def test_hubo_power_of_two_has_no_penalty_and_identical_encodings():
    inst = synthetic_instance(3, 2, seed=5)
    t = coeff_table(inst)
    asc = build_formulation(inst, "hubo-asc", 1.0, t)
    desc = build_formulation(inst, "hubo-desc", 1.0, t)
    # no unused codeword exists, so the encodings expand identically
    assert asc.objective == desc.objective
    inst4 = synthetic_instance(5, 4, seed=6)
    t4 = coeff_table(inst4)
    asc4 = build_formulation(inst4, "hubo-asc", 1.0, t4)
    assert asc4.objective.degree == 2 * bits_per_channel(4)
    assert asc4.objective == build_formulation(inst4, "hubo-desc", 1.0, t4).objective


def test_semantic_equivalence_exhaustive():
    # every valid assignment scores identically under all three objectives
    for n_ap, n_ch, seed in [(4, 3, 7), (5, 4, 8), (4, 2, 9), (5, 3, 10)]:
        inst = synthetic_instance(n_ap, n_ch, seed=seed)
        t = coeff_table(inst)
        forms = [
            build_formulation(inst, "qubo", 1.0, t),
            build_formulation(inst, "hubo-asc", 1.0, t),
            build_formulation(inst, "hubo-desc", 1.0, t),
        ]
        for assign in itertools.product(range(1, n_ch + 1), repeat=n_ap):
            want = assignment_interference(inst, t, assign)
            for form in forms:
                got = form.objective.evaluate(encode_assignment(form, assign))
                assert got == pytest.approx(want, abs=1e-9)


def test_ascending_descending_value_multisets_match(hubo_asc, hubo_desc):
    va = np.sort(hubo_asc.objective.evaluate_all())
    vd = np.sort(hubo_desc.objective.evaluate_all())
    assert np.allclose(va, vd)


# -- quadratization -------------------------------------------------------


def test_quadratize_worked_example():
    p = BinaryPolynomial(3, {(0, 1, 2): 1.0})
    q = quadratize(p, scale=1.0)
    assert q.aux_map == (((0, 1), 3),)
    assert q.poly.terms == {
        (2, 3): 1.0,       # y x3
        (0, 1): 1.0,       # x1 x2
        (0, 3): -2.0,      # -2 x1 y
        (1, 3): -2.0,      # -2 x2 y
        (3,): 3.0,         # 3 y
    }


def test_quadratize_passthrough_for_quadratics(qubo):
    q = quadratize(qubo.objective, scale=1.0)
    assert q.aux_map == ()
    assert q.poly == qubo.objective


def test_quadratize_consistency_on_constrained_extension():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 4
        terms = {tuple(sorted(rng.choice(n, size=3, replace=False))): float(rng.integers(-3, 4))
                 for _ in range(3)}
        p = BinaryPolynomial(n, {k: v for k, v in terms.items() if v})
        q = quadratize(p, scale=default_quadratization_scale(p))
        for x in range(1 << n):
            bits = list(int_to_bits(x, n))
            ext = list(bits)
            for (a, b), _ in q.aux_map:
                ext.append(ext[a] * ext[b])
            assert q.poly.evaluate(tuple(ext)) == pytest.approx(p.evaluate(tuple(bits)))


def test_quadratize_reference_variable_count(hubo_asc):
    q = quadratize(hubo_asc.objective, default_quadratization_scale(hubo_asc.objective))
    assert q.poly.n_vars == 12
    assert q.poly.degree <= 2


def test_quadratize_preserves_minimum(hubo_asc, hubo_desc):
    for form in (hubo_asc, hubo_desc):
        _, want = form.objective.exhaustive_min()
        mx = form.objective.stats().max_abs_coeff
        for scale in (2 * mx, 4 * mx, default_quadratization_scale(form.objective)):
            q = quadratize(form.objective, scale)
            _, got = q.poly.exhaustive_min()
            assert got == pytest.approx(want, abs=1e-9)


def test_quadratize_rejects_nonpositive_scale(hubo_asc):
    with pytest.raises(ValueError):
        quadratize(hubo_asc.objective, 0.0)


# -- variable counts ------------------------------------------------------


def test_variable_counts_large_reference():
    vc = variable_counts(128, 64)
    assert vc.n == 8192
    assert vc.n_prime == 768
    assert vc.n_double_prime == 8064
    assert vc.log2_search_space == pytest.approx(768.0)


def test_variable_counts_small_reference():
    vc = variable_counts(4, 3)
    assert (vc.n, vc.n_prime, vc.n_double_prime) == (12, 8, 12)


def test_variable_counts_power_of_two_identity():
    for n_ap, n_ch in [(8, 4), (16, 8), (128, 64)]:
        vc = variable_counts(n_ap, n_ch)
        assert vc.n_double_prime == vc.n - n_ap


def test_variable_counts_rejects_single_channel():
    with pytest.raises(ValueError):
        variable_counts(4, 1)


# -- decoding -------------------------------------------------------------


def test_decode_one_hot(qubo):
    x = encode_assignment(qubo, (2, 1, 3, 2))
    res = decode(qubo, x)
    assert res.valid and res.assignment == (2, 1, 3, 2)
    bad = list(x)
    bad[0] = 1  # first AP row becomes (1, 1, 0)
    res = decode(qubo, tuple(bad))
    assert not res.valid
    assert any("one-hot" in v for v in res.violations)


def test_decode_binary(hubo_asc, hubo_desc):
    assert decode(hubo_desc, (1, 1) + (1, 0) * 3).assignment == (1, 2, 2, 2)
    res = decode(hubo_asc, (1, 1) + (0, 0) * 3)
    assert not res.valid
    assert "nonexistent channel 4" in res.violations[0]


def test_decode_round_trip(hubo_asc, hubo_desc, qubo):
    for form in (hubo_asc, hubo_desc, qubo):
        for assign in itertools.product((1, 2, 3), repeat=4):
            assert decode(form, encode_assignment(form, assign)).assignment == assign


def test_formulation_dump_has_header(hubo_desc):
    text = dumps_formulation(hubo_desc)
    first = text.splitlines()[0]
    assert first.startswith("#") and '"binary_descending"' in first and '"n_vars": 8' in first


# -- input validation -----------------------------------------------------


@pytest.mark.parametrize("n_ch,kind,penalty", [
    (3, "hubo-asc", math.nan),
    (3, "hubo-desc", -1.0),
    (3, "qubo", math.inf),
    (3, "qubo", 0.0),
    (1, "hubo-desc", 1.0),
    (1, "hubo-asc", 1.0),
    (0, "qubo", 1.0),
])
def test_formulation_from_table_validates_inputs(n_ch, kind, penalty):
    with pytest.raises(ValueError):
        formulation_from_table(CoeffTable.uniform(4, 1.0), n_ch, kind, penalty)


def test_formulation_from_table_one_hot_single_channel():
    form = formulation_from_table(CoeffTable.uniform(4, 1.0), 1, "qubo", 1.0)
    assert form.n_vars == 4


def test_build_formulation_rejects_unknown_kind(instance, table):
    with pytest.raises(ValueError, match="unknown formulation kind"):
        build_formulation(instance, "hubo", 1.0, table)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, -1.0])
def test_quadratize_rejects_non_finite_scale(hubo_asc, scale):
    with pytest.raises(ValueError, match="finite"):
        quadratize(hubo_asc.objective, scale)


def test_formulation_kind_names(qubo, hubo_asc, hubo_desc):
    forms = (qubo, hubo_asc, hubo_desc)
    assert [f.encoding.value for f in forms] == ["qubo", "hubo-asc", "hubo-desc"]


def test_encoding_output_labels():
    assert [e.label for e in Encoding] == ["one_hot", "binary_ascending", "binary_descending"]
    assert Encoding("hubo-desc") is Encoding.BINARY_DESCENDING
    with pytest.raises(ValueError, match="unknown formulation kind"):
        Encoding("one_hot")


def test_build_quadratized_is_quadratized_hubo_asc(instance, table, hubo_asc):
    q = build_quadratized(instance, 1.0, table)
    want = quadratize(hubo_asc.objective, default_quadratization_scale(hubo_asc.objective))
    assert q == want
    assert list(q.poly.terms.items()) == list(want.poly.terms.items())


# -- fast paths against their per-pair and per-substitution references ----


def hubo_from_table_reference(table, n_ch, enc, w_prime):
    """Expansion with one immutable ``add`` per AP pair, kept as the slow
    reference for the template-based ``_hubo_from_table``."""
    n_ap = table.n_ap
    n_b = bits_per_channel(n_ch)
    n_vars = n_ap * n_b
    codewords = {c: channel_codeword(c, n_ch, enc) for c in range(1, n_ch + 1)}
    indicators = {
        (i, c): codeword_indicator(i, codewords[c], n_vars, n_b)
        for i in range(n_ap)
        for c in range(1, n_ch + 1)
    }
    objective = BinaryPolynomial.zero(n_vars)
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            pair = BinaryPolynomial.zero(n_vars)
            for c in range(1, n_ch + 1):
                pair = pair.add(indicators[(i, c)].multiply(indicators[(k, c)]))
            objective = objective.add(pair.scale(float(table.d[i, k])))
    used = {bits_to_int(cw) for cw in codewords.values()}
    for value in range(1 << n_b):
        if value in used:
            continue
        bits = tuple((value >> (n_b - 1 - r)) & 1 for r in range(n_b))
        for i in range(n_ap):
            objective = objective.add(codeword_indicator(i, bits, n_vars, n_b).scale(w_prime))
    return objective


def quadratize_reference(p, scale):
    """Substitution that recounts every pair and rebuilds the term dict on
    each step, kept as the slow reference for ``quadratize``."""
    terms = dict(p.terms)
    n_vars = p.n_vars
    aux_map = []
    while True:
        freq = {}
        for support in terms:
            if len(support) < 3:
                continue
            for a_pos in range(len(support)):
                for b_pos in range(a_pos + 1, len(support)):
                    pair = (support[a_pos], support[b_pos])
                    freq[pair] = freq.get(pair, 0) + 1
        if not freq:
            break
        best = max(freq.items(), key=lambda kv: (kv[1], tuple(-i for i in kv[0])))[0]
        a, b = best
        y = n_vars
        n_vars += 1
        aux_map.append(((a, b), y))
        new_terms = {}
        for support, coeff in terms.items():
            if len(support) >= 3 and a in support and b in support:
                support = tuple(sorted(set(support) - {a, b} | {y}))
            new_terms[support] = new_terms.get(support, 0.0) + coeff
        penalty = {
            (a, b): scale,
            tuple(sorted((a, y))): -2.0 * scale,
            tuple(sorted((b, y))): -2.0 * scale,
            (y,): 3.0 * scale,
        }
        for support, coeff in penalty.items():
            new_terms[support] = new_terms.get(support, 0.0) + coeff
        terms = {s: c for s, c in new_terms.items() if c != 0.0}
    return Quadratization(poly=BinaryPolynomial(n_vars, terms), aux_map=tuple(aux_map))


# a few values repeat across pairs, 0 drops a pair, and opposite signs make
# AP-local terms cancel exactly and come back at the end of the dict
D_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.5, 1.835, -0.75]),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


@st.composite
def pair_tables(draw):
    n_ap = draw(st.integers(2, 9))
    d = np.zeros((n_ap, n_ap))
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            d[i, k] = d[k, i] = draw(D_VALUES)
    # only n_ap and d are read, so the table may hold zero or negative d_ik
    return SimpleNamespace(n_ap=n_ap, d=d)


@given(
    pair_tables(),
    st.integers(2, 9),
    st.sampled_from([ASC, DESC]),
    st.one_of(st.sampled_from([1.0, 2.5]), st.floats(1e-3, 1e3)),
)
@example(SimpleNamespace(n_ap=4, d=np.array([[0, 1, -1, 1], [1, 0, 0, 0], [-1, 0, 0, 2], [1, 0, 2, 0.0]])),
         3, ASC, 1.0)
@settings(deadline=None, max_examples=40)
def test_hubo_template_matches_per_pair_expansion(table, n_ch, enc, w_prime):
    got = _hubo_from_table(table, n_ch, enc, w_prime).objective
    want = hubo_from_table_reference(table, n_ch, enc, w_prime)
    assert got.n_vars == want.n_vars
    assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("kind", ["hubo-asc", "hubo-desc"])
def test_hubo_template_matches_on_uniform_sweep(kind):
    for n_ap in range(4, 11):
        t = CoeffTable.uniform(n_ap, 1.0)
        form = formulation_from_table(t, n_ap // 2, kind, 1.0)
        want = hubo_from_table_reference(t, n_ap // 2, form.encoding, 1.0)
        assert list(form.objective.terms.items()) == list(want.terms.items())


@st.composite
def high_degree_polynomials(draw):
    n = draw(st.integers(0, 10))
    support = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 6)).map(
        lambda s: tuple(sorted(s))) if n else st.just(())
    coeff = st.one_of(st.integers(-4, 4).map(float),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    terms = draw(st.dictionaries(support, coeff, max_size=20))
    return BinaryPolynomial(n, terms)


def first_pair(p):
    freq = {}
    for s in p.terms:
        if len(s) >= 3:
            for pair in itertools.combinations(s, 2):
                freq[pair] = freq.get(pair, 0) + 1
    if not freq:
        return None
    return max(freq, key=lambda pair: (freq[pair], -pair[0], -pair[1]))


@given(high_degree_polynomials(), st.sampled_from([1.0, 3.0, 0.5, 17.25]), st.booleans())
@example(BinaryPolynomial(4, {(0, 1, 2): 1.0, (0, 1, 3): 2.0, (0, 1): -3.0, (2,): 1.0}), 3.0, False)
@settings(deadline=None)
def test_quadratize_matches_reference(p, scale, cancel):
    pair = first_pair(p)
    if cancel and pair is not None:
        # an existing (a, b) term that the first penalty cancels exactly
        terms = dict(p.terms)
        terms[pair] = -scale
        p = BinaryPolynomial(p.n_vars, terms)
    got = quadratize(p, scale)
    want = quadratize_reference(p, scale)
    assert got.aux_map == want.aux_map
    assert got.poly.n_vars == want.poly.n_vars
    assert list(got.poly.terms.items()) == list(want.poly.terms.items())


def test_quadratize_matches_reference_on_objectives(hubo_asc, hubo_desc):
    t = CoeffTable.uniform(8, 1.0)
    forms = [hubo_asc, hubo_desc, formulation_from_table(t, 4, "hubo-asc", 2.5)]
    for form in forms:
        scale = default_quadratization_scale(form.objective)
        got = quadratize(form.objective, scale)
        want = quadratize_reference(form.objective, scale)
        assert got.aux_map == want.aux_map
        assert list(got.poly.terms.items()) == list(want.poly.terms.items())
