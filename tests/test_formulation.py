import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    CoeffTable,
    Encoding,
    assignment_interference,
    bits_per_channel,
    build_formulation,
    channel_codeword,
    closed_form_resources,
    coeff_table,
    decode,
    default_quadratization_scale,
    encode_assignment,
    quadratize,
    synthetic_instance,
    variable_counts,
)
from gascap.formulation import (
    DecodeResult,
    Formulation,
    Quadratization,
    codeword_indicator,
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
    assert channel_codeword(1, 3, Encoding.ONE_HOT) == (1, 0, 0)


def test_codewords_are_bijective_for_power_of_two():
    for enc in (ASC, DESC):
        seen = {channel_codeword(c, 4, enc) for c in range(1, 5)}
        assert len(seen) == 4


def test_bits_per_channel():
    assert [bits_per_channel(n) for n in (2, 3, 4, 5, 8, 9, 64)] == [1, 2, 2, 3, 3, 4, 6]


# -- indicators -----------------------------------------------------------


def channel_indicator(i, c, inst, enc):
    """Indicator that AP i's slots spell channel c's binary codeword."""
    n_b = bits_per_channel(inst.n_ch)
    return codeword_indicator(i, channel_codeword(c, inst.n_ch, enc), inst.n_ap * n_b, n_b)


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
    def var(ap, c):  # AP ap on channel c
        return ap * qubo.n_ch + c - 1

    assert qubo.objective.coefficient([var(0, 1), var(1, 1)]) == pytest.approx(1.835, abs=1e-3)
    assert qubo.objective.coefficient([var(0, 2), var(1, 2)]) == pytest.approx(1.835, abs=1e-3)
    assert qubo.objective.constant_term == pytest.approx(4.0)
    assert qubo.objective.coefficient([var(0, 1)]) == pytest.approx(-1.0)
    assert qubo.objective.coefficient([var(0, 1), var(0, 2)]) == pytest.approx(2.0)


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


@pytest.mark.parametrize("kind", ["qubo", "hubo-asc", "hubo-desc"])
@pytest.mark.parametrize("w", [2, np.float64(2.0)])
def test_builders_give_float_coefficients_at_any_real_penalty(instance, table, kind, w):
    # the objective keeps the builder's dict as built, so an int or numpy
    # penalty must not leave its type in a coefficient (numpy's repr would
    # reach the .poly files)
    got = build_formulation(instance, kind, w, table).objective
    assert {type(c) for c in got.terms.values()} == {float}
    assert got.dumps() == build_formulation(instance, kind, 2.0, table).objective.dumps()


@pytest.mark.parametrize("kind", ["qubo", "hubo-asc", "hubo-desc"])
@pytest.mark.parametrize("integer", [int, np.int64, np.int32])
def test_counts_accept_any_integer_type(kind, integer):
    # a numpy count works as an int, and no numpy type reaches a support
    # or a field (numpy's repr would reach the outputs)
    n_ap, n_ch = integer(4), integer(3)
    form = formulation_from_table(CoeffTable.uniform(4), n_ch, kind)
    assert form == formulation_from_table(CoeffTable.uniform(4), 3, kind)
    assert type(form.n_ch) is int and type(form.n_ap) is int
    assert {type(v) for s in form.objective.terms for v in s} == {int}
    enc = Encoding(kind)
    assert bits_per_channel(n_ch) == 2 and channel_codeword(2, n_ch, enc) == \
        channel_codeword(2, 3, enc)
    assert variable_counts(n_ap, n_ch) == variable_counts(4, 3)
    assert closed_form_resources(n_ap, n_ch, 6.0, 1.0, kind) == \
        closed_form_resources(4, 3, 6.0, 1.0, kind)


@pytest.mark.parametrize("call", [
    lambda: formulation_from_table(CoeffTable.uniform(4), 3.0, "qubo"),
    lambda: formulation_from_table(CoeffTable.uniform(4), 3.0, "hubo-asc"),
    lambda: bits_per_channel(3.0),
    lambda: channel_codeword(1, 3.0, Encoding.ONE_HOT),
    lambda: variable_counts(4.0, 3),
    lambda: closed_form_resources(4, 3.0, 6.0, 1.0, "qubo"),
], ids=["qubo", "hubo-asc", "bits_per_channel", "channel_codeword", "variable_counts",
        "closed_form_resources"])
def test_a_float_count_raises_type_error(call):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        call()


@pytest.mark.parametrize("enc", list(Encoding))
@pytest.mark.parametrize("integer", [int, np.int64, np.int32])
def test_channels_accept_any_integer_type(instance, table, enc, integer):
    # a numpy channel spells the int's codeword, in Python ints
    for c in range(1, 4):
        got = channel_codeword(integer(c), 3, enc)
        assert got == channel_codeword(c, 3, enc)
        assert {type(b) for b in got} == {int}
    form = formulation_from_table(table, 3, enc.value)
    bits = encode_assignment(form, np.array([1, 2, 3, 1], dtype=integer))
    assert bits == encode_assignment(form, (1, 2, 3, 1))
    assert {type(b) for b in bits} == {int}
    assign = tuple(map(integer, (2, 1, 3, 2)))
    assert assignment_interference(instance, table, assign) == \
        assignment_interference(instance, table, (2, 1, 3, 2))


@pytest.mark.parametrize("enc", list(Encoding))
def test_a_float_channel_raises_type_error(instance, table, enc):
    # 1.5 was once scored as a channel of its own, and 2.0 as channel 2
    form = formulation_from_table(table, 3, enc.value)
    for call in (lambda: channel_codeword(2.0, 3, enc),
                 lambda: encode_assignment(form, (1.0, 2, 3, 1)),
                 lambda: assignment_interference(instance, table, (1.5, 1, 2, 3)),
                 lambda: assignment_interference(instance, table, (2.0, 1, 3, 2))):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            call()


def test_builders_reject_coefficients_a_finite_penalty_overflows(instance):
    # w * N_AP and 2w overflow in the one-hot penalty; w' times the codeword
    # indicator's coefficients overflows, and opposite infinities sum to nan
    with pytest.raises(ValueError, match="not finite at penalty weight 1e"):
        build_formulation(instance, "qubo", 1e308)
    wide = synthetic_instance(6, 5, seed=0)
    for kind in ("hubo-asc", "hubo-desc"):
        with pytest.raises(ValueError, match="not finite at penalty weight 1e"):
            build_formulation(wide, kind, 1e308)


def test_a_non_finite_coefficient_is_named_by_its_first_term():
    objective = BinaryPolynomial(3, {(0,): 1.0, (1,): math.inf, (0, 2): math.nan, (2,): -math.inf})
    with pytest.raises(ValueError) as info:
        Formulation(Encoding.ONE_HOT, objective, 2.5, 3, 1, 1.0)
    assert str(info.value) == "coefficient inf of term (1,) is not finite at penalty weight 2.5"
    objective = BinaryPolynomial(2, {(0, 1): math.nan, (): 4.0})
    with pytest.raises(ValueError, match=r"^coefficient nan of term \(0, 1\) is not finite"):
        Formulation(Encoding.BINARY_ASCENDING, objective, 1.0, 2, 3, 1.0)
    # finite coefficients whose sum overflows are finite
    objective = BinaryPolynomial(2, {(0,): 1e308, (1,): 1e308, (0, 1): -1.0})
    assert Formulation(Encoding.BINARY_ASCENDING, objective, 1.0, 2, 3, 1.0).objective is objective


@pytest.mark.parametrize("kind", ["qubo", "hubo-asc", "hubo-desc"])
def test_a_formulation_carries_its_tables_d_sum(kind):
    inst = synthetic_instance(6, 3, seed=2)
    table = coeff_table(inst)
    uniform = CoeffTable.uniform(5, 0.7)
    for form, want in [
        (build_formulation(inst, kind, 1.0, table), table),
        (build_formulation(inst, kind, 2.5), table),  # builds its own table
        (formulation_from_table(table, inst.n_ch, kind, 0.3), table),
        (formulation_from_table(uniform, 4, kind, 1.0), uniform),
    ]:
        assert type(form.d_sum) is float
        assert form.d_sum.hex() == want.d_sum.hex()


def test_qubo_max_matches_closed_form():
    # max over the cube equals N_CH * D_sum + w * N_AP * (N_CH - 1)^2
    for n_ap, n_ch, seed in [(4, 3, 0), (4, 2, 1), (3, 2, 2)]:
        inst = synthetic_instance(n_ap, n_ch, seed=seed)
        t = coeff_table(inst)
        form = build_formulation(inst, "qubo", 1.0, t)
        got = form.objective.evaluate_all().max()
        want = n_ch * t.d_sum + 1.0 * n_ap * (n_ch - 1) ** 2
        assert got == pytest.approx(want)


# -- binary objectives ----------------------------------------------------


def test_hubo_term_counts(hubo_asc, hubo_desc):
    assert len(hubo_asc.objective.terms) == 67
    assert len(hubo_desc.objective.terms) == 55
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
        mx = max(map(abs, form.objective.terms.values()))
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
    assert res.violations == ("AP 0: slots (1, 1, 0) spell no channel",)


def test_decode_binary(hubo_asc, hubo_desc):
    assert decode(hubo_desc, (1, 1) + (1, 0) * 3).assignment == (1, 2, 2, 2)
    res = decode(hubo_asc, (1, 1) + (0, 0) * 3)
    assert not res.valid
    assert res.violations == ("AP 0: slots (1, 1) spell no channel",)


def test_decode_round_trip(hubo_asc, hubo_desc, qubo):
    for form in (hubo_asc, hubo_desc, qubo):
        for assign in itertools.product((1, 2, 3), repeat=4):
            assert decode(form, encode_assignment(form, assign)).assignment == assign


@pytest.mark.parametrize("n_ap", [2, 3])
@pytest.mark.parametrize("n_ch", range(2, 10))
@pytest.mark.parametrize("enc", list(Encoding))
def test_codeword_map_is_inverted_by_decode(enc, n_ch, n_ap):
    form = formulation_from_table(CoeffTable.uniform(n_ap, 1.0), n_ch, enc.value)
    codewords = [channel_codeword(c, n_ch, enc) for c in range(1, n_ch + 1)]
    width = len(codewords[0])
    assert len(set(codewords)) == n_ch
    assert all(len(cw) == width for cw in codewords)
    assert form.n_vars == n_ap * width
    if enc is Encoding.ONE_HOT:
        assert codewords == [tuple(int(r == c) for r in range(n_ch)) for c in range(n_ch)]
    for assign in itertools.product(range(1, n_ch + 1), repeat=n_ap):
        x = encode_assignment(form, assign)
        assert decode(form, x) == DecodeResult(assign)
        assert decode(form, 3 * np.array(x)) == DecodeResult(assign)  # read by truthiness
    # every other slot row, at each AP in turn, is one violation naming that AP
    valid = codewords[-1]
    for row in itertools.product((0, 1), repeat=width):
        if row in codewords:
            continue
        for i in range(n_ap):
            x = valid * i + row + valid * (n_ap - 1 - i)
            assert decode(form, x) == DecodeResult(None, (f"AP {i}: slots {row} spell no channel",))


@st.composite
def sized_tables(draw):
    """A ``CoeffTable`` of 2-5 APs with heavy-tailed costs, its channel
    count and a kind whose bit cube has at most 2^16 keys."""
    n_ap, n_ch = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    kinds = ["hubo-asc", "hubo-desc"] + (["qubo"] if n_ap * n_ch <= 16 else [])
    cost = st.floats(-2, 4).map(lambda e: 10.0 ** e)
    c = np.zeros((n_ap, n_ap))
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            c[i, k] = c[k, i] = draw(cost)
    return CoeffTable(c), n_ch, draw(st.sampled_from(kinds))


@given(sized_tables())
# N_CH + 1 APs at equal costs: every channel costs an AP w*, so at 0.99 w*
# the minimum leaves one AP without a channel
@example((CoeffTable.uniform(3), 2, "qubo"))
@example((CoeffTable.uniform(4), 3, "hubo-asc"))
@example((CoeffTable.uniform(4), 3, "hubo-desc"))
@settings(deadline=None, max_examples=60)
def test_minimum_is_an_assignment_above_the_penalty_bound(case):
    # above w* = max_i sum_k d_ik / N_CH an AP that spells no channel pays
    # more than its cheapest channel would cost it
    table, n_ch, kind = case
    w = 1.01 * max(table.d.sum(axis=1)) / n_ch
    form = formulation_from_table(table, n_ch, kind, w)
    x, _ = form.objective.exhaustive_min()
    assert decode(form, x).valid


@given(sized_tables(), st.floats(1e-2, 1e2), st.data())
@settings(deadline=None, max_examples=60)
def test_a_one_hot_row_with_several_bits_gains_by_keeping_one(case, w, data):
    # the bound's first step, at any w > 0: j >= 2 bits pay w (j - 1)^2, one
    # bit pays nothing, and clearing bits adds no co-channel cost
    table, n_ch, _ = case
    n_ap = table.n_ap
    assume(n_ap * n_ch <= 16)
    form = formulation_from_table(table, n_ch, "qubo", w)
    x = data.draw(st.lists(st.integers(0, 1), min_size=n_ap * n_ch, max_size=n_ap * n_ch))
    i = data.draw(st.integers(0, n_ap - 1))
    ones = data.draw(st.lists(st.integers(0, n_ch - 1), min_size=2, unique=True))
    keep = data.draw(st.sampled_from(ones))
    x[i * n_ch:(i + 1) * n_ch] = [int(r in ones) for r in range(n_ch)]
    cleared = list(x)
    cleared[i * n_ch:(i + 1) * n_ch] = [int(r == keep) for r in range(n_ch)]
    assert form.objective.evaluate(cleared) < form.objective.evaluate(x)


@given(sized_tables(), st.lists(st.integers(0, 15), min_size=5, max_size=5), st.integers(0, 4))
# N_CH + 1 APs at equal costs, the others on every channel: each channel
# costs the AP that spells none exactly w*, so the step is tight
@example((CoeffTable.uniform(4), 3, "qubo"), [0, 0, 1, 2, 0], 0)
@example((CoeffTable.uniform(4), 3, "hubo-asc"), [0, 0, 1, 2, 0], 0)
@example((CoeffTable.uniform(4), 3, "hubo-desc"), [0, 0, 1, 2, 0], 0)
@settings(deadline=None, max_examples=60)
def test_an_ap_that_spells_no_channel_gains_by_moving_to_its_cheapest(case, picks, i):
    # the bound's second step, at w = 1.01 w*: such an AP pays w and no
    # co-channel cost, and its cheapest channel costs at most sum_k d_ik / N_CH
    table, n_ch, kind = case
    n_ap, i = table.n_ap, i % table.n_ap
    form = formulation_from_table(table, n_ch, kind, 1.01 * max(table.d.sum(axis=1)) / n_ch)
    enc = form.encoding
    codewords = [channel_codeword(c, n_ch, enc) for c in range(1, n_ch + 1)]
    if enc is Encoding.ONE_HOT:
        width, empty = n_ch, [(0,) * n_ch]   # rows with more bits are the first step's
    else:
        width = bits_per_channel(n_ch)
        empty = [row for row in itertools.product((0, 1), repeat=width) if row not in codewords]
    # every other row spells at most one channel
    allowed = codewords + empty
    x = [b for r in picks[:n_ap] for b in allowed[r % len(allowed)]]
    for row in empty:
        x[i * width:(i + 1) * width] = row
        moved = []
        for cw in codewords:
            y = list(x)
            y[i * width:(i + 1) * width] = cw
            moved.append(form.objective.evaluate(y))
        assert min(moved) < form.objective.evaluate(x)


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


# -- fast paths against their per-pair and per-substitution references ----


def qubo_from_table_reference(table, n_ch, w):
    """Direct one-hot construction, AP i on channel c + 1 as variable
    i * n_ch + c, kept as the reference for the template-based builder; the
    constant is w summed once per AP, as the builder adds it."""
    n_ap = table.n_ap
    terms = {}
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            for c in range(n_ch):
                terms[(i * n_ch + c, k * n_ch + c)] = float(table.d[i, k])
    # (sum_c x - 1)^2 = 1 - sum_c x + 2 sum_{c<l} x_c x_l  on binary variables;
    # one rounded addition per AP, which builtin sum need not do
    terms[()] = 0.0
    for _ in range(n_ap):
        terms[()] += w
    for i in range(n_ap):
        for c in range(n_ch):
            terms[(i * n_ch + c,)] = -w
        for c in range(n_ch):
            for l in range(c + 1, n_ch):
                terms[(i * n_ch + c, i * n_ch + l)] = 2.0 * w
    return BinaryPolynomial._from_canonical(n_ap * n_ch, terms)


def hubo_from_table_reference(table, n_ch, enc, w_prime):
    """Expansion with one immutable ``add`` per AP pair, kept as the slow
    reference for the template-based builder."""
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


def fake_table(d) -> SimpleNamespace:
    """A stand-in for ``CoeffTable``: the builders read only n_ap, d and
    d_sum, so d may hold zero or negative d_ik."""
    n_ap = d.shape[0]
    return SimpleNamespace(n_ap=n_ap, d=d, d_sum=float(d[np.triu_indices(n_ap, k=1)].sum()))


@st.composite
def pair_tables(draw):
    n_ap = draw(st.integers(2, 9))
    d = np.zeros((n_ap, n_ap))
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            d[i, k] = d[k, i] = draw(D_VALUES)
    return fake_table(d)


@given(
    pair_tables(),
    st.integers(2, 9),
    st.sampled_from([ASC, DESC]),
    st.one_of(st.sampled_from([1.0, 2.5]), st.floats(1e-3, 1e3)),
)
@example(fake_table(np.array([[0, 1, -1, 1], [1, 0, 0, 0], [-1, 0, 0, 2], [1, 0, 2, 0.0]])),
         3, ASC, 1.0)
# seven non-codeword rows, whose pieces cancel and re-add supports: the term
# order shows whether they are added piece by piece or AP by AP
@example(fake_table(np.array([[0, 1.0], [1.0, 0]])), 9, DESC, 1.0)
@settings(deadline=None, max_examples=40)
def test_hubo_template_matches_per_pair_expansion(table, n_ch, enc, w_prime):
    got = formulation_from_table(table, n_ch, enc.value, w_prime).objective
    want = hubo_from_table_reference(table, n_ch, enc, w_prime)
    assert got.n_vars == want.n_vars
    assert list(got.terms.items()) == list(want.terms.items())


@given(
    pair_tables(),
    st.integers(1, 9),
    st.one_of(st.sampled_from([1.0, 2.5]), st.floats(1e-3, 1e3)),
)
@example(fake_table(np.array([[0, 1, -1, 1], [1, 0, 0, 0], [-1, 0, 0, 2], [1, 0, 2, 0.0]])),
         3, 1.835)
@settings(deadline=None, max_examples=40)
def test_qubo_template_matches_direct_construction(table, n_ch, w):
    got = formulation_from_table(table, n_ch, "qubo", w).objective
    want = qubo_from_table_reference(table, n_ch, w)
    assert got.n_vars == want.n_vars
    assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("w", [1.0, 2.5])
@pytest.mark.parametrize("n_ap", range(2, 12))
def test_qubo_constant_is_w_times_n_ap_at_pinned_penalties(n_ap, w):
    form = formulation_from_table(CoeffTable.uniform(n_ap, 1.0), 3, "qubo", w)
    assert form.objective.constant_term == w * n_ap


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


def with_cancelling_pair(p, scale):
    """``p`` with its first substituted pair's term set to -scale, so that
    the first penalty cancels it to exactly 0.0."""
    pair = first_pair(p)
    if pair is None:
        return p
    terms = dict(p.terms)
    terms[pair] = -scale
    return BinaryPolynomial(p.n_vars, terms)


@given(high_degree_polynomials(), st.sampled_from([1.0, 3.0, 0.5, 17.25]), st.booleans())
@example(BinaryPolynomial(4, {(0, 1, 2): 1.0, (0, 1, 3): 2.0, (0, 1): -3.0, (2,): 1.0}), 3.0, False)
# the cubic term uses 3 of the 12 variables: most of the pair table's rows
# are never touched
@example(BinaryPolynomial(12, {(0,): 1.5, (7, 8, 9): 2.0, (7, 8): -1.0}), 3.0, False)
@settings(deadline=None)
def test_quadratize_matches_reference(p, scale, cancel):
    if cancel:
        p = with_cancelling_pair(p, scale)
    got = quadratize(p, scale)
    want = quadratize_reference(p, scale)
    assert got.aux_map == want.aux_map
    assert got.poly.n_vars == want.poly.n_vars
    assert list(got.poly.terms.items()) == list(want.poly.terms.items())


def quadratize_pair_count_reference(p, scale):
    """``quadratize`` as it was while its pair counts lived in a dict updated
    pair by pair in Python and each substitution scanned every slot: the
    reference for the counter and the per-variable slot sets."""

    def count_pairs(freq, support, delta):
        for a_pos in range(len(support)):
            for b_pos in range(a_pos + 1, len(support)):
                pair = (support[a_pos], support[b_pos])
                count = freq.get(pair, 0) + delta
                if count:
                    freq[pair] = count
                else:
                    del freq[pair]

    slots = [[s, c] for s, c in p.terms.items()]
    index = {s: j for j, (s, _) in enumerate(slots)}
    freq = {}
    for s in index:
        if len(s) >= 3:
            count_pairs(freq, s, 1)
    n_vars = p.n_vars
    aux_map = []
    while freq:
        a, b = max(freq, key=lambda pair: (freq[pair], -pair[0], -pair[1]))
        y = n_vars
        n_vars += 1
        aux_map.append(((a, b), y))
        for j, slot in enumerate(slots):
            s = slot[0]
            if len(s) < 3 or a not in s or b not in s:
                continue
            new = tuple(v for v in s if v != a and v != b) + (y,)
            count_pairs(freq, s, -1)
            if len(new) >= 3:
                count_pairs(freq, new, 1)
            del index[s]
            index[new] = j
            slot[0] = new
        j = index.get((a, b))
        if j is not None:
            slots[j][1] += scale
        else:
            index[(a, b)] = len(slots)
            slots.append([(a, b), scale])
        for support, coeff in (((a, y), -2.0 * scale), ((b, y), -2.0 * scale), ((y,), 3.0 * scale)):
            index[support] = len(slots)
            slots.append([support, coeff])
    return Quadratization(poly=BinaryPolynomial(n_vars, dict(slots)), aux_map=tuple(aux_map))


@st.composite
def crowded_polynomials(draw):
    """Up to 12 terms of degree up to 6 on at most 7 variables, so that the
    highest pair count is often shared by several pairs."""
    n = draw(st.integers(3, 7))
    support = st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=6).map(
        lambda s: tuple(sorted(s)))
    coeff = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    return BinaryPolynomial(n, draw(st.dictionaries(support, coeff, max_size=12)))


# (0, 1) and (2, 3) both occur in two cubic terms: the tie goes to (0, 1)
TIED = BinaryPolynomial(6, {(2, 3, 4): 1.0, (2, 3, 5): 2.0, (0, 1, 4): -1.0, (0, 1, 5): 0.5})


@given(st.one_of(high_degree_polynomials(), crowded_polynomials()),
       st.sampled_from([1.0, 3.0, 0.5, 17.25]), st.booleans())
@example(TIED, 1.0, False)
@example(TIED, 0.5, True)
@example(BinaryPolynomial(5, {(0, 1, 2, 3, 4): 1.0, (0, 1, 2): -1.0, (2, 3, 4): 2.0}), 3.0, True)
@settings(deadline=None, max_examples=200)
def test_quadratize_matches_pair_count_reference(p, scale, cancel):
    if cancel:
        p = with_cancelling_pair(p, scale)
    got = quadratize(p, scale)
    want = quadratize_pair_count_reference(p, scale)
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


@st.composite
def wide_polynomials(draw):
    """Up to 60 terms of degree up to 8 on up to 40 variables.  About half
    the runs make more auxiliaries than there are variables, so they
    outgrow the first pair table (twice the variables), and rows fall to
    degree 2 on pairs that are substituted later."""
    n = draw(st.integers(3, 40))
    count = draw(st.integers(1, 60))
    support = st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=min(n, 8)).map(
        lambda s: tuple(sorted(s)))
    coeff = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    terms = st.dictionaries(support, coeff, min_size=count, max_size=count)
    return BinaryPolynomial(n, draw(terms))


# 13 auxiliaries on 10 variables: the pair table doubles at the 11th
GROWS = BinaryPolynomial(10, {s: 1.0 + i for i, s in enumerate(
    itertools.islice(itertools.combinations(range(10), 8), 12))})
# (0, 1) -> 5 leaves (2, 5) from the cubic term, then (2, 5) is substituted
# and its penalty lands on that slot
FALLS_ON_PAIR = BinaryPolynomial(5, {(0, 1, 2): -1.0, (0, 1, 2, 3): 2.0, (0, 1, 2, 4): -1.5})


@given(wide_polynomials(), st.sampled_from([1.0, 3.0, 0.5, 17.25]), st.booleans())
@example(GROWS, 1.0, False)
@example(FALLS_ON_PAIR, 3.0, False)
@example(FALLS_ON_PAIR, 1.0, False)  # the slot cancels to exactly 0.0 and is dropped
# the cubic term uses 3 of 10,000 variables; the pair table spans them all
@example(BinaryPolynomial(10_000, {(5, 9_000, 9_999): 1.0, (5, 9_000): 2.0, (7,): 1.0}), 1.0, False)
@settings(deadline=None, max_examples=40)
def test_quadratize_matches_both_references_on_wide_polynomials(p, scale, cancel):
    if cancel:
        p = with_cancelling_pair(p, scale)
    before = list(p.terms.items())
    got = quadratize(p, scale)
    assert list(p.terms.items()) == before
    for reference in (quadratize_reference, quadratize_pair_count_reference):
        want = reference(p, scale)
        assert got.aux_map == want.aux_map
        assert got.poly.n_vars == want.poly.n_vars
        assert list(got.poly.terms.items()) == list(want.poly.terms.items())


def test_wide_examples_reach_the_cases_they_name():
    high_vars = {v for s in GROWS.terms if len(s) >= 3 for v in s}
    assert len(quadratize(GROWS, 1.0).aux_map) > len(high_vars)
    q = quadratize(FALLS_ON_PAIR, 3.0)
    assert q.aux_map == (((0, 1), 5), ((2, 5), 6))
    # the cubic term's slot, now (2, 5), holds its coefficient plus the scale
    assert next(iter(q.poly.terms.items())) == ((2, 5), 2.0)
    assert (2, 5) not in quadratize(FALLS_ON_PAIR, 1.0).poly.terms


@pytest.mark.parametrize("kind", ["hubo-asc", "hubo-desc"])
@pytest.mark.parametrize("seed", [1, 2])
def test_quadratize_matches_pair_count_reference_on_bench_objectives(seed, kind):
    # the 16 x 6 objectives that `formulate` quadratizes in the compile bench
    p = build_formulation(synthetic_instance(16, 6, seed), kind).objective
    scale = default_quadratization_scale(p)
    got = quadratize(p, scale)
    want = quadratize_pair_count_reference(p, scale)
    assert got.aux_map == want.aux_map
    assert got.poly.n_vars == want.poly.n_vars
    assert list(got.poly.terms.items()) == list(want.poly.terms.items())


def test_quadratize_peak_memory():
    # the result holds about 0.8 MB; the Counter version peaked at 3.6 MB
    p = build_formulation(synthetic_instance(16, 6, 1), "hubo-asc").objective
    scale = default_quadratization_scale(p)
    tracemalloc.start()
    try:
        quadratize(p, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
