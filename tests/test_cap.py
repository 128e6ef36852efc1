import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gascap import (
    BinaryPolynomial,
    CapInstance,
    CoeffTable,
    amplified_probability,
    assignment_interference,
    bits_per_channel,
    closed_form_resources,
    coeff_table,
    decode,
    encode_assignment,
    interference_coeff,
    load_instance,
    synthetic_instance,
)
from gascap.cap import instance_from_dict, instance_to_dict

GOLDEN_C = {(0, 1): -4.319, (0, 2): -4.938, (0, 3): -6.145,
            (1, 2): -4.392, (1, 3): -3.822, (2, 3): -4.784}
GOLDEN_D = {(0, 1): 1.835, (0, 2): 1.216, (0, 3): 0.010,
            (1, 2): 1.762, (1, 3): 2.333, (2, 3): 1.371}


@pytest.mark.parametrize("pair,want", sorted(GOLDEN_C.items()))
def test_pairwise_cost_reference_values(instance, pair, want):
    assert interference_coeff(instance, *pair) == pytest.approx(want, abs=1e-3)


def test_pairwise_cost_is_symmetric(instance):
    for i, k in itertools.combinations(range(instance.n_ap), 2):
        assert interference_coeff(instance, i, k) == interference_coeff(instance, k, i)


def test_two_ap_symmetric_geometry():
    # one user each, all four distances equal: both ratios are 1, each log term -1
    inst = CapInstance(
        n_ap=2, n_ch=1, alpha=1.0,
        distances=np.full((2, 2), 3.7), assoc=((0,), (1,)),
    )
    assert interference_coeff(inst, 0, 1) == pytest.approx(-2.0)


def test_shifted_costs_reference_values(table):
    for (i, k), want in GOLDEN_D.items():
        assert table.d[i, k] == pytest.approx(want, abs=1e-3)
    assert table.d_sum == pytest.approx(8.527, abs=5e-3)


def test_minimum_pair_sits_at_epsilon(instance, table):
    iu = np.triu_indices(instance.n_ap, k=1)
    off = table.d[iu]
    assert np.all(off >= instance.epsilon - 1e-12)
    assert np.isclose(off.min(), instance.epsilon)


def test_assignment_interference_reference(instance, table):
    # only the pair {1, 4} shares a channel
    assert assignment_interference(instance, table, (2, 1, 3, 2)) == pytest.approx(0.010, abs=1e-3)
    # every pair co-channel collapses to the full sum
    assert assignment_interference(instance, table, (1, 1, 1, 1)) == pytest.approx(table.d_sum)


def test_assignment_interference_distinct_channels_is_zero():
    with pytest.warns(UserWarning):
        inst = synthetic_instance(3, 4, seed=1)
    t = coeff_table(inst)
    assert assignment_interference(inst, t, (1, 2, 3)) == 0.0


def test_assignment_interference_rejects_bad_channel(instance, table):
    with pytest.raises(ValueError):
        assignment_interference(instance, table, (1, 2, 3, 4))


def test_interference_coeff_rejects_bad_indices(instance):
    with pytest.raises(ValueError):
        interference_coeff(instance, 1, 1)
    with pytest.raises(IndexError):
        interference_coeff(instance, 0, 4)


def test_ranking_invariant_under_uniform_cost_shift(instance, table):
    # adding a constant to every pairwise cost cancels in the c_min subtraction
    shifted = CoeffTable(table.c + 3.25, epsilon=instance.epsilon)
    assert np.allclose(shifted.d, table.d)
    assignments = list(itertools.product(range(1, 4), repeat=4))
    before = [assignment_interference(instance, table, a) for a in assignments]
    after = [assignment_interference(instance, shifted, a) for a in assignments]
    assert np.allclose(before, after)


def test_instance_validation():
    good = dict(n_ap=2, n_ch=1, alpha=1.0,
                distances=np.ones((2, 2)), assoc=((0,), (1,)))
    CapInstance(**good)
    with pytest.raises(ValueError):
        CapInstance(**{**good, "distances": np.array([[1.0, 0.0], [1.0, 1.0]])})
    with pytest.raises(ValueError):
        CapInstance(**{**good, "assoc": ((0,), ())})
    with pytest.raises(ValueError):
        CapInstance(**{**good, "assoc": ((0,), (0,))})
    with pytest.raises(ValueError):
        CapInstance(**{**good, "epsilon": 0.0})


@pytest.mark.parametrize("field,value", [
    ("alpha", math.inf), ("alpha", math.nan),
    ("epsilon", math.inf), ("epsilon", math.nan),
])
def test_instance_rejects_non_finite_parameters(field, value):
    good = dict(n_ap=2, n_ch=1, alpha=1.0,
                distances=np.ones((2, 2)), assoc=((0,), (1,)))
    with pytest.raises(ValueError, match="finite"):
        CapInstance(**{**good, field: value})


@pytest.mark.parametrize("cells", [[(0, 0)], [(0, 2), (0, 3)]])
def test_instance_rejects_infinite_distances(instance, cells):
    # 1e400 parses as inf; at AP 1's users it zeroed the interference in C_01
    data = instance_to_dict(instance)
    for i, u in cells:
        data["distances"][i][u] = float("1e400")
    with pytest.raises(ValueError, match="finite"):
        instance_from_dict(data)


def test_interference_coeff_rejects_path_loss_underflow(instance):
    # finite distances, but 1e200 ** -2 underflows: AP 0's gain at AP 1's
    # users is zero and C_01 would divide by it
    data = instance_to_dict(instance)
    data["alpha"] = 2.0
    data["distances"][0][2] = data["distances"][0][3] = 1e200
    far = instance_from_dict(data)
    with pytest.raises(ValueError, match="underflows"):
        interference_coeff(far, 0, 1)
    with pytest.raises(ValueError):
        coeff_table(far)


def test_interference_coeff_rejects_non_finite_cost(instance):
    # own-user distances of 1e-200 overflow the gain to inf, so C_01 = -inf
    data = instance_to_dict(instance)
    data["alpha"] = 2.0
    data["distances"][0][0] = data["distances"][0][1] = 1e-200
    with pytest.raises(ValueError, match="not finite"):
        interference_coeff(instance_from_dict(data), 0, 1)


def test_channel_surplus_warns_but_builds():
    with pytest.warns(UserWarning, match="trivial"):
        inst = CapInstance(n_ap=2, n_ch=2, alpha=1.0,
                           distances=np.ones((2, 2)), assoc=((0,), (1,)))
    assert inst.n_ch == 2


def test_instance_json_round_trip(tmp_path, instance):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(instance)))
    back = load_instance(path)
    assert back.n_ap == instance.n_ap
    assert back.n_ch == instance.n_ch
    assert np.allclose(back.distances, instance.distances)
    assert back.assoc == instance.assoc


def test_synthetic_instance_is_seeded_and_valid():
    a = synthetic_instance(6, 3, seed=42)
    b = synthetic_instance(6, 3, seed=42)
    c = synthetic_instance(6, 3, seed=43)
    assert np.array_equal(a.distances, b.distances)
    assert not np.array_equal(a.distances, c.distances)
    assert a.n_ut == 12
    assert all(len(g) == 2 for g in a.assoc)
    # derived coefficients stay finite and the shifted table is positive
    t = coeff_table(a)
    assert np.isfinite(t.d_sum)


SMALL = {"n_ap": 3, "n_ch": 2, "alpha": 1.0,
         "distances": [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]],
         "assoc": [[0], [1], [2]]}
MALFORMED = {
    "top-level-list": [1, 2],
    "non-list-group": {**SMALL, "assoc": [[0], [1], 3]},
    "fractional-user": {**SMALL, "assoc": [[0], [1], [2.7]]},
    "fractional-n-ap": {**SMALL, "n_ap": 3.5},
    "null-alpha": {**SMALL, "alpha": None},
    "bool-alpha": {**SMALL, "alpha": True},
    "string-epsilon": {**SMALL, "epsilon": "0.5"},
    "bool-distance": {**SMALL, "distances": [[True, 2.0, 3.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]]},
    "string-distance": {**SMALL, "distances": [[1.0, 2.0, 3.0], [2.0, "0.5", 3.0], [3.0, 2.0, 1.0]]},
    "zero-n-ap": {**SMALL, "n_ap": 0},
    "zero-n-ch": {**SMALL, "n_ch": 0},
    "short-distances": {**SMALL, "distances": [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]]},
    "two-groups-for-three-aps": {**SMALL, "assoc": [[0], [1, 2]]},
}
# the CapInstance check each well-typed entry reaches
MALFORMED_MESSAGE = {
    "zero-n-ap": "^n_ap and n_ch must be positive$",
    "zero-n-ch": "^n_ap and n_ch must be positive$",
    "short-distances": r"^distances must be a \(n_ap, n_ut\) matrix, got \(2, 3\)$",
    "two-groups-for-three-aps": "^assoc must have one user group per AP$",
}


@pytest.mark.parametrize("n_ap", [0, 1])
def test_coeff_table_needs_two_access_points(n_ap):
    want = f"^a coefficient table needs at least 2 access points, got {n_ap}$"
    with pytest.raises(ValueError, match=want):
        CoeffTable(np.zeros((n_ap, n_ap)), epsilon=0.01)


def test_small_instance_is_well_formed():
    assert instance_from_dict(SMALL).assoc == ((0,), (1,), (2,))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_instance_from_dict_rejects_malformed_json(name):
    # the ill-typed entries once raised TypeError or were silently truncated
    # by int() or converted by float()
    with pytest.raises(ValueError, match=MALFORMED_MESSAGE.get(name)):
        instance_from_dict(MALFORMED[name])


@pytest.mark.parametrize("call, error, want", [
    (lambda inst, table, form: assignment_interference(inst, table, [1, 2]),
     ValueError, "^assignment length 2 != n_ap 4$"),
    (lambda inst, table, form: decode(form, (0, 1)), ValueError,
     "^bit vector length 2 != n_vars 8$"),
    (lambda inst, table, form: encode_assignment(form, [1]), ValueError,
     "^assignment length mismatch$"),
    (lambda *_: bits_per_channel(0), ValueError, "^n_ch must be positive$"),
    (lambda *_: BinaryPolynomial(-1), ValueError, "^n_vars must be nonnegative$"),
    (lambda *_: setattr(BinaryPolynomial(1), "n_vars", 2), AttributeError,
     "^BinaryPolynomial is immutable$"),
    (lambda *_: amplified_probability(5, 4, 1), ValueError, "^marked count out of range$"),
    (lambda *_: closed_form_resources(4, 3, 0.0, 1.0, "qubo"), ValueError,
     "^d_sum must be positive$"),
], ids=["assignment_interference", "decode", "encode_assignment", "bits_per_channel",
        "BinaryPolynomial", "polynomial-setattr", "amplified_probability", "closed_form_resources"])
def test_validation_raises(instance, table, hubo_asc, call, error, want):
    with pytest.raises(error, match=want):
        call(instance, table, hubo_asc)


def test_round_trip_through_dict(instance):
    again = instance_from_dict(instance_to_dict(instance))
    assert np.allclose(again.distances, instance.distances)


# -- the table against the per-pair coefficient ------------------------------


@st.composite
def path_loss_instances(draw, extreme: bool):
    """2-5 APs with 1-12 users each, in unequal, shuffled groups; with
    ``extreme``, some distances are 1e-200 or 1e200, whose gains overflow or
    underflow at alpha > 1."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=5))
    users = draw(st.permutations(range(sum(sizes))))
    bounds = np.cumsum([0, *sizes]).tolist()
    assoc = [list(users[a:b]) for a, b in zip(bounds, bounds[1:])]
    distance = st.floats(1e-6, 1e3)
    if extreme:
        distance = st.one_of(distance, st.sampled_from([1e-200, 1e200]))
    row = st.lists(distance, min_size=len(users), max_size=len(users))
    return instance_from_dict({
        "n_ap": len(sizes), "n_ch": 1, "alpha": draw(st.sampled_from([1.0, 2.0, 3.5])),
        "distances": draw(st.lists(row, min_size=len(sizes), max_size=len(sizes))),
        "assoc": assoc,
    })


def per_pair_table(inst):
    """The table as one ``interference_coeff`` call per pair i < k, in row
    order: it raises what the first failing pair raises."""
    c = np.zeros((inst.n_ap, inst.n_ap))
    for i, k in itertools.combinations(range(inst.n_ap), 2):
        c[i, k] = c[k, i] = interference_coeff(inst, i, k)
    return CoeffTable(c, epsilon=inst.epsilon)


def two_failing_pairs():
    """Four APs of one user each, at alpha 2: AP 0's gain at AP 3's user
    underflows, and AP 1's at AP 2's user is subnormal, so S_1 / I_12
    overflows and C_12 is not finite.  Row order meets (0, 3) first, column
    order (1, 2)."""
    distances = np.ones((4, 4))
    distances[0, 3], distances[1, 2] = 1e200, 1e160
    return instance_from_dict({"n_ap": 4, "n_ch": 1, "alpha": 2.0, "distances": distances.tolist(),
                               "assoc": [[0], [1], [2], [3]]})


@given(st.booleans().flatmap(path_loss_instances))
@example(two_failing_pairs())
@settings(deadline=None, max_examples=150)
def test_coeff_table_matches_interference_coeff_bit_for_bit(inst):
    try:
        want = per_pair_table(inst)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            coeff_table(inst)
        assert type(got.value) is type(err) and str(got.value) == str(err)
        return
    got = coeff_table(inst)
    assert got.c.tobytes() == want.c.tobytes() and got.d.tobytes() == want.d.tobytes()
    assert got.c_min == want.c_min and got.d_sum == want.d_sum
