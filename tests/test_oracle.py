"""The chunked ``brute_force_cap`` against the one-assignment-at-a-time
odometer it replaced, and every formulation against that oracle."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gascap import (
    CoeffTable,
    assignment_interference,
    brute_force_cap,
    coeff_table,
    decode,
    default_quadratization_scale,
    encode_assignment,
    quadratize,
    synthetic_instance,
)
import gascap.gas as gas
from gascap.formulation import formulation_from_table

KINDS = ("qubo", "hubo-asc", "hubo-desc")


def odometer_brute_force(inst, table):
    """Reference oracle: score every assignment with ``assignment_interference``
    in lexicographic order (last AP fastest) and keep the first minimum."""
    space = inst.n_ch ** inst.n_ap
    best_assign, best_value = None, math.inf
    assign = [1] * inst.n_ap
    for _ in range(space):
        value = assignment_interference(inst, table, assign)
        if value < best_value:
            best_value = value
            best_assign = tuple(assign)
        for pos in range(inst.n_ap - 1, -1, -1):
            if assign[pos] < inst.n_ch:
                assign[pos] += 1
                break
            assign[pos] = 1
    return best_assign, best_value, space


def shape_instance(n_ap, n_ch, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # surplus channels are fine here
        return synthetic_instance(n_ap, n_ch, seed=seed)


@st.composite
def instances(draw, max_ap=6, max_ch=4):
    """An instance shape with either its own geometric costs or random pair
    costs drawn from a few non-integer values, so that totals tie often."""
    n_ap = draw(st.integers(2, max_ap))
    n_ch = draw(st.integers(2, max_ch))
    inst = shape_instance(n_ap, n_ch, seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return inst, coeff_table(inst)
    levels = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=3))
    c = np.zeros((n_ap, n_ap))
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            c[i, k] = c[k, i] = draw(st.sampled_from(levels))
    eps = draw(st.sampled_from([0.01, 0.1, 0.3, 1.0]))
    return inst, CoeffTable(c, epsilon=eps)


def assert_matches_odometer(inst, table, chunk=gas.ORACLE_CHUNK):
    with mock.patch.object(gas, "ORACLE_CHUNK", chunk):
        got = brute_force_cap(inst, table)
    assign, value, space = odometer_brute_force(inst, table)
    assert got.best_assignment == assign
    assert type(got.best_value) is float
    assert got.best_value.hex() == value.hex()
    assert got.evaluations == space
    return got


@given(instances(), st.integers(1, 5000))
@settings(deadline=None, max_examples=60)
def test_chunked_oracle_equals_odometer(case, chunk):
    inst, table = case
    assert_matches_odometer(inst, table, chunk=chunk)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
def test_uniform_table_keeps_the_first_lexicographic_minimum(chunk):
    # every pair costs the same, so many assignments tie for the minimum
    inst = shape_instance(6, 3)
    got = assert_matches_odometer(inst, CoeffTable.uniform(6, 0.7), chunk=chunk)
    assert got.best_assignment == (1, 1, 2, 2, 3, 3)


def test_oracle_spans_several_chunks_on_a_9x4_instance():
    inst = synthetic_instance(9, 4, seed=5)
    table = coeff_table(inst)
    assert inst.n_ch ** inst.n_ap == 4 << 16  # four default chunks
    assert_matches_odometer(inst, table)


def test_oracle_raises_when_the_kernel_and_the_scalar_score_disagree(instance, table, monkeypatch):
    monkeypatch.setattr(gas, "assignment_interference", lambda *args: 1.0)
    with pytest.raises(RuntimeError, match="disagrees"):
        brute_force_cap(instance, table)


# -- formulations against the oracle --------------------------------------


@given(instances(max_ap=4, max_ch=4), st.data())
@settings(deadline=None, max_examples=30)
def test_every_formulation_agrees_with_the_oracle(case, data):
    inst, table = case
    oracle = brute_force_cap(inst, table)
    # a violated constraint costs more than any co-channel total can save
    penalty = 1.0 + table.d_sum
    assign = tuple(data.draw(st.lists(st.integers(1, inst.n_ch),
                                      min_size=inst.n_ap, max_size=inst.n_ap)))
    for kind in KINDS:
        form = formulation_from_table(table, inst.n_ch, kind, penalty)
        assert decode(form, encode_assignment(form, assign)).assignment == assign
        x, value = form.objective.exhaustive_min()
        assert math.isclose(value, oracle.best_value, rel_tol=1e-9, abs_tol=1e-12)
        decoded = decode(form, x)
        assert decoded.valid
        assert math.isclose(assignment_interference(inst, table, decoded.assignment),
                            oracle.best_value, rel_tol=1e-9, abs_tol=1e-12)
        if kind != "qubo":
            quad = quadratize(form.objective, default_quadratization_scale(form.objective))
            _, quad_value = quad.poly.exhaustive_min()
            assert math.isclose(quad_value, value, rel_tol=1e-9, abs_tol=1e-12)
