"""Acceptance suite: the golden values and scaling relations the library is
required to reproduce, one test per criterion, each printing a PASS line.

Sweeps: criteria 4, 5 and 11 use the doubling sweep N_AP = 4, 8, ..., 128
with N_CH = floor(N_AP / 2) (the sweep behind the reference scaling plots);
criteria 6 and 7 use N_AP in {4, 6, ..., 16}, where circuits are enumerated.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from gascap import (
    CoeffTable,
    GasConfig,
    IdealSampler,
    amplified_probability,
    apply,
    brute_force_cap,
    build_grover,
    build_state_prep,
    closed_form_resources,
    co_channel_partition,
    decode,
    interference_coeff,
    marked_probability,
    run_batch,
    value_register_width,
    variable_counts,
    zero_state,
)
from gascap.circuits import formulation_resources, formulation_width
from gascap.formulation import (
    default_quadratization_scale,
    formulation_from_table,
    quadratize,
)
from gascap.poly import BinaryPolynomial, int_to_bits

DOUBLING_SWEEP = [4, 8, 16, 32, 64, 128]
ENUM_SWEEP = [4, 6, 8, 10, 12, 14, 16]
GOLDEN_PARTITION = frozenset({frozenset({0, 3}), frozenset({1}), frozenset({2})})


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_acceptance_01_pairwise_coefficients(instance, table):
    start = time.monotonic()
    want_c = {(0, 1): -4.319, (0, 2): -4.938, (0, 3): -6.145,
              (1, 2): -4.392, (1, 3): -3.822, (2, 3): -4.784}
    want_d = {(0, 1): 1.835, (0, 2): 1.216, (0, 3): 0.010,
              (1, 2): 1.762, (1, 3): 2.333, (2, 3): 1.371}
    for pair, want in want_c.items():
        assert interference_coeff(instance, *pair) == pytest.approx(want, abs=1e-3)
    for pair, want in want_d.items():
        assert table.d[pair] == pytest.approx(want, abs=1e-3)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"six C and six D coefficients within 1e-3 ({elapsed:.3f} s)")


def test_acceptance_02_golden_optimum(instance, table, qubo, hubo_asc, hubo_desc):
    start = time.monotonic()
    oracle = brute_force_cap(instance, table)
    assert oracle.best_value == pytest.approx(0.010, abs=1e-3)
    assert co_channel_partition(oracle.best_assignment) == GOLDEN_PARTITION
    for form in (qubo, hubo_asc, hubo_desc):
        x, value = form.objective.exhaustive_min()
        assert value == pytest.approx(oracle.best_value, abs=1e-3)
        decoded = decode(form, x)
        assert decoded.valid
        groups: dict[int, set] = {}
        for ap, ch in enumerate(decoded.assignment):
            groups.setdefault(ch, set()).add(ap)
        assert frozenset(frozenset(g) for g in groups.values()) == GOLDEN_PARTITION
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"optimum 0.010 with partition {{1,4}}/{{2}}/{{3}} in all three "
              f"objectives ({elapsed:.3f} s)")


def test_acceptance_03_term_counts(hubo_asc, hubo_desc):
    # counting convention: all stored terms including the nonzero constant
    assert len(hubo_asc.objective.terms) == 67
    assert len(hubo_desc.objective.terms) == 55
    report(3, "binary objectives expand to exactly 67 (ascending) and 55 "
              "(descending) terms, constant included")


def test_acceptance_04a_variable_count_values():
    vc = variable_counts(128, 64)
    assert (vc.n, vc.n_prime, vc.n_double_prime) == (8192, 768, 8064)
    for n_ap in DOUBLING_SWEEP:
        vc = variable_counts(n_ap, n_ap // 2)
        assert vc.n_prime >= n_ap * math.log2(n_ap // 2) - 1e-9
    report(4, "(128, 64) counts are 8192 / 768 / 8064 and the binary encoding "
              "meets the information lower bound on the whole sweep")


def test_acceptance_04b_variable_count_sweep_ordering():
    """Variable-count ordering n' <= n'' < n on every point of the sweep.

    n' = N_AP * N_B counts the binary HUBO, n'' = N_AP * (2^N_B - 1) the
    quadratized binary HUBO and n = N_AP * N_CH the one-hot QUBO. With
    N_CH = 2 there is a single slot bit (N_B = 1), so each pairwise
    co-channel product already has degree 2 * N_B = 2, quadratization adds
    no auxiliary variables and n' = n'' (4 = 4 at N_AP = 4); everywhere else
    on the sweep n' < n''. At the two smallest points n'' is checked against
    the variable count that quadratize actually produces, so the equality
    case rests on the program and not on the formula alone. The sweep's N_CH
    are powers of two, where n'' = N_AP * (N_CH - 1) < n; off the sweep the
    right-hand relation reverses wherever 2^ceil(log2 N_CH) - 1 > N_CH,
    e.g. n'' = 35 > n = 25 at 5 x 5.
    """
    violations = []
    for n_ap in DOUBLING_SWEEP:
        n_ch = n_ap // 2
        vc = variable_counts(n_ap, n_ch)
        point = f"N_AP={n_ap}: n'={vc.n_prime}, n''={vc.n_double_prime}, n={vc.n}"
        if not vc.n_prime <= vc.n_double_prime < vc.n:
            violations.append(f"{point} (n' <= n'' < n)")
        if (vc.n_prime == vc.n_double_prime) != (n_ch == 2):
            violations.append(f"{point} (n' == n'' exactly when N_CH == 2)")
        if n_ap in (4, 8):
            hubo = formulation_from_table(CoeffTable.uniform(n_ap), n_ch, "hubo-asc")
            quad = quadratize(hubo.objective, default_quadratization_scale(hubo.objective))
            if quad.poly.n_vars != vc.n_double_prime:
                violations.append(f"{point} (quadratize gives {quad.poly.n_vars})")
    assert not violations, "variable-count ordering fails at: " + "; ".join(violations)
    report(4, "variable-count ordering n' <= n'' < n holds on the sweep, with "
              "n' = n'' only at N_CH = 2 and n'' matching quadratize at N_AP = 4, 8")


def test_acceptance_05_qubit_sizing(instance, table, hubo_desc):
    width = formulation_width(hubo_desc)
    assert hubo_desc.n_vars == 8
    assert width == 4
    assert hubo_desc.n_vars + width == 12
    assert closed_form_resources(4, 3, table.d_sum, 1.0, "qubo").n_qubits == 19
    for n_ap in DOUBLING_SWEEP:
        n_ch = n_ap // 2
        d_sum = float(math.comb(n_ap, 2))  # unit pairwise costs
        hubo = closed_form_resources(n_ap, n_ch, d_sum, 1.0, "hubo-asc").n_qubits
        onehot = closed_form_resources(n_ap, n_ch, d_sum, 1.0, "qubo").n_qubits
        assert hubo < onehot
    report(5, "reference circuit totals 8 + 4 = 12 qubits, one-hot closed form "
              "19, binary strictly below one-hot through N_AP = 128")


def test_acceptance_06_gate_count_closed_forms():
    start = time.monotonic()
    for n_ap in ENUM_SWEEP:
        n_ch = n_ap // 2
        t = CoeffTable.uniform(n_ap, 1.0)
        onehot = formulation_resources(
            formulation_from_table(t, n_ch, "qubo", 1.0))
        closed = closed_form_resources(n_ap, n_ch, t.d_sum, 1.0, "qubo")
        assert onehot.cr(1) == closed.cr(1)
        assert onehot.cr(2) == closed.cr(2)
        assert all(onehot.cr(k) == 0 for k in range(3, 16))
        asc = formulation_resources(
            formulation_from_table(t, n_ch, "hubo-asc", 1.0))
        aclosed = closed_form_resources(n_ap, n_ch, t.d_sum, 1.0, "hubo-asc")
        for k in range(1, max(asc.max_arity, aclosed.max_arity) + 1):
            assert asc.cr(k) <= aclosed.cr(k), (n_ap, k)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(6, f"one-hot 1-CR/2-CR equal the closed forms, no higher arities; "
              f"ascending counts bounded arity-by-arity ({elapsed:.1f} s)")


def test_acceptance_07_cnot_ordering():
    for n_ap in ENUM_SWEEP:
        n_ch = n_ap // 2
        t = CoeffTable.uniform(n_ap, 1.0)
        asc = formulation_resources(
            formulation_from_table(t, n_ch, "hubo-asc", 1.0))
        desc = formulation_resources(
            formulation_from_table(t, n_ch, "hubo-desc", 1.0))
        assert desc.cnot_count <= asc.cnot_count
        if n_ch & (n_ch - 1):
            assert desc.cnot_count < asc.cnot_count
    report(7, "descending CNOT count never exceeds ascending, strictly smaller "
              "off powers of two")


def _random_integer_poly(rng, n, coeff_lo=-4, coeff_hi=4, max_terms=6):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        deg = int(rng.integers(0, min(n, 3) + 1))
        sup = tuple(sorted(rng.choice(n, size=deg, replace=False))) if deg else ()
        coeff = int(rng.integers(coeff_lo, coeff_hi + 1))
        terms[sup] = terms.get(sup, 0.0) + coeff
    return BinaryPolynomial(n, {k: v for k, v in terms.items() if v})


def test_acceptance_08_value_register_exactness():
    rng = np.random.default_rng(808)
    cases = 0
    while cases < 20:
        n = int(rng.integers(2, 7))
        p = _random_integer_poly(rng, n)
        y = int(rng.integers(-3, 4))
        m = value_register_width(p + float(-y))
        if m > 6:
            continue
        circuit = build_state_prep(p, y, m)
        sv = apply(circuit, zero_state(circuit.n_qubits))
        probs = (np.abs(sv) ** 2).reshape(1 << n, 1 << m)
        for key in range(1 << n):
            value = int(round(p.evaluate(int_to_bits(key, n)) - y)) % (1 << m)
            assert abs(probs[key, value] - 0.5 ** n) <= 1e-9
            assert probs[key].sum() - probs[key, value] <= 1e-9
        cases += 1
    report(8, "20 random integer objectives: measurement support is exactly "
              "{(x, (E(x) - y) mod 2^m)} at probability 2^-n")


def test_acceptance_09_amplification_law():
    rng = np.random.default_rng(909)
    cases = 0
    while cases < 10:
        n = int(rng.integers(2, 9))
        p = _random_integer_poly(rng, n)
        values = p.evaluate_all()
        y = int(rng.integers(int(values.min()) - 1, int(values.max()) + 2))
        m = value_register_width(p + float(-y))
        if n + m > 15:
            continue
        t = int((values < y).sum())
        marked = np.where(values < y)[0]
        prep = build_state_prep(p, y, m)
        state = apply(prep, zero_state(n + m))
        grover = build_grover(prep)
        for l_ops in range(6):
            got = marked_probability(state, marked, m)
            want = amplified_probability(t, 1 << n, l_ops)
            assert abs(got - want) <= 1e-6, (n, m, t, l_ops)
            state = apply(grover, state)
        cases += 1
    report(9, "10 random thresholded objectives follow "
              "sin^2((2L+1) asin(sqrt(t/N))) for L = 0..5 within 1e-6")


def test_acceptance_10_search_end_to_end(instance, table, qubo, hubo_asc, hubo_desc):
    start = time.monotonic()
    oracle = brute_force_cap(instance, table)
    cfg = GasConfig(
        max_classical_iters=200,
        stop_at_known_optimum=oracle.best_value, master_seed=2023,
    )
    queries = {}
    hits = {}
    for name, form in [("asc", hubo_asc), ("desc", hubo_desc), ("qubo", qubo)]:
        traces = list(run_batch(IdealSampler(form.objective), cfg, 100))
        hits[name] = sum(1 for t in traces if t.best_y <= oracle.best_value + 1e-9)
        queries[name] = [t.classical_queries for t in traces]
    assert hits["asc"] >= 95 and hits["desc"] >= 95
    assert np.mean(queries["asc"]) < np.mean(queries["qubo"])
    assert np.mean(queries["desc"]) < np.mean(queries["qubo"])
    p_value = mannwhitneyu(queries["asc"], queries["desc"],
                           alternative="two-sided").pvalue
    assert p_value > 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(10, f"{hits['asc']}/100 and {hits['desc']}/100 optimum hits, binary "
               f"queries below one-hot ({np.mean(queries['asc']):.1f} / "
               f"{np.mean(queries['desc']):.1f} vs {np.mean(queries['qubo']):.1f}), "
               f"encodings indistinguishable (p = {p_value:.2f}) "
               f"({elapsed:.1f} s)")


def test_acceptance_11_query_complexity_sandwich():
    for n_ap in DOUBLING_SWEEP:
        n_ch = n_ap // 2
        vc = variable_counts(n_ap, n_ch)
        n_b = vc.n_prime // n_ap
        # 2^(n'/2) = (2^N_B)^(N_AP/2): exact bases, no floating point
        assert n_ch <= 2 ** n_b                     # lower bound holds
        assert 2 ** (2 * n_b) < 2 * n_ch ** 2       # 2^N_B < sqrt(2) N_CH
        assert vc.n_prime < vc.n                    # amplified curve separation
    report(11, "query sandwich N_CH^(N_AP/2) <= 2^(n'/2) < (sqrt(2) N_CH)^(N_AP/2) "
               "holds at every doubling-sweep size")
