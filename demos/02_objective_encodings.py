"""Compare the three binary objective encodings of the same network.

One-hot spends N_CH bits per AP and stays quadratic; the ascending and
descending binary encodings spend ceil(log2 N_CH) bits and go up to degree
2 ceil(log2 N_CH).  Descending hands the dense all-ones codewords to the
real channels, which visibly shrinks the expanded polynomial (67 -> 55
terms here).  All three agree with the classical score on every valid
assignment, and all three share the same global minimum.
"""

import itertools

from gascap import (
    Encoding,
    assignment_interference,
    build_formulation,
    channel_codeword,
    coeff_table,
    decode,
    encode_assignment,
    quadratize,
    reference_instance,
    variable_counts,
)
from gascap.formulation import default_quadratization_scale

inst = reference_instance()
table = coeff_table(inst)

print("codewords for 3 channels in 2 slot bits:")
for c in (1, 2, 3):
    asc = channel_codeword(c, 3, Encoding.BINARY_ASCENDING)
    desc = channel_codeword(c, 3, Encoding.BINARY_DESCENDING)
    print(f"  channel {c}: ascending {asc}   descending {desc}")

qubo = build_formulation(inst, "qubo", 1.0, table)
asc = build_formulation(inst, "hubo-asc", 1.0, table)
desc = build_formulation(inst, "hubo-desc", 1.0, table)

print("\nobjective sizes:")
for name, form in [("one-hot", qubo), ("ascending", asc), ("descending", desc)]:
    print(f"  {name:10s}: {form.n_vars:2d} variables, {len(form.objective.terms):2d} terms, "
          f"degree {form.objective.degree}")

print("\nagreement with the classical score on all 81 assignments:")
worst = 0.0
for assign in itertools.product((1, 2, 3), repeat=4):
    want = assignment_interference(inst, table, assign)
    for form in (qubo, asc, desc):
        got = form.objective.evaluate(encode_assignment(form, assign))
        worst = max(worst, abs(got - want))
print(f"  largest deviation: {worst:.2e}")

print("\nglobal minima and their decodings:")
for name, form in [("one-hot", qubo), ("ascending", asc), ("descending", desc)]:
    x, value = form.objective.exhaustive_min()
    print(f"  {name:10s}: value {value:.3f}, bits {x} -> "
          f"{decode(form, x).assignment}")

quad = quadratize(asc.objective, default_quadratization_scale(asc.objective))
print(f"\nquadratized ascending objective: {quad.poly.n_vars} variables "
      f"(degree {quad.poly.degree}), auxiliaries {quad.aux_map}")
print(f"quadratized minimum: {quad.poly.exhaustive_min()[1]:.3f}")

vc = variable_counts(128, 64)
print(f"\nat scale (128 APs, 64 channels): one-hot {vc.n}, binary {vc.n_prime}, "
      f"quadratized {vc.n_double_prime} variables")
