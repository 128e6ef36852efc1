"""Watch amplitude amplification concentrate probability on improving states.

A small integer objective is compiled at threshold y; the statevector
probability of measuring a key with E(x) < y after L Grover operators is
compared against the closed form sin^2((2L+1) asin(sqrt(t/N))).
"""

import numpy as np

from gascap import (
    BinaryPolynomial,
    amplified_probability,
    apply,
    build_grover,
    build_state_prep,
    enumerate_resources,
    marked_probability,
    value_register_width,
    zero_state,
)

# six binary variables, a handful of integer terms
p = BinaryPolynomial(6, {
    (): 3.0, (0,): -2.0, (1,): -1.0, (2, 3): -2.0, (4, 5): 1.0, (0, 4): -1.0,
})
y = 0
values = p.evaluate_all()
t = int((values < y).sum())
n_states = values.size
print(f"objective over {p.n_vars} bits, threshold y = {y}: "
      f"{t} of {n_states} states are improvements")

m = value_register_width(p.add(BinaryPolynomial(p.n_vars, {(): float(-y)})))
prep = build_state_prep(p, y, m)
grover = build_grover(prep)
res = enumerate_resources(prep)
n_gates = res.h_count + res.r_count + sum(res.cr_counts.values()) + res.iqft_count
print(f"compiled with a {m}-qubit value register "
      f"({prep.n_qubits} qubits, {n_gates} gates in A_y)")

marked = np.where(values < y)[0]
state = apply(prep, zero_state(prep.n_qubits))
print(f"\n{'L':>3} {'statevector':>12} {'sin^2 formula':>14}")
best_l, best_p = 0, 0.0
for l_ops in range(8):
    got = marked_probability(state, marked, m)
    want = amplified_probability(t, n_states, l_ops)
    print(f"{l_ops:>3} {got:>12.6f} {want:>14.6f}")
    if got > best_p:
        best_l, best_p = l_ops, got
    state = apply(grover, state)

theta = np.arcsin(np.sqrt(t / n_states))
print(f"\nbest observed at L = {best_l} with probability {best_p:.4f}; "
      f"the optimal rotation count is about pi/(4 asin(sqrt(t/N))) - 1/2 "
      f"= {np.pi / (4 * theta) - 0.5:.2f}")
