"""Walk through the interference model on the bundled 4-AP / 3-channel network.

Shows how pairwise co-channel costs come out of pure path-loss geometry,
how the shifted strictly-positive table is formed, and what the classical
brute-force optimum looks like.
"""

import itertools

import numpy as np

from gascap import (
    assignment_interference,
    brute_force_cap,
    co_channel_partition,
    coeff_table,
    interference_coeff,
    reference_instance,
)

inst = reference_instance()
print(f"network: {inst.n_ap} APs, {inst.n_ut} users, {inst.n_ch} channels, "
      f"alpha = {inst.alpha}")
print("distance matrix (APs x users):")
print(inst.distances)

print("\npairwise co-channel costs C_ik (more negative = worse to share):")
for i, k in itertools.combinations(range(inst.n_ap), 2):
    print(f"  C[{i + 1},{k + 1}] = {interference_coeff(inst, i, k):8.3f}")

table = coeff_table(inst)
print(f"\nshifted table D = C - C_min + eps  (C_min = {table.c_min:.3f}, "
      f"eps = {inst.epsilon}):")
print(np.round(table.d, 3))
print(f"sum over pairs D_sum = {table.d_sum:.3f}")

print("\nscoring a few assignments (channel per AP):")
for assign in [(2, 1, 3, 2), (1, 2, 3, 1), (1, 1, 1, 1), (1, 2, 3, 3)]:
    value = assignment_interference(inst, table, assign)
    print(f"  {assign} -> {value:.3f}")

result = brute_force_cap(inst, table)
print(f"\nbrute force over {result.evaluations} assignments:")
print(f"  best assignment  {result.best_assignment}")
print(f"  best value       {result.best_value:.3f}")
print(f"  co-channel APs   {sorted(sorted(g) for g in co_channel_partition(result.best_assignment))}")
