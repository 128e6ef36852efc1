"""Run the full adaptive search and compare formulations head to head.

100 seed-paired runs per objective on the bundled network, ideal backend.
The binary encodings search an 8-bit cube instead of the one-hot 12-bit
cube, which shows up directly as fewer classical iterations to reach the
optimum; ascending and descending are statistically interchangeable here.
"""

import numpy as np

from gascap import (
    OPTIMUM_TOL,
    GasConfig,
    IdealSampler,
    brute_force_cap,
    build_formulation,
    coeff_table,
    reference_instance,
    run_batch,
    run_gas,
    run_seed,
)

inst = reference_instance()
table = coeff_table(inst)
oracle = brute_force_cap(inst, table)
print(f"oracle optimum {oracle.best_value:.3f} "
      f"(exhaustive cost {oracle.evaluations} evaluations)")

forms = {
    "one-hot": build_formulation(inst, "qubo", 1.0, table),
    "ascending": build_formulation(inst, "hubo-asc", 1.0, table),
    "descending": build_formulation(inst, "hubo-desc", 1.0, table),
}

cfg = GasConfig(max_classical_iters=200,
                stop_at_known_optimum=oracle.best_value, master_seed=2023)
print(f"\n{'objective':>11} {'bits':>5} {'hits':>8} {'classical':>10} "
      f"{'quantum':>8} {'sqrt(2^n)':>10}")
for name, form in forms.items():
    traces = list(run_batch(IdealSampler(form.objective), cfg, 100))
    hits = sum(t.best_y <= oracle.best_value + OPTIMUM_TOL for t in traces)
    mean_c = np.mean([t.classical_queries for t in traces])
    mean_q = np.mean([t.quantum_queries for t in traces])
    ref = 2.0 ** (form.objective.n_vars / 2.0)
    print(f"{name:>11} {form.objective.n_vars:>5} {hits:>5}/100 "
          f"{mean_c:>10.1f} {mean_q:>8.1f} {ref:>10.1f}")

print("\none run in detail (descending, seed stream 0):")
trace = run_gas(IdealSampler(forms["descending"].objective), cfg, run_seed(0, 2023))
print(f"{'iter':>5} {'threshold':>10} {'L':>3} {'sampled':>9} {'improved':>9}")
for it in trace.iterations:
    print(f"{it.i:>5} {it.y_i:>10.3f} {it.l_i:>3} {it.sampled_y:>9.3f} "
          f"{'yes' if it.improved else '':>9}")
print(f"reached {trace.best_y:.3f} after {trace.classical_queries} classical / "
      f"{trace.quantum_queries} quantum queries")
