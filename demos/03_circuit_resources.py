"""Count qubits and gates for the search circuits across problem sizes.

Everything here is the state-preparation block A_y: Hadamards, one phase
rotation per polynomial term and value qubit, controlled by the term's key
qubits, and a closing inverse QFT.  Enumerated counts come from actually
built circuits (unit pairwise costs, unit penalty); closed forms are
evaluated from the size parameters alone.  CNOTs follow the standard
decomposition: 2 per singly controlled rotation, 6(k-1) per k-controlled
one.
"""

from gascap import (
    CoeffTable,
    build_formulation,
    closed_form_resources,
    coeff_table,
    reference_instance,
)
from gascap.circuits import formulation_resources, formulation_width
from gascap.formulation import formulation_from_table

inst = reference_instance()
table = coeff_table(inst)
desc = build_formulation(inst, "hubo-desc", 1.0, table)
m = formulation_width(desc)
print("reference instance, descending binary encoding:")
print(f"  key register  n' = {desc.n_vars}")
print(f"  value register m' = {m}   (total {desc.n_vars + m} qubits)")
print(f"  one-hot closed-form total: "
      f"{closed_form_resources(4, 3, table.d_sum, 1.0, 'qubo').n_qubits} qubits")

print("\nsweep with unit costs, N_CH = N_AP / 2:")
header = (f"{'N_AP':>5} {'kind':>10} {'qubits':>7} {'H':>5} {'1-CR':>7} "
          f"{'2-CR':>8} {'3-CR':>7} {'4-CR':>7} {'CNOT':>9} {'CNOT(closed)':>13}")
print(header)
for n_ap in (4, 6, 8, 10, 12):
    n_ch = n_ap // 2
    t = CoeffTable.uniform(n_ap, 1.0)
    for kind in ("qubo", "hubo-asc", "hubo-desc"):
        form = formulation_from_table(t, n_ch, kind, 1.0)
        rep = formulation_resources(form)
        closed = closed_form_resources(n_ap, n_ch, t.d_sum, 1.0, kind)
        print(f"{n_ap:>5} {kind:>10} {rep.n_qubits:>7} {rep.h_count:>5} "
              f"{rep.cr(1):>7} {rep.cr(2):>8} {rep.cr(3):>7} {rep.cr(4):>7} "
              f"{rep.cnot_count:>9} {closed.cnot_count:>13}")

print("\ntakeaways: binary encodings shrink the qubit budget at the price of "
      "more (and higher-arity) rotations; the descending assignment claws "
      "back a chunk of the CNOTs whenever N_CH is not a power of two.")
