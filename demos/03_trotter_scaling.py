"""Trotter fidelity scaling of the default space-time staircase loop.

Reproduces the proof-of-principle experiment: cross lattice, lambda = 10,
two temporal steps of tau = 1, n_T from 8 to 128.  Both infidelity series
fall off as a power law with exponent near -4, the second-order symmetric
Trotter signature.
"""

import numpy as np

from z2wilson import (Z2Model, build_cross, build_physical_sector,
                      report_to_csv, sector_ground_state, staircase_default,
                      sweep)

lat = build_cross()
model = Z2Model(lat, lam=10.0)
sector = build_physical_sector(model)
energy, coords = sector_ground_state(model, sector)
program = staircase_default(tau=1.0)

print("ground energy:", energy)
print("program steps:", [type(s).__name__ for s in program.steps])
print()

report = sweep(model, program, coords, [8, 16, 32, 64, 128], sector)

print(f"{'n_T':>5} {'op fidelity':>20} {'gs fidelity':>20}"
      f" {'op infid * n^4':>16}")
for n, fop, fgs in report.rows:
    print(f"{n:>5} {fop:>20.15f} {fgs:>20.15f} {(1-fop)*n**4:>16.2f}")

print()
print(f"operator infidelity ~ n_T^{report.fit_op.exponent:.3f} "
      f"(+- {report.fit_op.std_error:.3f})")
print(f"gs state infidelity ~ n_T^{report.fit_gs.exponent:.3f} "
      f"(+- {report.fit_gs.std_error:.3f})")

with open("trotter_scaling.csv", "w") as fh:
    fh.write(report_to_csv(report))
print("\nwrote trotter_scaling.csv")

# the n_T ~ 9 working point: total fidelity of the highly nonlocal loop
from z2wilson import (exact_loop_operator, state_fidelity,
                      trotterized_loop_operator)

w = exact_loop_operator(model, sector, program)
w9 = trotterized_loop_operator(model, sector, program, 9)
print("\nground-state fidelity at n_T = 9:",
      state_fidelity(coords, w, w9))
print("loop expectation <gs|W|gs> =",
      complex(np.vdot(coords, w @ coords)))
