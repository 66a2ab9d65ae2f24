"""Non-demolition measurement of a space-time Wilson loop.

An ancilla prepared in |+> controls every gate of the Trotterized loop;
measuring it back in the X basis gives p_+ = <(2 + W + W^dag)/4>, so the
real part of the loop expectation is read off without destroying the
state.  The circuit runs on the Gauss-law blocks of the sector ground
state.  Exact probabilities are cross-checked against the sector oracle,
then shot noise is simulated with a counter-based generator.
"""

import numpy as np

from z2wilson import (Philox, Z2Model, build_cross, build_physical_sector,
                      hadamard_test, sample_p_plus, sector_ground_state,
                      staircase_default, trotterized_loop_operator)

lat = build_cross()
model = Z2Model(lat, lam=10.0)
sector = build_physical_sector(model)
_, coords = sector_ground_state(model, sector)
program = staircase_default()

n_T = 4
p_exact = hadamard_test(model, sector, coords, program, n_T)
w = trotterized_loop_operator(model, sector, program, n_T)
oracle = (2 + 2 * np.real(np.vdot(coords, w @ coords))) / 4

print(f"n_T = {n_T}")
print(f"p_+ from the controlled circuit : {p_exact:.15f}")
print(f"p_+ from the sector oracle      : {oracle:.15f}")
print(f"Re<gs|W_nT|gs>                  : {2*p_exact - 1:.15f}")

print("\nsampled estimates (philox, seed 7):")
rng = Philox(7)
for shots in (100, 1000, 10000):
    p_hat = sample_p_plus(p_exact, shots, rng)
    err = np.sqrt(p_exact * (1 - p_exact) / shots)
    print(f"  {shots:>6} shots: {p_hat:.5f}  (binomial sigma {err:.5f})")
