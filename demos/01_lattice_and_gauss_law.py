"""Lattices, Gauss-law stars, and the physical sector.

Builds the 16-link cross and a rectangular grid, prints their geometry,
and enumerates the gauge-invariant subspace in the electric basis: one
solution of the Gauss law (one parity per vertex star, ``star_masks``)
shifted by every closed loop, never a scan of all 2**L masks.
"""

import numpy as np

from z2wilson import (Z2Model, build_cross, build_physical_sector, build_rect,
                      lattice_to_text, sector_basis_dump, sector_ground_state,
                      validate)

lat = build_cross()
print("cross lattice:", lat.n_vertices, "vertices,", lat.n_links, "links,",
      lat.n_plaquettes, "plaquettes")
print("diagnostics:", validate(lat) or "clean")
print()
print(lattice_to_text(lat))

# star sizes tell the boundary structure: 2 at corners, up to 4 inside
sizes = [len(lat.star(v)) for v in range(lat.n_vertices)]
print("star sizes per vertex:", sizes)
print("star link masks (hex):", [f"{m:x}" for m in lat.star_masks])

# one Gauss constraint per vertex, one redundant: dim = 2^(16 - 12 + 1)
model = Z2Model(lat, lam=10.0)
sector = build_physical_sector(model)
print("\nphysical sector dimension:", sector.dim,
      "(=2^%d)" % (lat.n_links - lat.n_vertices + 1))
print("first basis states (electric bitmask, hex):")
print("\n".join(sector_basis_dump(sector).splitlines()[:6]))

# stars are +1 on every sector state; the ground state lives here
energy, gs = sector_ground_state(model, sector)
print("\nlambda=10 ground energy:", energy)
checks = [abs(1 - np.vdot(gs, gs).real)]
print("norm error:", checks[0])

# the same machinery on a rectangle
rect = build_rect(3, 2)
print("\nrect(3,2):", rect.n_vertices, "vertices,", rect.n_links, "links,",
      rect.n_plaquettes, "plaquettes")
print("sector dim:", build_physical_sector(Z2Model(rect, 1.0)).dim)
