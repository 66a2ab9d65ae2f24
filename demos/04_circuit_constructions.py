"""Plaquette-based and link-based loop circuits, and their gate economics.

Runs the two circuit constructions for the same spatial loops on random
gauge-invariant states, confirms they match the direct operator route,
and contrasts the area-law gate count of plaquette composition with the
linear count of matter transport.
"""

import numpy as np

from z2wilson import (Circuit, PauliString, Z2Model, build_physical_sector,
                      build_rect, circuit_stats, link_loop_circuit,
                      plaquette_exp_via_ancilla, rect_loop_link_circuit,
                      rect_loop_plaquette_circuit)
from z2wilson.gauge import embed_sector_coords
from z2wilson.statevec import (StateVector, apply_pauli_exp,
                               link_register_block, run_circuit,
                               spatial_loop_direct)
from z2wilson.wilson import prepare_minus, spatial_loop_via_ancilla

rng = np.random.default_rng(1)
lat = build_rect(2, 1)
model = Z2Model(lat, 3.0)
sector = build_physical_sector(model)

c = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
c /= np.linalg.norm(c)
psi = StateVector(sector.n_links, embed_sector_coords(sector, c))

# --- spatial loop through a shared ancilla in |->
loop = lat.plaquettes[0]
circ = Circuit(lat.n_links)
anc = circ.alloc_ancilla(0)
prepare_minus(circ, anc)
spatial_loop_via_ancilla(circ, loop, anc)
out, _ = run_circuit(circ, psi.copy())
direct = psi.copy()
spatial_loop_direct(direct, loop)
minus_blk = (link_register_block(out, circ, {anc: 0})
             - link_register_block(out, circ, {anc: 1})) / np.sqrt(2)
print("V-chain spatial loop overlap with direct sigma3 product:",
      abs(np.vdot(direct.amps, minus_blk)))

# --- plaquette exponential via the V sandwich
theta = 0.37
circ = Circuit(lat.n_links)
anc = circ.alloc_ancilla(1)
plaquette_exp_via_ancilla(circ, lat, loop, theta, anc)
out, _ = run_circuit(circ, psi.copy())
direct = psi.copy()
apply_pauli_exp(direct, PauliString({li: "Z" for li in loop}), theta)
blk = link_register_block(out, circ, {anc: 1})
print("V-sandwich plaquette exponential deviation:",
      np.max(np.abs(blk - direct.amps)))

# --- link-based loop: open, transport, close, measure the mediator
circ = link_loop_circuit(lat, loop)
out, outcomes = run_circuit(circ, psi.copy())
print("link-based loop mediator outcome (0 = spin-up):",
      list(outcomes.values())[-1])
m0, m1, med = sorted(circ.ancilla_init)
blk = link_register_block(out, circ, {m0: 1, m1: 0, med: 0})
direct2 = psi.copy()
spatial_loop_direct(direct2, loop)
ov = np.vdot(direct2.amps, blk)
print("link-based loop overlap modulus:", abs(ov),
      " phase:", ov / abs(ov))
print("phase predicted by the hop log:", circ.net_logged_phase())

# --- gate economics: area law versus perimeter law
print(f"\n{'L':>4} {'plaquette route':>16} {'link route':>12}")
for k in (1, 2, 3, 4):
    grid = build_rect(k, k)
    n_plaq = circuit_stats(rect_loop_plaquette_circuit(grid))["total"]
    n_link = circuit_stats(rect_loop_link_circuit(grid))["total"]
    print(f"{4*k:>4} {n_plaq:>16} {n_link:>12}")
print("plaquette composition grows with the enclosed area (L^2/4 cells),")
print("matter transport with the perimeter (2 gates per link).")
