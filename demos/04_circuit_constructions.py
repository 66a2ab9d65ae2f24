"""Plaquette-based and link-based loop circuits, and their gate economics.

Runs the two circuit constructions for the same spatial loop on a random
gauge-invariant state with the sector-block executor ``run_blocks``,
confirms they match the sector operator of the loop, and contrasts the
area-law gate count of plaquette composition with the linear count of
matter transport.
"""

import numpy as np

from z2wilson import (Circuit, Z2Model, build_physical_sector, build_rect,
                      circuit_stats, link_loop_circuit,
                      plaquette_exp_via_ancilla, rect_loop_link_circuit,
                      rect_loop_plaquette_circuit, run_blocks,
                      spatial_loop_in_sector)
from z2wilson.wilson import prepare_minus, spatial_loop_via_ancilla

rng = np.random.default_rng(1)
lat = build_rect(2, 1)
model = Z2Model(lat, 3.0)
sector = build_physical_sector(model)

# a random state in sector coordinates, and the loop's sigma3 product there
c = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
c /= np.linalg.norm(c)
loop = lat.plaquettes[0]
direct = spatial_loop_in_sector(sector, loop) @ c


def column(circuit, blocks, bits):
    """Sector amplitudes of the neutral block at the given ancilla bits."""
    return blocks[sector.charges][:, sum(b << (q - circuit.n_link_qubits)
                                         for q, b in bits.items())]


# --- spatial loop through a shared ancilla in |->
circ = Circuit(lat.n_links)
anc = circ.alloc_ancilla(0)
prepare_minus(circ, anc)
spatial_loop_via_ancilla(circ, loop, anc)
blocks, _ = run_blocks(circ, model, sector, c)
minus_blk = (column(circ, blocks, {anc: 0})
             - column(circ, blocks, {anc: 1})) / np.sqrt(2)
print("V-chain spatial loop overlap with the sector sigma3 product:",
      abs(np.vdot(direct, minus_blk)))

# --- plaquette exponential via the V sandwich
theta = 0.37
circ = Circuit(lat.n_links)
anc = circ.alloc_ancilla(1)
plaquette_exp_via_ancilla(circ, lat, loop, theta, anc)
blocks, _ = run_blocks(circ, model, sector, c)
exact = np.cos(theta) * c + 1j * np.sin(theta) * direct
print("V-sandwich plaquette exponential deviation:",
      np.max(np.abs(column(circ, blocks, {anc: 1}) - exact)))

# --- link-based loop: open, transport, close, measure the mediator
circ = link_loop_circuit(lat, loop)
blocks, outcomes = run_blocks(circ, model, sector, c)
print("link-based loop mediator outcome (0 = spin-up):",
      list(outcomes.values())[-1])
m0, m1, med = sorted(circ.ancilla_init)
ov = np.vdot(direct, column(circ, blocks, {m0: 1, m1: 0, med: 0}))
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
