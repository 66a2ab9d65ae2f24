"""Seeded differential test: three routes to every loop operator agree.

Random connected cell sets (``lattice._build_from_cells``) carry random
closed programs: plaquette ``Spatial`` steps, some split into two open
chains with a band in between, each followed by a ``Temporal`` step whose
modified set is the running frontier, then one free evolution
(``Temporal`` with no modified link).  The
routes compared are

* the dense Kronecker oracle of ``conftest`` (full 2**L matrices,
  exponentials by ``eigh``), projected onto the sector basis built here
  from explicit |+>/|-> Kronecker products;
* the literal gate list in the full space
  (``statevec.trotterized_loop_operator_fullspace``);
* the sector route (:func:`exact_loop_operator`,
  :func:`trotterized_loop_operator` and the sector operators of
  ``gauge`` and ``wilson``).

The sector route's Trotter loop, which runs in cycle coordinates, must
also give the same bits as the plain gather loop of ``conftest``.

The Hadamard-test circuit of each program also runs on both executors,
the full-space ``statevec.run_circuit`` and the sector-block
:func:`run_blocks`, whose p_+ must match the sector route's to two ulp per
gate.  An open chain moves the controlled branch into a charged block, so
those programs exercise the blocks of other charge patterns.
"""

import numpy as np
import pytest

from conftest import bit_identical, dense_pauli, gather_loop_operator
from z2wilson.circuits import block_bit_probability, run_blocks
from z2wilson.gauge import (Z2Model, build_physical_sector,
                            embed_sector_coords, hamiltonian_in_sector,
                            spatial_loop_in_sector, unitarity_error)
from z2wilson.lattice import _build_from_cells
from z2wilson.programs import (LoopProgram, Spatial, Temporal,
                               program_errors)
from z2wilson.statevec import (PauliString, StateVector, _bit_probability,
                               run_circuit,
                               trotterized_loop_operator_fullspace)
from z2wilson.trotter import exact_loop_operator, trotterized_loop_operator
from z2wilson.wilson import (conjugated_temporal_plaquette,
                             hadamard_test_circuit, temporal_plaquette_exact)

TROTTER_TOL = 1e-12
EXACT_TOL = 1e-11
ULP_PER_GATE = 2 * np.finfo(float).eps
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def random_cells(rng, n_cells):
    """Connected cell set grown one random edge-neighbour at a time,
    shifted to non-negative coordinates."""
    cells = [(0, 0)]
    while len(cells) < n_cells:
        x, y = cells[rng.integers(len(cells))]
        dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)]
        if (x + dx, y + dy) not in cells:
            cells.append((x + dx, y + dy))
    x0 = min(x for x, _ in cells)
    y0 = min(y for _, y in cells)
    return [(x - x0, y - y0) for x, y in cells]


def random_program(lattice, rng, n_slices):
    """Closed program; every band's modified set is the running frontier."""
    steps = []
    frontier = set()
    for _ in range(n_slices):
        plaq = lattice.plaquettes[rng.integers(lattice.n_plaquettes)]
        # plaquette links run (bottom, right, top, left): both halves are
        # contiguous chains with open ends
        chains = [plaq] if rng.integers(2) else [plaq[:2], plaq[2:]]
        for chain in chains:
            steps.append(Spatial(chain))
            frontier ^= set(chain)
            steps.append(Temporal(rng.uniform(0.2, 1.0), frontier))
    steps.append(Temporal(rng.uniform(0.2, 1.0), ()))
    program = LoopProgram(steps)
    assert program_errors(lattice, program) == []
    return program


class DenseOracle:
    """Full-space Kronecker matrices of one model, applied to sector columns.

    Pauli strings come from ``conftest.dense_pauli``; X and Z strings are
    real, so the Hamiltonians are real symmetric.  Exact exponentials go
    through ``eigh`` (one per distinct modified set); each Trotter factor
    is e^{i theta P} = cos(theta) I + i sin(theta) P, since P**2 = I.
    """

    def __init__(self, model, sector):
        lat = model.lattice
        n = lat.n_links
        self.model = model
        self.xs = [dense_pauli(PauliString({li: "X"}), n) for li in range(n)]
        self.plaqs = [dense_pauli(PauliString({li: "Z" for li in p}), n)
                      for p in lat.plaquettes]
        self.h_free = (-model.lam * sum(self.plaqs) - sum(self.xs)).real
        self.eigh_cache = {}
        # columns |m>_X of the sector masks as explicit Kronecker products
        cols = []
        for m in sector.masks:
            v = np.ones(1)
            for q in reversed(range(n)):
                v = np.kron(v, MINUS if int(m) >> q & 1 else PLUS)
            cols.append(v)
        self.basis = np.array(cols, dtype=complex).T

    def project(self, v):
        return self.basis.conj().T @ v

    def h(self, modified=frozenset()):
        """H + sum_{m in modified} 2 sigma_1(e_m)."""
        return self.h_free + 2 * sum(self.xs[li].real for li in modified)

    def spatial(self, links, v):
        odd = set()
        for li in links:
            odd ^= {li}
        n = self.model.lattice.n_links
        return dense_pauli(PauliString({li: "Z" for li in odd}), n) @ v

    def evolve(self, tau, v, modified=frozenset()):
        """e^{-i tau H'} v by eigh of the full-space H'."""
        key = frozenset(modified)
        if key not in self.eigh_cache:
            self.eigh_cache[key] = np.linalg.eigh(self.h(key))
        evals, evecs = self.eigh_cache[key]
        return evecs @ (np.exp(-1j * tau * evals)[:, None] * (evecs.T @ v))

    def exact(self, program):
        v = self.basis
        for step in program.steps:
            if isinstance(step, Spatial):
                v = self.spatial(step.links, v)
            else:
                mods = (step.modified_links if isinstance(step, Temporal)
                        else frozenset())
                v = self.evolve(step.tau, v, mods)
        return self.project(v)

    def trotter(self, program, n_T):
        v = self.basis

        def rotate(p, theta):
            nonlocal v
            v = np.cos(theta) * v + 1j * np.sin(theta) * (p @ v)

        for step in program.steps:
            if isinstance(step, Spatial):
                v = self.spatial(step.links, v)
                continue
            mods = step.modified_links if isinstance(step, Temporal) else ()
            half = step.tau / (2 * n_T)
            for k in range(n_T + 1):
                scale = half if k in (0, n_T) else 2 * half
                for li, x in enumerate(self.xs):
                    rotate(x, -scale if li in mods else scale)
                if k < n_T:
                    for p in self.plaqs:
                        rotate(p, self.model.lam * step.tau / n_T)
        return self.project(v)


def max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def assert_hadamard_executors_agree(model, sector, program, n_T, w_nt, rng):
    """p_+ of the gate circuit on both executors vs the sector route."""
    coords = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    coords /= np.linalg.norm(coords)
    circuit, control = hadamard_test_circuit(model, program, n_T)
    blocks, _ = run_blocks(circuit, model, sector, coords)
    full, _ = run_circuit(circuit, StateVector(
        sector.n_links, embed_sector_coords(sector, coords)))
    oracle = (2 + 2 * np.real(np.vdot(coords, w_nt @ coords))) / 4
    tol = ULP_PER_GATE * len(circuit.gates)
    assert abs(block_bit_probability(blocks, circuit, control, 0)
               - oracle) <= tol
    assert abs(_bit_probability(full.amps, full.n_qubits, control, 0)
               - oracle) <= tol
    opens = any(len(s.links) == 2 for s in program.steps
                if isinstance(s, Spatial))
    assert (len(blocks) > 1) == opens


@pytest.mark.parametrize("seed, n_cells", [(11, 1), (12, 2), (13, 3)])
def test_sector_fullspace_and_dense_oracle_agree(seed, n_cells):
    rng = np.random.default_rng(seed)
    lat = _build_from_cells(random_cells(rng, n_cells))
    assert lat.n_links <= 10
    model = Z2Model(lat, rng.uniform(0.5, 3.0))
    sector = build_physical_sector(model)
    dense = DenseOracle(model, sector)
    # at 10 links every distinct band costs one 1024 x 1024 eigh
    program = random_program(lat, rng, 1 if n_cells == 3 else 2)
    n_T = int(rng.integers(1, 3))

    assert max_diff(hamiltonian_in_sector(model, sector),
                    dense.project(dense.h() @ dense.basis)) < EXACT_TOL
    plaq = lat.plaquettes[rng.integers(lat.n_plaquettes)]
    assert max_diff(spatial_loop_in_sector(sector, plaq),
                    dense.project(dense.spatial(plaq, dense.basis))
                    ) < EXACT_TOL

    link = int(rng.integers(lat.n_links))
    tau = rng.uniform(0.2, 1.0)
    conj = conjugated_temporal_plaquette(model, sector, link, tau)
    conj_dense = dense.project(dense.spatial(
        [link], dense.evolve(tau, dense.spatial([link], dense.basis))))
    assert max_diff(conj, conj_dense) < EXACT_TOL
    assert max_diff(conj, temporal_plaquette_exact(
        model, sector, link, tau)) < EXACT_TOL

    w = exact_loop_operator(model, sector, program)
    assert max_diff(w, dense.exact(program)) < EXACT_TOL

    w_nt = trotterized_loop_operator(model, sector, program, n_T)
    assert bit_identical(w_nt, gather_loop_operator(model, sector, program,
                                                    n_T))
    w_full = trotterized_loop_operator_fullspace(model, sector, program,
                                                 n_T)
    assert max_diff(w_nt, w_full) < TROTTER_TOL
    assert max_diff(w_nt, dense.trotter(program, n_T)) < TROTTER_TOL
    assert_hadamard_executors_agree(model, sector, program, n_T, w_nt, rng)


@pytest.mark.parametrize("seed, n_cells", [(21, 2), (22, 3), (23, 4), (24, 4)])
def test_sector_and_fullspace_gate_routes_agree(seed, n_cells):
    rng = np.random.default_rng(seed)
    lat = _build_from_cells(random_cells(rng, n_cells))
    assert lat.n_links <= 13
    model = Z2Model(lat, rng.uniform(0.5, 3.0))
    sector = build_physical_sector(model)
    program = random_program(lat, rng, int(rng.integers(1, 4)))
    n_T = int(rng.integers(1, 4))
    w_nt = trotterized_loop_operator(model, sector, program, n_T)
    assert bit_identical(w_nt, gather_loop_operator(model, sector,
                                                           program, n_T))
    w_full = trotterized_loop_operator_fullspace(model, sector, program, n_T)
    assert max_diff(w_nt, w_full) < TROTTER_TOL
    w = exact_loop_operator(model, sector, program)
    assert unitarity_error(w) < EXACT_TOL
    assert_hadamard_executors_agree(model, sector, program, n_T, w_nt,
                                    rng)


def test_cycle_loop_bit_identical_to_gather():
    # many more random programs than the routes above can afford: no dense
    # oracle, only the sector loop against its gather form
    for seed in range(120):
        rng = np.random.default_rng(1000 + seed)
        lat = _build_from_cells(random_cells(rng, int(rng.integers(1, 6))))
        model = Z2Model(lat, rng.uniform(0.5, 20.0))
        sector = build_physical_sector(model)
        program = random_program(lat, rng, int(rng.integers(1, 4)))
        n_T = int(rng.integers(1, 6))
        w_nt = trotterized_loop_operator(model, sector, program, n_T)
        assert bit_identical(w_nt, gather_loop_operator(
            model, sector, program, n_T)), seed
