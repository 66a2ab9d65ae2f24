"""Shared fixtures, independent dense oracles and two rounding references.

The oracle helpers here deliberately avoid the package's kernels: Pauli
strings become explicit Kronecker products and exponentials go through a
Hermitian eigendecomposition, so every comparison against them is a real
cross-check, not a tautology.  :func:`wegner_dual_hamiltonian` goes
further: it reads neither ``gauge`` nor ``lattice``, only unit-cell
coordinates and the link numbering ``lattice.py`` documents
(:func:`numbered_links`).  :func:`gather_loop_operator` and
:func:`two_copy_fwht` are different: they are the plain forms of the
sector Trotter loop and of the Walsh-Hadamard transform, kept so that the
tests can hold the package's versions to the same bits, not just to
rounding.  :func:`stepwise_trotter_strings` is the per-step form of
``wilson.trotter_strings``, whose gate list the package builds from one
step's strings.  :func:`dense_ground_state` is the dense eigensolve that
``gauge.sector_ground_state``'s Lanczos solve is checked against, and
:func:`sparse_h_apply` an H v for its residuals that shares no code with
the Lanczos product.

The package is imported before numpy, so that its one-BLAS-thread default
(``z2wilson/__init__.py``) is in place when numpy loads: every in-process
solve then rounds as the CLI's does, whatever the host's core count.
"""

import sys

NUMPY_BEFORE_PACKAGE = "numpy" in sys.modules     # read by test_blas_env

import z2wilson  # before numpy: see the docstring
import numpy as np
import pytest

from z2wilson.gauge import (Z2Model, _link_mask, build_physical_sector,
                            electric_diag, ground_state,
                            hamiltonian_in_sector, project_to_sector)
from z2wilson.lattice import build_cross, build_rect
from z2wilson.programs import Spatial
from z2wilson.statevec import PauliString, StateVector

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S0 = np.eye(2, dtype=complex)
_AXIS = {"X": SX, "Y": SY, "Z": SZ}


def dense_pauli(pauli_string, n_qubits):
    """Kronecker-product matrix of a PauliString (qubit 0 least significant)."""
    ops = dict(pauli_string.terms)
    out = np.array([[1.0]], dtype=complex)
    for q in reversed(range(n_qubits)):
        out = np.kron(out, _AXIS.get(ops.get(q), S0))
    return pauli_string.phase * out


def expm_i_hermitian(h):
    """e^{i h} for Hermitian h via eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def numbered_links(cells):
    """Endpoint coordinates of each link of a cell set, in the link order
    ``lattice.py`` documents: per row from the lowest, the horizontal
    links by x, then the vertical links rising from that row by x."""
    h = {(x, yy) for x, y in cells for yy in (y, y + 1)}
    v = {(xx, y) for x, y in cells for xx in (x, x + 1)}
    rows = sorted([(y, 0, x) for x, y in h] + [(y, 1, x) for x, y in v])
    return [((x, y), (x + 1, y) if vertical == 0 else (x, y + 1))
            for y, vertical, x in rows]


def cell_links(cell):
    """Endpoints of a unit cell's links: bottom, right, top, left."""
    x, y = cell
    return [((x, y), (x + 1, y)), ((x + 1, y), (x + 1, y + 1)),
            ((x, y + 1), (x + 1, y + 1)), ((x, y), (x, y + 1))]


def wegner_dual_hamiltonian(cells, lam, modified=()):
    """The neutral sector of a planar lattice as a transverse-field Ising
    model on its plaquette spins (Wegner, J. Math. Phys. 12, 2259 (1971)):

        H = - sum_l s_l prod_{p contains l} Z_p  -  lam sum_p X_p

    with s_l = -1 on a ``modified`` link (given by its endpoints) and +1
    elsewhere.  sigma_1 of a link is the product of Z over the one or two
    cells it bounds, a plaquette's sigma_3 product is X on its cell.  Spin
    k is the k-th cell in row-major order, spin 0 the least significant
    bit.  Built from Kronecker products and cell incidence alone.
    """
    cells = sorted(cells, key=lambda c: (c[1], c[0]))
    n = len(cells)
    bounded = {}                                  # link -> cells it bounds
    for k, cell in enumerate(cells):
        for ends in cell_links(cell):
            bounded.setdefault(ends, []).append(k)

    def on(spins, op):
        out = np.array([[1.0]], dtype=complex)
        for k in reversed(range(n)):
            out = np.kron(out, op if k in spins else S0)
        return out

    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for ends, spins in bounded.items():
        h -= (-1.0 if ends in modified else 1.0) * on(spins, SZ)
    for k in range(n):
        h -= lam * on({k}, SX)
    return h


def dense_ground_state(model, sector):
    """The dense oracle of ``gauge.sector_ground_state``: all eigenvalues
    of the dense real sector H (``hamiltonian_in_sector``, dim <= 4096)
    and the lowest eigenvector, with its largest-magnitude entry (lowest
    index on ties) made positive."""
    evals, evecs = np.linalg.eigh(hamiltonian_in_sector(model, sector))
    v = evecs[:, 0]
    k = int(np.argmax(np.abs(v)))
    return evals, (v if v[k] > 0 else -v)


def searchsorted_perm(src_masks, dst_masks, mask):
    """Index in the sorted ``src_masks`` of ``m ^ mask`` for every ``m`` in
    ``dst_masks``: row j of the destination is row ``perm[j]`` of the
    source under the sigma_3 string ``mask``."""
    targets = dst_masks ^ np.uint64(mask)
    perm = np.searchsorted(src_masks, targets)
    assert np.array_equal(src_masks[perm % len(src_masks)], targets)
    return perm


def sparse_h_apply(model, sector):
    """H v from the masks alone: the electric diagonal read bit by bit and
    one ``searchsorted`` permutation per plaquette, not the row flips of
    ``gauge.flipped`` that the Lanczos product runs."""
    bits = (sector.masks[:, None] >> np.arange(model.lattice.n_links,
                                               dtype=np.uint64)) & 1
    diag = -np.sum(1.0 - 2.0 * bits, axis=1)
    perms = [searchsorted_perm(sector.masks, sector.masks, _link_mask(p))
             for p in model.lattice.plaquettes]
    return lambda v: diag * v - model.lam * sum(v[perm] for perm in perms)


def gather_loop_operator(model, sector, program, n_T):
    """W_{n_T} in sorted sector rows, one fancy-index gather per factor:
    w = c * w + s * w[perm, :] for every plaquette of every Trotter step.
    Each permutation is a ``searchsorted`` over the masks, and a spatial
    step's target sector is read off the star parities of a moved mask,
    so nothing here goes through ``gauge.SectorMoves``."""
    stars = model.lattice.star_masks
    sec = sector
    w = np.eye(sector.dim, dtype=np.complex128)
    for step in program.steps:
        if isinstance(step, Spatial):
            mask = _link_mask(step.links)
            moved = int(sec.masks[0]) ^ mask
            dst = build_physical_sector(model, [
                -1 if (moved & star).bit_count() & 1 else 1
                for star in stars])
            w = w[searchsorted_perm(sec.masks, dst.masks, mask), :]
            sec = dst
            continue
        perms = [searchsorted_perm(sec.masks, sec.masks, _link_mask(plaq))
                 for plaq in model.lattice.plaquettes]
        half = np.exp(-1j * (step.tau / (2 * n_T)) *
                      electric_diag(model, sec, step.modified_links))
        full = half * half
        theta = model.lam * step.tau / n_T
        c, s = np.cos(theta), 1j * np.sin(theta)
        w = half[:, None] * w
        for k in range(n_T):
            for perm in perms:
                w = c * w + s * w[perm, :]
            w = (half if k == n_T - 1 else full)[:, None] * w
    return w


def stepwise_trotter_strings(model, n_T, tau, modified_links=frozenset()):
    """The gate list of ``wilson.trotter_strings`` built step by step, new
    strings in every step: an electric half step, then per Strang step the
    plaquette layer and an electric full step (a half step after the
    last)."""
    lat = model.lattice
    half = tau / (2 * n_T)
    mag = model.lam * tau / n_T

    def electric(scale):
        return [(PauliString({li: "X"}),
                 (-1.0 if li in modified_links else +1.0) * scale)
                for li in range(lat.n_links)]

    def magnetic():
        return [(PauliString({li: "Z" for li in plaq}), mag)
                for plaq in lat.plaquettes]

    gates = electric(half)
    for step in range(n_T):
        gates += magnetic()
        gates += electric(half if step == n_T - 1 else 2 * half)
    return gates


def two_copy_fwht(a):
    """Unnormalized Walsh-Hadamard transform along axis 0 through two
    half-size copies per pass: the butterflies, and their order, that
    ``gauge.fwht`` keeps in place."""
    out = a.astype(np.complex128, copy=True)
    n = out.shape[0]
    tail = out.shape[1:]
    h = 1
    while h < n:
        out = out.reshape(n // (2 * h), 2, h, *tail)
        x = out[:, 0].copy()
        y = out[:, 1].copy()
        out[:, 0] = x + y
        out[:, 1] = x - y
        out = out.reshape(n, *tail)
        h *= 2
    return out


def bit_identical(a, b):
    """Same shape and the same bytes: equal values and signs of zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_state(n_qubits, rng):
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def random_coords(sector, rng):
    c = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    return c / np.linalg.norm(c)


def outcome(call):
    """What ``call()`` returns, or "Type: message" of the ValueError it
    raises (every input check of the package raises one): one row of a
    table of input checks names either."""
    try:
        return call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def one_plaquette():
    """Model (lambda 1) and neutral sector of rect:1x1: 4 links, dim 2."""
    model = Z2Model(build_rect(1, 1), 1.0)
    return model, build_physical_sector(model)


@pytest.fixture(scope="session")
def cross_lattice():
    return build_cross()


@pytest.fixture(scope="session")
def cross_model(cross_lattice):
    return Z2Model(cross_lattice, 10.0)


@pytest.fixture(scope="session")
def cross_sector(cross_model):
    return build_physical_sector(cross_model)


@pytest.fixture(scope="session")
def cross_ground(cross_model, cross_sector):
    """Energy and full-space ground state, as a StateVector."""
    energy, amps = ground_state(cross_model, cross_sector)
    return energy, StateVector(cross_sector.n_links, amps)


@pytest.fixture(scope="session")
def cross_coords(cross_sector, cross_ground):
    """The full-space ground state projected to sector coordinates, as
    ``cmd_sweep`` hands it to ``trotter.sweep``."""
    return project_to_sector(cross_sector, cross_ground[1].amps)
