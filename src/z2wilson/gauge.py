"""Pure Z(2) gauge model: Hamiltonian, Gauss-law stars, physical sector.

The Hamiltonian is

    H = - sum_links sigma_1(e)  -  lam * sum_plaq sigma_3 sigma_3 sigma_3 sigma_3

and the Gauss constraint at every vertex is the star of sigma_1 over
incident links with eigenvalue +1.  Everything here works in the electric
(X-diagonal) basis, where a product state is labeled by a bitmask m with
bit i = 1 meaning sigma_1(e_i) = -1.  Stars are diagonal there, so a
charge sector is the solution set of a linear system over GF(2): one
particular solution shifted by the cycle space of the lattice graph.  The
sector is enumerated from a basis of that cycle space, never by scanning
all 2**L masks, so its cost follows the sector dimension 2**(L-V+1).

The sector is the primary representation.  Its masks are enumerated in
increasing order, and row i is also the cycle coordinate i: ``masks[0]``
XOR the cycle basis vectors picked by the bits of i.  So a sigma_3 string
takes row i to row ``i ^ k``, with k the row that row 0 lands on
(:meth:`SectorMoves.flip`, the reversed view :func:`flipped` rather than
a gather), and every sigma_1 term is the diagonal :func:`electric_diag`.
:class:`SectorMoves` alone knows which charge sector a string lands in.
A sector operator is a plain dim x dim array over these rows (32 x 32 on
the cross): complex, except the Hamiltonian, which is real in this basis
(:func:`hamiltonian_in_sector`).  Such arrays stop at 4096 states
(:func:`_refuse_dense`); only ``sweep`` and the test oracles build them.
The ground state, its energy and its Gauss-law check are all computed in
sector coordinates (:func:`sector_ground_state`,
:func:`sector_gauge_violation`), and so is one evolution of one state
(:func:`evolve_vector`), all matrix-free on H v = ``electric_diag * v``
- lam sum_p ``flipped(v, k_p)``, up to 2**16 states.  Both grow one
block Lanczos basis (:func:`_lanczos`) and differ only in its start
vectors and their stop rule: the eigenpair's Ritz residual, and the
exponential's error estimate.

Embedding into the computational (Z) basis of the full 2**L space is an
explicit step, needed only by ``sweep``'s pinned state
(:func:`pinned_ground_state`, through :func:`ground_state`) and the
full-space reference routes, and is refused above 26 links.  It is
a fast Walsh-Hadamard transform, computed in place (:func:`fwht`):
|m>_X = 2^{-L/2} sum_z (-1)^{popcount(z & m)} |z>.
Only plain amplitude arrays cross that boundary here; the register as a
gate target (Pauli kernels, statevectors, the full-space executor) is
:mod:`statevec`'s alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, _odd_links

_MAX_MASK_BITS = 63         # sector masks are uint64
_MAX_SECTOR_DIM = 1 << 20   # 2**20 uint64 masks take about 8 MB
_MAX_EMBED_QUBITS = 26      # one full-space vector of 2**26 amplitudes is 1 GiB
_MAX_DENSE_DIM = 4096       # dim x dim operators: a dense real H is 128 MB
_FWHT_PIECE = 1 << 13       # amplitudes per half of one fwht piece
GAP_TOLERANCE = 1e-10       # a smaller ground-state gap warns as degenerate
_KRYLOV_COLS = 512          # Lanczos basis vectors before the solve gives up
_KRYLOV_BYTES = 1 << 28     # 256 MiB for that basis: dim 2**16 at most
_LANCZOS_TOL = 1e-15        # Ritz residual that converges, per unit of
                            # spectral_bound
_EXPM_TOL = 1e-15           # error estimate of a converged Krylov
                            # exponential, per unit of |v|
_EXPM_PHASE = 128.0         # largest |tau| * spectral_bound per substep
_EXPM_SUBSTEPS = 1024       # substeps of one evolution before it is refused


class GaugeError(ValueError):
    pass


class DegenerateGroundStateWarning(UserWarning):
    pass


class ConvergenceError(ArithmeticError):
    """A Lanczos ground state or Krylov exponential did not converge
    within its basis."""


@dataclass(frozen=True)
class Z2Model:
    lattice: Lattice
    lam: float = 10.0

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise GaugeError(f"coupling must be finite, got {self.lam}")


def spectral_bound(model: Z2Model) -> float:
    """Gershgorin bound n_links + |lam| n_plaq on |E| of H and of every
    H + sum 2 sigma_1 with modified links: each link term has norm 1,
    each plaquette term norm |lam|."""
    lat = model.lattice
    return lat.n_links + abs(model.lam) * lat.n_plaquettes


def _link_mask(links) -> int:
    """Bitmask of :func:`_odd_links`: a link listed twice cancels."""
    return sum(1 << li for li in _odd_links(links))


def moved_charges(lattice: Lattice, charges, mask: int) -> tuple[int, ...]:
    """Star charges reached from ``charges`` by sigma_3 on ``mask``: a
    charge flips where the mask holds an odd number of its star's links."""
    return tuple(-q if (mask & star).bit_count() & 1 else q
                 for q, star in zip(charges, lattice.star_masks))


@dataclass(frozen=True)
class PhysicalSector:
    """Joint star eigenspace in the electric basis.

    ``masks[k]`` is the X-configuration bitmask of sector basis state k.
    The masks increase with k, and row k is also cycle coordinate k
    (:func:`build_physical_sector`).  ``charges[v]`` is the star eigenvalue
    at vertex v (all +1 for the physical sector); any admissible pattern
    has dim = 2**(n_links - n_vertices + 1).
    """

    n_links: int
    masks: np.ndarray                    # (dim,) uint64, increasing
    charges: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.masks)


def build_physical_sector(model: Z2Model,
                          charges=None) -> PhysicalSector:
    """Enumerate X-basis product states with the given star eigenvalues.

    Default charges are +1 at every vertex (the Gauss-invariant sector).
    The star parities form a linear system over GF(2); its solutions are
    one particular mask XOR any element of the cycle space, spanned by
    doubling over a null-space basis in increasing order, with no sort
    (:func:`_gf2_solve`).  The product of all stars is the identity, so
    admissible patterns carry an even number of -1 entries; anything else
    has no solution and is rejected.
    """
    lat = model.lattice
    L = lat.n_links
    if charges is None:
        charges = (1,) * lat.n_vertices
    charges = tuple(int(q) for q in charges)
    if len(charges) != lat.n_vertices or any(q not in (1, -1) for q in charges):
        raise GaugeError("charges must be +-1 per vertex")
    if L > _MAX_MASK_BITS:
        raise GaugeError(f"sector masks are limited to {_MAX_MASK_BITS} links, "
                         f"lattice has {L}")
    particular, null = _gf2_solve(lat.star_masks,
                                  [int(q == -1) for q in charges], L)
    expected = L - lat.n_vertices + 1
    if len(null) != expected:
        raise GaugeError(
            f"sector dimension 2**{len(null)} != 2**(L-V+1) = 2**{expected}; "
            "check lattice connectivity"
        )
    if 1 << expected > _MAX_SECTOR_DIM:
        raise GaugeError(f"sector dimension 2**{expected} exceeds the "
                         f"enumeration limit {_MAX_SECTOR_DIM}")
    return PhysicalSector(L, _span(particular, null), charges)


def _span(base: int, basis: list[int]) -> np.ndarray:
    """``base ^ XOR_j (bit j of i) basis[j]`` at position i, by doubling:
    increasing in i on :func:`_gf2_solve`'s output."""
    masks = np.array([base], dtype=np.uint64)
    for b in basis:
        masks = np.concatenate([masks, masks ^ np.uint64(b)])
    return masks


class SectorMoves:
    """Which sector a sigma_3 link mask takes a sector to, and how rows map.

    Every sector's rows are its cycle coordinates over one GF(2) cycle
    basis (:func:`build_physical_sector`), so a string takes row i to row
    ``i ^ k`` in the target (:meth:`flip`).  Each sector is built once,
    when first asked for.
    """

    def __init__(self, model: Z2Model, sector: PhysicalSector):
        self.model = model
        self._sectors = {sector.charges: sector}

    def sector(self, charges: tuple[int, ...]) -> PhysicalSector:
        if charges not in self._sectors:
            self._sectors[charges] = build_physical_sector(self.model, charges)
        return self._sectors[charges]

    def flip(self, src: PhysicalSector, mask: int
             ) -> tuple[PhysicalSector, int]:
        """Target sector of sigma_3 on ``mask``, and k: row i of ``src``
        goes to row ``i ^ k`` of the target, where k is the row that row 0
        lands on."""
        dst = self.sector(moved_charges(self.model.lattice, src.charges,
                                        mask))
        return dst, _row_of(dst, int(src.masks[0]) ^ mask)


def flipped(a: np.ndarray, k: int) -> np.ndarray:
    """View of ``a`` whose row i is row ``i ^ k``: on ``a`` reshaped to a
    (2,)*n_bits cube, with the axes of k's set bits reversed."""
    n_bits = a.shape[0].bit_length() - 1
    cube = a.reshape((2,) * n_bits + a.shape[1:])
    return cube[tuple(slice(None, None, -1) if k >> (n_bits - 1 - ax) & 1
                      else slice(None) for ax in range(n_bits))]


def _row_of(sector: PhysicalSector, mask: int) -> int:
    """Row of ``mask`` in ``sector``.  A mask outside it means a sigma_3
    string is not a closed cycle between the two sectors it was asked to
    join, which raises GaugeError."""
    i = int(np.searchsorted(sector.masks, np.uint64(mask)))
    if i == sector.dim or sector.masks[i] != mask:
        raise GaugeError("link set is not a closed cycle; sigma_3 product "
                         "leaves the sector")
    return i


def _gf2_solve(rows: list[int], rhs: list[int], n_bits: int
               ) -> tuple[int, list[int]]:
    """Solve parity(row & x) = b for every (row, b) over GF(2).

    Returns one solution and a basis of the null space, all as bitmasks
    over ``n_bits``.  Rows are kept in reduced echelon form keyed by their
    lowest set bit, so every other bit of a row is a free variable above
    its pivot.  Null vector j then tops out at its own free variable, which
    no other vector and not the solution holds: :func:`_span` lists the
    coset in increasing order, and row i is cycle coordinate i.  An
    inconsistent system raises GaugeError.
    """
    pivots: dict[int, tuple[int, int]] = {}      # pivot bit -> (row, b)
    for row, b in zip(rows, rhs):
        for p, (prow, pb) in pivots.items():
            if row >> p & 1:
                row, b = row ^ prow, b ^ pb
        if row == 0:
            if b:
                raise GaugeError(
                    "charge pattern is inconsistent with Gauss's law; each "
                    "connected component needs an even number of -1 charges")
            continue
        p = (row & -row).bit_length() - 1
        for q, (qrow, qb) in pivots.items():
            if qrow >> p & 1:
                pivots[q] = (qrow ^ row, qb ^ b)
        pivots[p] = (row, b)
    particular = sum(1 << p for p, (_, b) in pivots.items() if b)
    null = []
    for f in range(n_bits):
        if f not in pivots:
            null.append((1 << f) | sum(1 << p for p, (prow, _) in pivots.items()
                                       if prow >> f & 1))
    return particular, null


# ---------------------------------------------------------------------------
# embedding between the sector and the full 2**L space
# ---------------------------------------------------------------------------

def fwht(a: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform along axis 0, in place.

    ``a`` must be a C-contiguous complex128 array whose first axis has a
    power-of-two length; trailing axes are transformed as stacked
    columns.  The butterflies run pass by pass, ``h`` = 1, 2, 4, ..., each
    pair as ``x + y`` and ``x - y``: the same operations in the same order
    as a transform through two half-size copies, so the bits are the same.
    Each pass goes through ``a`` in pieces of r rows from each side of its
    butterflies, copied into one scratch of 2r rows: ``_FWHT_PIECE``
    amplitudes per side (256 KB for one column), and never more than half
    of ``a`` from 4 rows up.  Nothing else of ``a``'s size is allocated,
    so the peak is ``a`` plus that scratch.
    """
    if a.dtype != np.complex128 or not a.flags.c_contiguous:
        raise TypeError("fwht transforms a C-contiguous complex128 array "
                        "in place")
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError(f"fwht needs a power-of-two length, got {n}")
    rows = a.reshape(n, -1)
    width = rows.shape[1]
    r = 1 << max(0, (_FWHT_PIECE // width).bit_length() - 1)
    r = max(1, min(r, n // 4))
    scratch = np.empty((2, r * width), dtype=np.complex128)
    h = 1
    while h < n:
        # block i pairs its rows [0, h) with [h, 2h); a piece takes q whole
        # blocks (h < r) or a run of g = r rows from each side of one
        v = rows.reshape(n // (2 * h), 2, h, width)
        q, g = max(1, r // h), min(h, r)
        sx, sy = scratch.reshape(2, q, g, width)
        for i in range(0, n // (2 * h), q):
            for j in range(0, h, g):
                x, y = v[i:i + q, 0, j:j + g], v[i:i + q, 1, j:j + g]
                np.copyto(sx, x)
                np.copyto(sy, y)
                np.add(sx, sy, out=x)
                np.subtract(sx, sy, out=y)
        h *= 2


def embed_sector_coords(sector: PhysicalSector, coords: np.ndarray) -> np.ndarray:
    """Sector coefficients -> full-space amplitudes in the Z basis.

    The one full-space array is built here, then transformed and scaled
    in place (:func:`fwht`): the peak is that array plus the transform's
    256 KB scratch.  Refused above 26 links: the full 2**L space is built
    only for the gate circuits that need it, and 2**26 amplitudes already
    take 1 GiB.
    """
    L = sector.n_links
    _refuse_embedding(L)
    w = np.zeros((1 << L,) + coords.shape[1:], dtype=np.complex128)
    w[sector.masks.astype(np.intp)] = coords
    fwht(w)
    w /= np.sqrt(1 << L)
    return w


def _refuse_embedding(n_links: int) -> None:
    """Refuse a full-space array of 2**n_links amplitudes above 26 links."""
    if n_links > _MAX_EMBED_QUBITS:
        raise GaugeError(f"full-space embedding needs 2**{n_links} "
                         f"amplitudes; the full-space routes are limited to "
                         f"{_MAX_EMBED_QUBITS} links")


def project_to_sector(sector: PhysicalSector, amps: np.ndarray) -> np.ndarray:
    """Full-space amplitudes -> sector coefficients (adjoint of embed).

    ``amps`` is left as it is: one private copy is transformed in place
    and only its sector rows are scaled, so the peak is ``amps``, that
    copy and :func:`fwht`'s 256 KB scratch.  ``sweep``'s pinned state
    owns its amplitudes and skips the copy (:func:`pinned_ground_state`).
    """
    return _project_in_place(sector,
                             np.array(amps, dtype=np.complex128, order="C"))


def _project_in_place(sector: PhysicalSector, w: np.ndarray) -> np.ndarray:
    """:func:`project_to_sector` of ``w``, which is transformed in place
    and left holding the unscaled transform: only the sector rows are
    gathered and scaled."""
    fwht(w)
    return w[sector.masks.astype(np.intp)] / np.sqrt(1 << sector.n_links)


# ---------------------------------------------------------------------------
# sector operators: dim x dim arrays over the sector's rows
# ---------------------------------------------------------------------------

def unitarity_error(u: np.ndarray) -> float:
    """max |U^dag U - I| over the entries of a square operator matrix."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))


def hamiltonian_in_sector(model: Z2Model, sector: PhysicalSector,
                          modified_links: frozenset[int] | set[int] = frozenset()
                          ) -> np.ndarray:
    """H + sum_{m in modified} 2 sigma_1(e_m), projected to the sector.

    The net electric coefficient on a modified link is +sigma_1 (the -sigma_1
    in H plus the 2 sigma_1 insertion).  In the electric basis the matrix
    is real and symmetric, so it is float64: an integer diagonal, and -lam
    in row ``i ^ k`` of column i for each plaquette, whose sigma_3 string
    takes row i there (:func:`_plaquette_rows`, which the matrix-free
    product of :func:`sector_ground_state` and the sector Trotter band
    read too).  For lam > 0 it is stoquastic (no positive off-diagonal
    entry), and the ground state is a positive vector.  Only ``sweep``'s ground state and exact evolutions
    and the test oracles build this matrix, and sectors above 4096 states
    are refused: their dense matrix would take more than 128 MB.
    """
    _refuse_dense(sector.dim)
    h = np.diag(electric_diag(model, sector, modified_links))
    rows = np.arange(sector.dim)
    for k in _plaquette_rows(model, sector):
        h[rows ^ k, rows] += -model.lam
    return h


def _plaquette_rows(model: Z2Model, sector: PhysicalSector) -> list[int]:
    """Per plaquette, the row k its sigma_3 string takes row 0 of
    ``sector`` to: it takes row i to row ``i ^ k``."""
    return [_row_of(sector, int(sector.masks[0]) ^ _link_mask(plaq))
            for plaq in model.lattice.plaquettes]


def _refuse_dense(dim: int) -> None:
    """Refuse a dim x dim sector operator above :data:`_MAX_DENSE_DIM`."""
    if dim > _MAX_DENSE_DIM:
        raise GaugeError(f"sector dimension {dim} exceeds the dense-matrix "
                         f"limit {_MAX_DENSE_DIM}")


def electric_diag(model: Z2Model, sector: PhysicalSector,
                  modified_links: frozenset[int] | set[int] = frozenset()
                  ) -> np.ndarray:
    """Diagonal of -sum sigma_1 + sum_{m in modified} 2 sigma_1 on the sector.

    The electric labels are exact in the sector basis: link i contributes
    -s_i, or +s_i when modified, with s_i = +1 when bit i of the mask is 0.
    A modified link off the lattice raises GaugeError.
    """
    for li in modified_links:
        if not 0 <= li < model.lattice.n_links:
            raise GaugeError(f"modified link {li} out of range")
    masks = sector.masks
    diag = np.zeros(sector.dim)
    for li in range(model.lattice.n_links):
        s = 1.0 - 2.0 * ((masks >> np.uint64(li)) & np.uint64(1)).astype(float)
        diag += s if li in modified_links else -s
    return diag


def spatial_loop_in_sector(sector: PhysicalSector, links) -> np.ndarray:
    """Sector matrix of prod sigma_3 over the given links.

    sigma_3 flips the electric label of its link with unit coefficient, so
    this is the XOR permutation by the link mask (a link listed twice
    cancels), the row flip ``i ^ k``.  The link set must have even overlap
    with every star (a closed cycle); otherwise the product leaves the
    sector, which is reported as a GaugeError.
    """
    rows = np.arange(sector.dim)
    k = _row_of(sector, int(sector.masks[0]) ^ _link_mask(links))
    mat = np.zeros((sector.dim, sector.dim), dtype=np.complex128)
    mat[rows ^ k, rows] = 1.0
    return mat


def exact_evolve_in_sector(model: Z2Model, sector: PhysicalSector, tau: float,
                           modified_links: frozenset[int] | set[int] = frozenset()
                           ) -> np.ndarray:
    """e^{-i tau (H + sum 2 sigma_1)} by exact eigendecomposition.

    Valid because H and every sigma_1(e) commute with all stars, so the
    evolution never leaves the sector.  ``sweep`` and the test oracles
    build it; one state's evolution is :func:`evolve_vector`.  H is solved
    as a complex matrix: the recorded sweep references pin that solver's
    rounding (ROADMAP item 2).
    """
    if not np.isfinite(tau):
        raise GaugeError(f"tau must be finite, got {tau}")
    evals, evecs = np.linalg.eigh(
        hamiltonian_in_sector(model, sector, modified_links
                              ).astype(np.complex128))
    phases = np.exp(-1j * tau * evals)
    return (evecs * phases) @ evecs.conj().T


def _sector_eigh(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the dense sector Hamiltonian ``h``, phase as
    eigh returns it, in ``h``'s dtype.

    The eigenvector is a copy, so the dim x dim eigenvector matrix is freed
    on return.  A spectral gap below :data:`GAP_TOLERANCE` raises a
    DegenerateGroundStateWarning.
    """
    evals, evecs = np.linalg.eigh(h)
    _warn_if_degenerate(evals)
    return float(evals[0]), evecs[:, 0].copy()


def _warn_if_degenerate(evals: np.ndarray) -> None:
    """DegenerateGroundStateWarning when the two lowest of the ascending
    ``evals`` lie within :data:`GAP_TOLERANCE`."""
    if len(evals) > 1 and evals[1] - evals[0] < GAP_TOLERANCE:
        warnings.warn(
            f"ground state degenerate within {GAP_TOLERANCE}: "
            f"gap = {evals[1] - evals[0]:.3e}",
            DegenerateGroundStateWarning,
        )


def sector_ground_state(model: Z2Model, sector: PhysicalSector
                        ) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the sector Hamiltonian, in sector coordinates.

    Solved matrix-free by block Lanczos (:func:`_lanczos`) from a block of
    two start vectors, the uniform one and a Weyl sequence, so a two-fold
    or higher degeneracy shows up as two equal Ritz values.  No dim x dim
    matrix is built, only the Krylov basis, whose budget
    (:func:`_refuse_krylov`) is checked before the solve.  At each of the
    basis's checks the two lowest Ritz pairs are read, their residuals off
    T's rows below the processed block.  The solve stops when the ground
    pair's residual is at most :data:`_LANCZOS_TOL` times
    :func:`spectral_bound` and the second one's is too small to move the
    second Ritz value across the :data:`GAP_TOLERANCE` line above the
    first: the gap need only be known as well as the degeneracy test reads
    it.  The energy is the Rayleigh quotient of the normalised Ritz
    vector.  A basis that fills up first raises ConvergenceError.  The
    coordinates are real; the largest-magnitude one (lowest index wins
    ties) is made positive by a sign flip, and they are returned as
    complex128 with every imaginary part +0.  For lam > 0 the ground state
    is a Perron-Frobenius vector in both the electric and the
    computational basis, so every coordinate comes out positive and the
    phase is the same as :func:`ground_state`'s up to rounding.  A
    spectral gap below :data:`GAP_TOLERANCE` between the two lowest Ritz
    values raises a DegenerateGroundStateWarning.
    """
    _refuse_krylov(sector.dim)
    apply_h = _hamiltonian_product(model, sector)
    tol = _LANCZOS_TOL * spectral_bound(model)
    weyl = np.modf(np.arange(sector.dim) * 0.6180339887498949)[0] - 0.5
    for q, (evals, evecs), below, _ in _lanczos(
            apply_h, (np.ones(sector.dim), weyl), tol):
        residual = np.linalg.norm(below @ evecs[:, :2], axis=0)
        if residual[0] <= tol and (len(evals) == 1 or residual[1] <= max(
                tol, abs(evals[1] - evals[0] - GAP_TOLERANCE))):
            break
    else:
        raise ConvergenceError(
            f"Lanczos ground state not converged in {len(q) + len(below)} "
            f"basis vectors: residual {residual.max():.3e} > {tol:.3e}")
    _warn_if_degenerate(evals)
    x = evecs[:, 0] @ q
    x /= np.sqrt(x @ x)
    energy = float(x @ apply_h(x))
    k = int(np.argmax(np.abs(x)))
    if x[k] < 0:
        x = -x
    return energy, x.astype(np.complex128)


def _hamiltonian_product(model: Z2Model, sector: PhysicalSector,
                         modified_links: frozenset[int] | set[int]
                         = frozenset()):
    """The matrix-free product v -> (H + sum 2 sigma_1) v on real sector
    vectors: :func:`electric_diag` times v, and -lam times v's row flip
    per plaquette (:func:`_plaquette_rows`)."""
    diag = electric_diag(model, sector, modified_links)
    # v is copied into src, whose row-flip views are built once
    src, flips = np.empty(sector.dim), np.empty(sector.dim)
    views = [flipped(src, k) for k in _plaquette_rows(model, sector)]
    cube = flipped(flips, 0)                    # flips' cube, as a view

    def apply_h(v: np.ndarray) -> np.ndarray:
        src[...] = v
        flips[...] = 0.0
        for view in views:
            np.add(cube, view, cube)
        return diag * v - model.lam * flips

    return apply_h


def _refuse_krylov(dim: int) -> None:
    """Refuse a Lanczos solve or exponential whose Krylov basis could
    outgrow :data:`_KRYLOV_BYTES`: min(dim, :data:`_KRYLOV_COLS`) vectors
    of dim float64 each."""
    need = min(dim, _KRYLOV_COLS) * dim * 8
    if need > _KRYLOV_BYTES:
        raise GaugeError(
            f"sector dimension {dim} exceeds the Lanczos limit: "
            f"{min(dim, _KRYLOV_COLS)} basis vectors take {need >> 20} MiB, "
            f"the budget is {_KRYLOV_BYTES >> 20} MiB")


def _lanczos(apply_h, starts, tol: float):
    """Block Lanczos basis of the symmetric operator ``apply_h`` on R^dim,
    grown from the real vectors ``starts`` (Golub & Underwood 1977, in its
    band form), for its callers' stop rules.

    Each start is normalised and orthogonalised against the basis so far,
    and kept if more than ``tol`` of it is left.  Basis vector j, processed
    in turn, gives H q_j, orthogonalised against the whole basis by
    classical Gram-Schmidt run twice (full reorthogonalisation): its
    coefficients are column j of the Rayleigh quotient T, its norm the
    entry below them, and what is left, unless its norm is at most
    ``tol``, the next basis vector, up to min(dim, :data:`_KRYLOV_COLS`).
    Every eight columns, and once more when the basis can grow no further,
    this yields the processed basis Q_k (k, dim), ``eigh`` of T_k, T's
    rows below T_k and the starts' coefficients r (k, len(starts)), so
    that start j is ``r[:, j] @ Q_k`` up to the dropped remainders.  It
    then returns, and the caller raises its own ConvergenceError.  The
    yielded arrays are views that the next step overwrites.
    """
    dim = len(starts[0])
    rows = min(dim, _KRYLOV_COLS)
    q = np.empty((rows, dim))
    t = np.zeros((rows, rows))
    r = np.zeros((rows, len(starts)))
    n = 0                                       # basis vectors
    for j, v in enumerate(starts):
        size = float(np.sqrt(v @ v))
        if size == 0.0:
            continue
        v = v / size
        r[:n, j] = size * _orthogonalise(q[:n], v)
        norm = float(np.sqrt(v @ v))
        if norm > tol:
            q[n] = v / norm
            r[n, j] = size * norm
            n += 1
    k = 0                                       # columns of T processed
    while k < n:
        w = apply_h(q[k])
        t[:n, k] = _orthogonalise(q[:n], w)
        norm = float(np.sqrt(w @ w))
        if norm > tol and n < dim:
            if n == rows:
                break
            q[n] = w / norm
            t[n, k] = norm
            n += 1
        k += 1
        if k % 8 == 0 and k < n:
            yield q[:k], np.linalg.eigh(t[:k, :k]), t[k:n, :k], r[:k]
    yield q[:k], np.linalg.eigh(t[:k, :k]), t[k:n, :k], r[:k]


def _orthogonalise(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove the rows of ``q`` from ``w`` in place by classical
    Gram-Schmidt, twice; the coefficients removed."""
    c = q @ w
    w -= c @ q
    d = q @ w
    w -= d @ q
    return c + d


def evolve_vector(model: Z2Model, sector: PhysicalSector, tau: float,
                  modified_links: frozenset[int] | set[int], v: np.ndarray
                  ) -> np.ndarray:
    """e^{-i tau (H + sum 2 sigma_1)} v for one sector vector, matrix-free.

    The vector form of :func:`exact_evolve_in_sector`: no dim x dim matrix
    is built.  The step is cut into equal substeps (:func:`_substeps`),
    and each substep is a Lanczos exponential (Park & Light, J. Chem.
    Phys. 85, 5870 (1986)) on one block basis (:func:`_lanczos`) grown
    from Re v and Im v, real start vectors of the real symmetric
    :func:`_hamiltonian_product`, so every product is real.  At each of
    the basis's checks y = e^{-i tau T} r, with r the starts' coefficients
    taken as Re + i Im, is formed from a real ``eigh`` of T as its cosine
    and sine parts; the substep has converged when T's rows below the
    block carry at most :data:`_EXPM_TOL` |v| of y (Saad, SIAM J. Numer.
    Anal. 29, 209 (1992)), and is then Q^T y.  Its Krylov basis is
    :func:`_refuse_krylov`'s; both limits are checked before any work.  A
    substep that does not converge within its basis raises
    ConvergenceError.
    """
    if not np.isfinite(tau):
        raise GaugeError(f"tau must be finite, got {tau}")
    _refuse_krylov(sector.dim)
    n = _substeps(model, sector.dim, tau)
    apply_h = _hamiltonian_product(model, sector, modified_links)
    tol = _EXPM_TOL * spectral_bound(model)
    # contiguous copies: BLAS rounds a strided product (the real part of
    # a complex column) differently from a contiguous one
    re, im = np.array(v.real, dtype=float), np.array(v.imag, dtype=float)
    size = float(np.sqrt(re @ re + im @ im))
    for _ in range(n):
        for q, (evals, evecs), below, r in _lanczos(apply_h, (re, im), tol):
            # e^{-i tau T} (a + i b) = (C a + S b) + i (C b - S a)
            c, s = (evecs @ (f(tau / n * evals)[:, None] * (evecs.T @ r))
                    for f in (np.cos, np.sin))
            y = c[:, 0] + s[:, 1], c[:, 1] - s[:, 0]
            error = np.hypot(*(np.linalg.norm(below @ part) for part in y))
            if error <= _EXPM_TOL * size:
                break
        else:
            raise ConvergenceError(
                f"Krylov exponential not converged in "
                f"{len(q) + len(below)} basis vectors: error estimate "
                f"{error / size:.3e} > {_EXPM_TOL:.0e}")
        re, im = y[0] @ q, y[1] @ q
    return re + 1j * im


def _substeps(model: Z2Model, dim: int, tau: float) -> int:
    """Substeps of one :func:`evolve_vector` step, from |tau|,
    :func:`spectral_bound` and the sector dimension alone: enough that
    each has a phase of at most :data:`_EXPM_PHASE`, but no more than
    dim / :data:`_EXPM_PHASE` when the basis can span the sector, since a
    substep then never needs more than dim basis vectors.  More than
    :data:`_EXPM_SUBSTEPS` is refused."""
    n = int(np.ceil(abs(tau) * spectral_bound(model) / _EXPM_PHASE))
    if dim <= _KRYLOV_COLS:
        n = min(n, int(np.ceil(dim / _EXPM_PHASE)))
    if n > _EXPM_SUBSTEPS:
        raise GaugeError(
            f"evolution phase |tau| * spectral_bound = "
            f"{abs(tau) * spectral_bound(model):.6g} needs {n} Krylov "
            f"substeps in a sector of dimension {dim}; the limit is "
            f"{_EXPM_SUBSTEPS}")
    return max(n, 1)


def ground_state(model: Z2Model, sector: PhysicalSector
                 ) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the sector Hamiltonian, embedded in the full space.

    Returns the energy and the 2**L computational-basis amplitudes.  Phase
    convention: the largest-magnitude full-space amplitude is made real
    positive (lowest index wins ties).  The magnitudes are read in pieces
    of ``_FWHT_PIECE`` amplitudes and the phase is divided out in place, so
    the peak is the amplitudes plus :func:`fwht`'s scratch.  ``sweep``
    takes its state from here, projected back in place by
    :func:`pinned_ground_state`.  A spectral gap below
    :data:`GAP_TOLERANCE` raises a DegenerateGroundStateWarning.  Too many
    links to embed are refused before the eigensolve, unless the sector is
    too large for it, which refuses first.  H is solved as a complex
    matrix: the recorded sweep references pin that solver's rounding
    (ROADMAP item 2).
    """
    if sector.dim <= _MAX_DENSE_DIM:
        _refuse_embedding(sector.n_links)
    energy, coords = _sector_eigh(
        hamiltonian_in_sector(model, sector).astype(np.complex128))
    amps = embed_sector_coords(sector, coords)
    # np.argmax(np.abs(amps)): the first piece holding the largest, then
    # its first index
    starts = range(0, len(amps), _FWHT_PIECE)
    s = starts[int(np.argmax([np.abs(amps[i:i + _FWHT_PIECE]).max()
                              for i in starts]))]
    k = s + int(np.argmax(np.abs(amps[s:s + _FWHT_PIECE])))
    amps /= amps[k] / abs(amps[k])
    return energy, amps


def pinned_ground_state(model: Z2Model, sector: PhysicalSector
                        ) -> tuple[float, np.ndarray]:
    """``sweep``'s ground state: energy and sector coordinates, bit for bit
    ``project_to_sector(sector, ground_state(model, sector)[1])``.

    The recorded sweep references pin the rounding of that full-space
    round trip, whose phase is fixed on the 2**L amplitudes, so it is kept
    until the references are re-derived for :func:`sector_ground_state`
    (ROADMAP item 2, which deletes this function).  The amplitudes are
    this function's own, so they are transformed back in place rather
    than copied: the peak is one full-space vector plus :func:`fwht`'s
    scratch, 1 GiB at the 26-link limit.
    """
    energy, amps = ground_state(model, sector)
    return energy, _project_in_place(sector, amps)


def sector_gauge_violation(model: Z2Model, sector: PhysicalSector,
                           coords: np.ndarray) -> float:
    """max over vertices of |1 - <psi| star_v |psi>| for sector coordinates.

    Stars are diagonal in the electric basis, so the expectation is
    sum_k |c_k|^2 (-1)^popcount(m_k & star_v), evaluated without leaving
    the sector.  Same quantity as ``statevec.gauge_violation`` of the
    embedded state: about 0 in the physical sector, 2 in any sector whose
    charge at some vertex is -1.
    """
    probs = np.abs(np.asarray(coords)) ** 2
    worst = 0.0
    for star in model.lattice.star_masks:
        smask = np.uint64(star)
        signs = 1.0 - 2.0 * (np.bitwise_count(sector.masks & smask) & 1)
        worst = max(worst, abs(1.0 - float(probs @ signs)))
    return worst


def sector_basis_dump(sector: PhysicalSector) -> str:
    """Diagnostic dump: one `BASIS <index> <bitmask-hex>` line per state."""
    lines = [f"BASIS {k} {int(m):x}" for k, m in enumerate(sector.masks)]
    return "\n".join(lines) + "\n"
