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

The sector is the primary representation.  Its masks are sorted, and a
mask is looked up by ``searchsorted``: every sigma_3 string or plaquette
is the XOR permutation :func:`xor_perm` by its link mask, every sigma_1
term is the diagonal :func:`electric_diag`.  The Hamiltonian is a small
dense matrix (32 x 32 on the cross).  The ground state, its energy and
its Gauss-law check are all computed in sector coordinates
(:func:`sector_ground_state`, :func:`sector_gauge_violation`).

Embedding into the computational (Z) basis of the full 2**L space is an
explicit step, needed only by the literal gate circuits, and is refused
above 26 links.  It is a fast Walsh-Hadamard transform:
|m>_X = 2^{-L/2} sum_z (-1)^{popcount(z & m)} |z>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, _odd_links
from .statevec import PauliString, StateVector, expect_pauli

_MAX_MASK_BITS = 63         # sector masks are uint64
_MAX_SECTOR_DIM = 1 << 20   # 2**20 uint64 masks take about 8 MB
_MAX_EMBED_QUBITS = 26      # one full-space vector of 2**26 amplitudes is 1 GiB
_MAX_DENSE_DIM = 4096       # a dense complex 4096 x 4096 matrix is 256 MB


class GaugeError(ValueError):
    pass


class DegenerateGroundStateWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Z2Model:
    lattice: Lattice
    lam: float = 10.0

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise GaugeError(f"coupling must be finite, got {self.lam}")


def star_operator(model: Z2Model, vertex: int) -> PauliString:
    """X on every link incident to the vertex, phase +1."""
    return PauliString({li: "X" for li in model.lattice.star(vertex)})


def plaquette_string(lattice: Lattice, plaq_index: int) -> PauliString:
    """Z Z Z Z on the four links of a plaquette."""
    return PauliString({li: "Z" for li in lattice.plaquettes[plaq_index]})


def _link_mask(links) -> int:
    """Bitmask of :func:`_odd_links`: a link listed twice cancels."""
    return sum(1 << li for li in _odd_links(links))


@dataclass(frozen=True)
class PhysicalSector:
    """Joint star eigenspace in the electric basis.

    ``masks[k]`` is the X-configuration bitmask of sector basis state k.
    The masks are sorted, so the index of a mask is a ``searchsorted``
    lookup (see :func:`xor_perm`).  ``charges[v]`` is the star eigenvalue
    at vertex v (all +1 for the physical sector); any admissible pattern
    has dim = 2**(n_links - n_vertices + 1).
    """

    n_links: int
    masks: np.ndarray                    # (dim,) uint64, sorted
    charges: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.masks)

    def is_physical(self) -> bool:
        return all(q == 1 for q in self.charges)


def build_physical_sector(model: Z2Model,
                          charges=None) -> PhysicalSector:
    """Enumerate X-basis product states with the given star eigenvalues.

    Default charges are +1 at every vertex (the Gauss-invariant sector).
    The star parities form a linear system over GF(2); its solutions are
    one particular mask XOR any element of the cycle space, which is
    spanned by doubling over a null-space basis and then sorted.  The
    product of all stars is the identity, so admissible patterns carry an
    even number of -1 entries; anything else has no solution and is
    rejected.
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
    stars = [_link_mask(lat.star(v)) for v in range(lat.n_vertices)]
    particular, null = _gf2_solve(stars, [int(q == -1) for q in charges], L)
    expected = L - lat.n_vertices + 1
    if len(null) != expected:
        raise GaugeError(
            f"sector dimension 2**{len(null)} != 2**(L-V+1) = 2**{expected}; "
            "check lattice connectivity"
        )
    if 1 << expected > _MAX_SECTOR_DIM:
        raise GaugeError(f"sector dimension 2**{expected} exceeds the "
                         f"enumeration limit {_MAX_SECTOR_DIM}")
    masks = np.array([particular], dtype=np.uint64)
    for b in null:
        masks = np.concatenate([masks, masks ^ np.uint64(b)])
    masks.sort()
    return PhysicalSector(L, masks, charges)


def xor_perm(src_masks: np.ndarray, dst_masks: np.ndarray,
             mask: int) -> np.ndarray:
    """Index in ``src_masks`` of ``m ^ mask`` for every ``m`` in ``dst_masks``.

    ``src_masks`` must be sorted (as every sector's masks are).  The result
    is the row permutation taking a matrix over the source basis to the
    destination basis under the sigma_3 product with this link mask.  A
    missing target means the link set is not a closed cycle between the
    two sectors, which raises GaugeError.
    """
    targets = dst_masks ^ np.uint64(mask)
    idx = np.searchsorted(src_masks, targets)
    idx[idx == len(src_masks)] = 0
    if not np.array_equal(src_masks[idx], targets):
        raise GaugeError("link set is not a closed cycle; sigma_3 product "
                         "leaves the sector")
    return idx


def _gf2_solve(rows: list[int], rhs: list[int], n_bits: int
               ) -> tuple[int, list[int]]:
    """Solve parity(row & x) = b for every (row, b) over GF(2).

    Returns one solution and a basis of the null space, all as bitmasks
    over ``n_bits``.  Rows are kept in reduced echelon form keyed by their
    highest set bit; an inconsistent system raises GaugeError.
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
        p = row.bit_length() - 1
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

def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along axis 0."""
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


def embed_sector_coords(sector: PhysicalSector, coords: np.ndarray) -> np.ndarray:
    """Sector coefficients -> full-space amplitudes in the Z basis.

    Refused above 26 links: the full 2**L space is built only for the
    gate circuits that need it, and 2**26 amplitudes already take 1 GiB.
    """
    L = sector.n_links
    if L > _MAX_EMBED_QUBITS:
        raise GaugeError(f"full-space embedding needs 2**{L} amplitudes; "
                         f"the full-space routes are limited to "
                         f"{_MAX_EMBED_QUBITS} links")
    w = np.zeros((1 << L,) + coords.shape[1:], dtype=np.complex128)
    w[sector.masks.astype(np.intp)] = coords
    return fwht(w) / np.sqrt(1 << L)


def project_to_sector(sector: PhysicalSector, amps: np.ndarray) -> np.ndarray:
    """Full-space amplitudes -> sector coefficients (adjoint of embed)."""
    w = fwht(amps) / np.sqrt(1 << sector.n_links)
    return w[sector.masks.astype(np.intp)]


def embed_state(sector: PhysicalSector, coords: np.ndarray) -> StateVector:
    return StateVector(sector.n_links, embed_sector_coords(sector, coords))


# ---------------------------------------------------------------------------
# sector operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorOperator:
    """dim x dim matrix expressed in the PhysicalSector basis."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, other: "SectorOperator") -> "SectorOperator":
        return SectorOperator(self.matrix @ other.matrix)

    def dagger(self) -> "SectorOperator":
        return SectorOperator(self.matrix.conj().T)

    def unitarity_error(self) -> float:
        d = self.dim
        return float(np.max(np.abs(self.matrix.conj().T @ self.matrix
                                   - np.eye(d))))

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    @classmethod
    def identity(cls, dim: int) -> "SectorOperator":
        return cls(np.eye(dim, dtype=np.complex128))


def hamiltonian_in_sector(model: Z2Model, sector: PhysicalSector,
                          modified_links: frozenset[int] | set[int] = frozenset()
                          ) -> SectorOperator:
    """H + sum_{m in modified} 2 sigma_1(e_m), projected to the sector.

    The net electric coefficient on a modified link is +sigma_1 (the -sigma_1
    in H plus the 2 sigma_1 insertion).  Sectors above 4096 states are
    refused: their dense matrix would take more than 256 MB.
    """
    lat = model.lattice
    L = lat.n_links
    for li in modified_links:
        if not 0 <= li < L:
            raise GaugeError(f"modified link {li} out of range")
    dim = sector.dim
    if dim > _MAX_DENSE_DIM:
        raise GaugeError(f"sector dimension {dim} exceeds the dense-matrix "
                         f"limit {_MAX_DENSE_DIM}")
    h = np.diag(electric_diag(model, sector, modified_links)
                ).astype(np.complex128)
    for plaq in lat.plaquettes:
        perm = xor_perm(sector.masks, sector.masks, _link_mask(plaq))
        h[perm, np.arange(dim)] += -model.lam
    return SectorOperator(h)


def electric_diag(model: Z2Model, sector: PhysicalSector,
                  modified_links: frozenset[int] | set[int] = frozenset()
                  ) -> np.ndarray:
    """Diagonal of -sum sigma_1 + sum_{m in modified} 2 sigma_1 on the sector.

    The electric labels are exact in the sector basis: link i contributes
    -s_i, or +s_i when modified, with s_i = +1 when bit i of the mask is 0.
    """
    masks = sector.masks
    diag = np.zeros(sector.dim)
    for li in range(model.lattice.n_links):
        s = 1.0 - 2.0 * ((masks >> np.uint64(li)) & np.uint64(1)).astype(float)
        diag += s if li in modified_links else -s
    return diag


def spatial_loop_in_sector(sector: PhysicalSector, links) -> SectorOperator:
    """Sector matrix of prod sigma_3 over the given links.

    sigma_3 flips the electric label of its link with unit coefficient, so
    this is the XOR permutation by the link mask (a link listed twice
    cancels).  The link set must have even overlap with every star (a
    closed cycle); otherwise the product leaves the sector, which is
    reported as a GaugeError.
    """
    perm = xor_perm(sector.masks, sector.masks, _link_mask(links))
    mat = np.zeros((sector.dim, sector.dim), dtype=np.complex128)
    mat[perm, np.arange(sector.dim)] = 1.0
    return SectorOperator(mat)


def exact_evolve_in_sector(model: Z2Model, sector: PhysicalSector, tau: float,
                           modified_links: frozenset[int] | set[int] = frozenset()
                           ) -> SectorOperator:
    """e^{-i tau (H + sum 2 sigma_1)} by exact eigendecomposition.

    Valid because H and every sigma_1(e) commute with all stars, so the
    evolution never leaves the sector.
    """
    if not np.isfinite(tau):
        raise GaugeError(f"tau must be finite, got {tau}")
    h = hamiltonian_in_sector(model, sector, modified_links).matrix
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(-1j * tau * evals)
    return SectorOperator((evecs * phases) @ evecs.conj().T)


def sector_spectrum(model: Z2Model, sector: PhysicalSector) -> np.ndarray:
    h = hamiltonian_in_sector(model, sector).matrix
    return np.linalg.eigvalsh(h)


def _sector_eigh(model: Z2Model, sector: PhysicalSector,
                 gap_tolerance: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the sector Hamiltonian, phase as eigh returns it.

    A spectral gap below ``gap_tolerance`` raises a
    DegenerateGroundStateWarning.
    """
    h = hamiltonian_in_sector(model, sector).matrix
    evals, evecs = np.linalg.eigh(h)
    if len(evals) > 1 and evals[1] - evals[0] < gap_tolerance:
        warnings.warn(
            f"ground state degenerate within {gap_tolerance}: "
            f"gap = {evals[1] - evals[0]:.3e}",
            DegenerateGroundStateWarning,
        )
    return float(evals[0]), evecs[:, 0]


def sector_ground_state(model: Z2Model, sector: PhysicalSector,
                        gap_tolerance: float = 1e-10
                        ) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the sector Hamiltonian, in sector coordinates.

    Phase convention: the largest-magnitude sector coordinate is made real
    positive (lowest index wins ties).  For lam > 0 the ground state is a
    Perron-Frobenius vector in both the electric and the computational
    basis, so this fixes the same phase as :func:`ground_state` up to
    rounding.  Nothing of size 2**L is built.  A spectral gap below
    ``gap_tolerance`` raises a DegenerateGroundStateWarning.
    """
    energy, coords = _sector_eigh(model, sector, gap_tolerance)
    k = int(np.argmax(np.abs(coords)))
    return energy, coords / (coords[k] / abs(coords[k]))


def ground_state(model: Z2Model, sector: PhysicalSector,
                 gap_tolerance: float = 1e-10) -> tuple[float, StateVector]:
    """Lowest eigenpair of the sector Hamiltonian, embedded in the full space.

    Phase convention: the largest-magnitude full-space amplitude is made
    real positive (lowest index wins ties).  A spectral gap below
    ``gap_tolerance`` raises a DegenerateGroundStateWarning.
    """
    energy, coords = _sector_eigh(model, sector, gap_tolerance)
    amps = embed_sector_coords(sector, coords)
    k = int(np.argmax(np.abs(amps)))
    ph = amps[k] / abs(amps[k])
    amps = amps / ph
    return energy, StateVector(sector.n_links, amps)


def gauge_violation(sv: StateVector, model: Z2Model) -> float:
    """max over vertices of |1 - <sv| star_v |sv>|.

    Ancilla or matter qubits above the link register must be disentangled
    (caller's responsibility); stars act on link qubits only.
    """
    worst = 0.0
    for v in range(model.lattice.n_vertices):
        val = expect_pauli(sv, star_operator(model, v))
        worst = max(worst, abs(1.0 - val))
    return worst


def sector_gauge_violation(model: Z2Model, sector: PhysicalSector,
                           coords: np.ndarray) -> float:
    """max over vertices of |1 - <psi| star_v |psi>| for sector coordinates.

    Stars are diagonal in the electric basis, so the expectation is
    sum_k |c_k|^2 (-1)^popcount(m_k & star_v), evaluated without leaving
    the sector.  Same quantity as :func:`gauge_violation` of the embedded
    state: about 0 in the physical sector, 2 in any sector whose charge
    at some vertex is -1.
    """
    probs = np.abs(np.asarray(coords)) ** 2
    worst = 0.0
    for v in range(model.lattice.n_vertices):
        smask = np.uint64(_link_mask(model.lattice.star(v)))
        signs = 1.0 - 2.0 * (np.bitwise_count(sector.masks & smask) & 1)
        worst = max(worst, abs(1.0 - float(probs @ signs)))
    return worst


def sector_basis_dump(sector: PhysicalSector) -> str:
    """Diagnostic dump: one `BASIS <index> <bitmask-hex>` line per state."""
    lines = [f"BASIS {k} {int(m):x}" for k, m in enumerate(sector.masks)]
    return "\n".join(lines) + "\n"
