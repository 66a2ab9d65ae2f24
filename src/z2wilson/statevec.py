"""Dense statevector engine: Pauli strings, their exponentials, and controlled gates.

Amplitudes are stored as a flat complex array of length 2**n_qubits with
qubit 0 as the least significant bit of the index.  Spin convention:
bit 0 is spin-up (sigma_3 eigenvalue +1), bit 1 is spin-down.

All gates are applied through closed-form mask kernels: a Pauli string P
acts on a basis index k as

    P|k> = phase * i**nY * (-1)**popcount(k & zmask) |k ^ xmask>

where xmask collects X/Y qubits and zmask collects Z/Y qubits, and an
exponential e^{i theta P} is cos(theta)*I + i*sin(theta)*P exactly (P**2 = I
whenever the phase is +-1).  No matrix exponentiation, no series truncation.

The kernels accept either a single vector (2**n,) or a stack of column
vectors (2**n, k); the second form is used to push whole operator bases
through a gate sequence in one pass.

Gate kernels update the amplitudes in place.  A single-qubit rotation on
a 1-D state of at least 2**14 amplitudes picks a cache-sized layout from
the qubit's run length 2**qubit.  Runs shorter than 2**12 are too short
for numpy's inner loops, so the state is walked in contiguous blocks and
each amplitude's partner is gathered with ``np.take(..., mode="clip")``
(the default "raise" mode copies its whole output).  Longer runs mix the
two half-slices in pieces of at most 2**13 elements, so that the pieces
and their products stay in cache.  Smaller states, stacks and Z rotations
at long runs work on the whole half-slices.  Every layout performs the
same floating-point operations on every amplitude, so the result is
bit-identical whichever layout runs: no layout uses a BLAS product, fuses
phases or reorders a sum.  The products the kernels need, the
sign-flipped copy for a diagonal string and a copied controlled branch go
into reusable scratch buffers keyed by element count, so applying a gate
allocates nothing of state size.  Only strings with X or Y factors on
more than one qubit still build their action out of place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

AXES = ("X", "Y", "Z")

# single-qubit products a*b -> (axis or None, phase)
_PAULI_MUL = {
    ("X", "X"): (None, 1), ("Y", "Y"): (None, 1), ("Z", "Z"): (None, 1),
    ("X", "Y"): ("Z", 1j), ("Y", "X"): ("Z", -1j),
    ("Y", "Z"): ("X", 1j), ("Z", "Y"): ("X", -1j),
    ("Z", "X"): ("Y", 1j), ("X", "Z"): ("Y", -1j),
}

_VALID_PHASES = (1, -1, 1j, -1j)


class PauliStringError(ValueError):
    """Malformed Pauli string or use outside its register."""


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of single-qubit Pauli operators.

    ``terms`` maps qubit index -> axis in {X, Y, Z}; ``phase`` is one of
    {+1, -1, +i, -i}.  The empty string with phase +1 is the identity.
    Instances are immutable and hashable.
    """

    terms: tuple[tuple[int, str], ...]
    phase: complex = 1

    def __init__(self, terms, phase=1):
        if isinstance(terms, dict):
            items = sorted(terms.items())
        else:
            items = sorted(terms)
        qubits = [q for q, _ in items]
        if len(set(qubits)) != len(qubits):
            raise PauliStringError(f"duplicate qubit entries in {items}")
        for q, ax in items:
            if q < 0:
                raise PauliStringError(f"negative qubit index {q}")
            if ax not in AXES:
                raise PauliStringError(f"unknown Pauli axis {ax!r}")
        phase = complex(phase)
        if not any(abs(phase - p) < 1e-14 for p in _VALID_PHASES):
            raise PauliStringError(f"phase must be one of +1,-1,+i,-i, got {phase}")
        # snap to the exact unit
        phase = min(_VALID_PHASES, key=lambda p: abs(phase - p))
        object.__setattr__(self, "terms", tuple(items))
        object.__setattr__(self, "phase", phase)

    # -- structure ---------------------------------------------------------

    @property
    def support(self) -> frozenset[int]:
        return frozenset(q for q, _ in self.terms)

    @property
    def weight(self) -> int:
        return len(self.terms)

    def axis_on(self, qubit: int) -> str | None:
        for q, ax in self.terms:
            if q == qubit:
                return ax
        return None

    def is_hermitian(self) -> bool:
        return self.phase in (1, -1)

    def is_identity(self) -> bool:
        return not self.terms and self.phase == 1

    def max_qubit(self) -> int:
        return max((q for q, _ in self.terms), default=-1)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product self * other with exact phase bookkeeping."""
        a = dict(self.terms)
        b = dict(other.terms)
        phase = self.phase * other.phase
        out = {}
        for q in sorted(set(a) | set(b)):
            if q in a and q in b:
                ax, ph = _PAULI_MUL[(a[q], b[q])]
                phase *= ph
                if ax is not None:
                    out[q] = ax
            else:
                out[q] = a.get(q, b.get(q))
        return PauliString(out, phase)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the strings commute (even number of clashing qubits)."""
        a = dict(self.terms)
        clashes = sum(
            1 for q, ax in other.terms if q in a and a[q] != ax
        )
        return clashes % 2 == 0

    def masks(self) -> tuple[int, int, int]:
        """(xmask, zmask, nY) for the kernel action; xmask covers X|Y, zmask Z|Y."""
        xm = zm = ny = 0
        for q, ax in self.terms:
            if ax in ("X", "Y"):
                xm |= 1 << q
            if ax in ("Z", "Y"):
                zm |= 1 << q
            if ax == "Y":
                ny += 1
        return xm, zm, ny

    def __str__(self) -> str:
        body = " ".join(f"{q}:{ax}" for q, ax in self.terms) or "I"
        pre = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return f"{pre}[{body}]"


# ---------------------------------------------------------------------------
# raw array kernels
# ---------------------------------------------------------------------------

def _bit_parity(v: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(v) & 1).astype(np.int8)


# per-register-size index arrays and per-mask sign/flip arrays; the working
# set is a handful of masks per run.  Entries are read-only, so no caller
# can corrupt a cached array.
_CACHE_SIZE = 96


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
def _indices(n_qubits: int) -> np.ndarray:
    return _readonly(np.arange(1 << n_qubits, dtype=np.uint64))


@lru_cache(maxsize=_CACHE_SIZE)
def _signs(n_qubits: int, zmask: int) -> np.ndarray:
    par = _bit_parity(_indices(n_qubits) & np.uint64(zmask))
    return _readonly((1.0 - 2.0 * par).astype(np.float64))


@lru_cache(maxsize=_CACHE_SIZE)
def _perm(n_qubits: int, xmask: int) -> np.ndarray:
    return _readonly((_indices(n_qubits) ^ np.uint64(xmask)).astype(np.intp))


@lru_cache(maxsize=8)
def _scratch(size: int, slot: str = "kernel", dtype=np.complex128
             ) -> np.ndarray:
    """Reusable flat work buffer of ``size`` elements.

    Keyed by element count, not shape, so every layout of the same size
    (a vector, a stack of columns, the two halves of a larger register)
    shares one buffer.  ``slot`` separates buffers that are live at the
    same time: a controlled branch copied into the "branch" buffer is
    then updated by kernels that use the "kernel" buffer of that size.
    """
    return np.empty(size, dtype=dtype)


def _expand(arr: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Broadcast a (2**n,) coefficient vector against (2**n,) or (2**n, k)."""
    if vec.ndim == 1:
        return arr
    return arr[:, None]


def pauli_action(amps: np.ndarray, p: PauliString, n_qubits: int) -> np.ndarray:
    """Return P @ amps without modifying amps (axis 0 is the Hilbert index)."""
    xm, zm, ny = p.masks()
    if p.max_qubit() >= n_qubits:
        raise PauliStringError(
            f"string touches qubit {p.max_qubit()} outside register of {n_qubits}"
        )
    scalar = p.phase * (1j) ** ny
    # (P a)[j] = c(j^x) a[j^x]: scale at the source, then gather
    if zm == 0:
        tmp = amps if scalar == 1 else scalar * amps
    else:
        tmp = _expand(_signs(n_qubits, zm), amps) * amps
        if scalar != 1:
            tmp *= scalar
    if xm == 0:
        return tmp.copy() if tmp is amps else tmp
    perm = _perm(n_qubits, xm)
    return tmp[perm] if amps.ndim == 1 else tmp[perm, :]


def pauli_apply_inplace(amps: np.ndarray, p: PauliString, n_qubits: int) -> None:
    amps[:] = pauli_action(amps, p, n_qubits)


def _qubit_blocks(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    """View (hi, 2, lo[, k]): axis 1 indexes the qubit's bit."""
    hi = 1 << (n_qubits - 1 - qubit)
    lo = 1 << qubit
    if amps.ndim == 1:
        return amps.reshape(hi, 2, lo)
    return amps.reshape(hi, 2, lo, amps.shape[1])


def _bit_probability(amps: np.ndarray, n_qubits: int, qubit: int,
                     bit: int) -> float:
    """Probability that ``qubit`` reads ``bit`` in the 1-D state ``amps``.

    |a|**2 of the qubit's half-view goes into a flat scratch buffer in
    index order and is summed there, without a boolean-mask gather.
    """
    half = _qubit_blocks(amps, n_qubits, qubit)[:, bit]
    sq = _scratch(half.size, "real", np.float64)
    np.abs(half, out=sq.reshape(half.shape))
    np.square(sq, out=sq)
    return float(sq.sum())


# Layouts of _single_qubit_exp.  A block and its products stay in L2
# cache; the crossover between gathered rows and half-slice pieces comes
# from per-qubit timings on 2**17 and 2**18 amplitudes.
_BLOCK = 1 << 14        # 256 KiB of complex128
_LONG_RUN = 1 << 12     # shortest run mixed as half-slice pieces
_MIN_ROW = 1 << 10      # shortest row a per-row scale pattern is tiled over


@lru_cache(maxsize=16)
def _partner_table(lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Over one block: each index's partner (index ^ lo), and whether the
    index has bit lo set."""
    idx = np.arange(_BLOCK, dtype=np.intp)
    return _readonly(idx ^ lo), _readonly((idx & lo) != 0)


def _mix_halves(a0: np.ndarray, a1: np.ndarray, axis: str, c: float, mix,
                t0: np.ndarray, t1: np.ndarray) -> None:
    """X or Y mix of two matching half-slices, with products in t0, t1."""
    np.multiply(a1, mix, out=t0)
    np.multiply(a0, mix, out=t1)
    a0 *= c
    a0 += t0
    a1 *= c
    if axis == "X":
        a1 += t1
    else:
        a1 -= t1


def _row_exp(amps: np.ndarray, lo: int, axis: str, theta: float) -> None:
    """Short-run layout of :func:`_single_qubit_exp` for a 1-D state.

    The amplitudes are taken as rows of ``row`` elements, over which the
    qubit's bit pattern repeats.  Z multiplies every row by a phase row.
    X and Y gather each block's partner amplitudes into a scratch block,
    scale them row by row, and accumulate them into the block.
    """
    partner, upper = _partner_table(lo)
    row = max(_MIN_ROW, 2 * lo)
    if axis == "Z":
        rows = amps.reshape(-1, row)
        rows *= np.where(upper[:row], np.exp(-1j * theta), np.exp(1j * theta))
        return
    c, s = np.cos(theta), np.sin(theta)
    if axis == "X":
        mix = 1j * s
    else:  # the upper half subtracts a0 * s; a0 * (-s) is -(a0 * s) exactly
        mix = np.where(upper[:row], complex(-s), complex(s))
    g = _scratch(_BLOCK)
    g_rows = g.reshape(-1, row)
    for blk in amps.reshape(-1, _BLOCK):
        np.take(blk, partner, out=g, mode="clip")
        g_rows *= mix
        blk *= c
        blk += g


def _single_qubit_exp(amps: np.ndarray, qubit: int, axis: str, theta: float,
                      n_qubits: int) -> None:
    """e^{i theta sigma_axis(qubit)} in place.

    Z scales the qubit's two halves by e^{+-i theta}; X and Y set
    a0 <- c a0 + m a1 and a1 <- c a1 +- m a0 (m = i sin theta for X,
    sin theta for Y).  Three layouts run these operations, chosen by the
    run length lo = 2**qubit:

    * short runs (1-D state of at least _BLOCK amplitudes, lo < _LONG_RUN;
      for Z, 2 <= lo): half-slices this short starve numpy's inner
      loops, so the state is walked in contiguous rows and blocks and each
      amplitude's partner is gathered with ``np.take(..., mode="clip")``
      (:func:`_row_exp`); the default "raise" mode would copy its whole
      output on every call;
    * long runs (same states, lo >= _LONG_RUN, X or Y): the half-slices
      piece by piece, at most _BLOCK // 2 elements each, so that the six
      passes of the mix run in cache;
    * otherwise (Z at qubit 0 and at long runs, stacked (2**n, k) inputs,
      and states below one block, which fit in cache whole): whole
      half-slices.

    Every layout performs the same floating-point operations on every
    amplitude, so the output is bit-identical whichever layout runs; none
    may use a BLAS product, fuse phases or reorder a sum.  The products go
    into a scratch buffer, so nothing of state size is allocated per call.
    """
    lo = 1 << qubit
    blocked = amps.ndim == 1 and amps.size >= _BLOCK
    # Z at qubit 0 is one long strided pass per half, no slower than rows
    if blocked and lo < _LONG_RUN and (axis != "Z" or lo > 1):
        _row_exp(amps, lo, axis, theta)
        return
    v = _qubit_blocks(amps, n_qubits, qubit)
    if axis == "Z":
        v[:, 0] *= np.exp(1j * theta)
        v[:, 1] *= np.exp(-1j * theta)
        return
    c, s = np.cos(theta), np.sin(theta)
    mix = 1j * s if axis == "X" else s
    if blocked:
        piece = min(lo, _BLOCK // 2)
        buf = _scratch(_BLOCK)
        t0, t1 = buf[:piece], buf[piece: 2 * piece]
        for h in amps.reshape(-1, 2, lo // piece, piece):
            for a0, a1 in zip(h[0], h[1]):
                _mix_halves(a0, a1, axis, c, mix, t0, t1)
        return
    a0, a1 = v[:, 0], v[:, 1]
    buf = _scratch(2 * a0.size)
    _mix_halves(a0, a1, axis, c, mix, buf[: a0.size].reshape(a0.shape),
                buf[a0.size:].reshape(a0.shape))


def _diagonal_exp(amps: np.ndarray, zmask: int, theta: float,
                  n_qubits: int) -> None:
    """e^{i theta Z..Z} in place: cos * a + i sin * (signs * a), with the
    sign-flipped copy in a scratch buffer."""
    flipped = _scratch(amps.size).reshape(amps.shape)
    np.multiply(_expand(_signs(n_qubits, zmask), amps), amps, out=flipped)
    flipped *= 1j * np.sin(theta)
    amps *= np.cos(theta)
    amps += flipped


def pauli_exp_inplace(amps: np.ndarray, p: PauliString, theta: float,
                      n_qubits: int) -> None:
    """amps <- e^{i theta P} amps, exact closed form (requires Hermitian P)."""
    if not p.is_hermitian():
        raise PauliStringError("exponent requires a Hermitian string (phase +-1)")
    if p.is_identity():
        amps *= np.exp(1j * theta)
        return
    if p.max_qubit() >= n_qubits:
        raise PauliStringError(
            f"string touches qubit {p.max_qubit()} outside register of {n_qubits}"
        )
    if p.weight == 1:
        (qubit, axis), = p.terms
        _single_qubit_exp(amps, qubit, axis, theta * p.phase.real, n_qubits)
        return
    xm, zm, _ = p.masks()
    if xm == 0:
        _diagonal_exp(amps, zm, theta * p.phase.real, n_qubits)
        return
    pa = pauli_action(amps, p, n_qubits)
    amps *= np.cos(theta)
    amps += (1j * np.sin(theta)) * pa


@lru_cache(maxsize=256)
def _compress_above(p: PauliString, qubit: int) -> PauliString:
    """Re-index a string onto the register with ``qubit`` removed."""
    return PauliString({(q if q < qubit else q - 1): ax for q, ax in p.terms},
                       p.phase)


def _controlled_exps(amps: np.ndarray, control: int, basis: str, terms,
                     n_qubits: int) -> None:
    """Apply a sequence of (P, theta) exponentials on one controlled branch.

    Gate-for-gate identical to applying each controlled exponential alone,
    with one branch extraction (and one basis rotation pair for "x-") for
    the whole sequence.  A contiguous branch (the control is the top
    qubit) is updated through a view; otherwise it is copied once into the
    "branch" scratch buffer, the sequence runs on the compressed
    half-register there, and the buffer is copied back.  Arguments are as
    validated by :func:`controlled_pauli_exp_inplace`.
    """
    if basis not in ("z", "x-"):
        raise PauliStringError(f"unknown control basis {basis!r}")
    if basis == "x-":
        # rotate |-> onto spin-up, fire there, rotate back
        _single_qubit_exp(amps, control, "Y", -np.pi / 4, n_qubits)
    view = _qubit_blocks(amps, n_qubits, control)[:, 0]
    if view.flags.c_contiguous:
        work = view
    else:
        work = _scratch(view.size, "branch").reshape(view.shape)
        np.copyto(work, view)
    flat = work.reshape((-1,) + amps.shape[1:])
    for p, theta in terms:
        pauli_exp_inplace(flat, _compress_above(p, control), theta,
                          n_qubits - 1)
    if work is not view:
        np.copyto(view, work)
    if basis == "x-":
        _single_qubit_exp(amps, control, "Y", +np.pi / 4, n_qubits)


def controlled_pauli_exp_inplace(amps: np.ndarray, control: int, basis: str,
                                 p: PauliString, theta: float,
                                 n_qubits: int) -> None:
    """Apply e^{i theta P} on the controlled branch, identity elsewhere.

    basis "z": fires when the control qubit is spin-up (bit 0).
    basis "x-": fires when the control qubit is in |->.
    The control must lie outside the support of P.
    """
    if control in p.support:
        raise PauliStringError(f"control {control} overlaps string support")
    if not 0 <= control < n_qubits:
        raise PauliStringError(f"control {control} outside register")
    if not p.is_hermitian():
        raise PauliStringError("exponent requires a Hermitian string (phase +-1)")
    _controlled_exps(amps, control, basis, [(p, theta)], n_qubits)


# ---------------------------------------------------------------------------
# StateVector
# ---------------------------------------------------------------------------

@dataclass
class StateVector:
    """Normalized dense state over n_qubits.

    Mutation is exclusive: gates rewrite ``amps`` in place.  Norm drift is
    never silently repaired; use :meth:`norm_error` to inspect it.
    """

    n_qubits: int
    amps: np.ndarray
    norm_tolerance: float = 1e-12

    def __post_init__(self):
        if self.amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude array of shape {self.amps.shape} does not match "
                f"{self.n_qubits} qubits")
        if self.amps.dtype != np.complex128:
            self.amps = self.amps.astype(np.complex128)

    @classmethod
    def zeros(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy(), self.norm_tolerance)

    def norm_error(self) -> float:
        return abs(1.0 - float(np.sum(np.abs(self.amps) ** 2)))


def init_basis(n_qubits: int, bitstring: str) -> StateVector:
    """Computational basis state; bitstring is written qubit n-1 first."""
    if len(bitstring) != n_qubits:
        raise ValueError(
            f"bitstring length {len(bitstring)} != n_qubits {n_qubits}"
        )
    index = int(bitstring, 2)
    sv = StateVector.zeros(n_qubits)
    sv.amps[0] = 0.0
    sv.amps[index] = 1.0
    return sv


def apply_pauli(sv: StateVector, p: PauliString) -> None:
    pauli_apply_inplace(sv.amps, p, sv.n_qubits)


def apply_pauli_exp(sv: StateVector, p: PauliString, theta: float) -> None:
    pauli_exp_inplace(sv.amps, p, theta, sv.n_qubits)


def apply_controlled_pauli_exp(sv: StateVector, control: int, basis: str,
                               p: PauliString, theta: float) -> None:
    controlled_pauli_exp_inplace(sv.amps, control, basis, p, theta, sv.n_qubits)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>; registers must match."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"register mismatch: {a.n_qubits} vs {b.n_qubits}")
    return complex(np.vdot(a.amps, b.amps))


def expect_pauli(sv: StateVector, p: PauliString) -> float:
    """<sv|P|sv> for Hermitian P; imaginary residue beyond 1e-12 is an error."""
    if not p.is_hermitian():
        raise PauliStringError("expectation requires a Hermitian string")
    val = complex(np.vdot(sv.amps, pauli_action(sv.amps, p, sv.n_qubits)))
    if abs(val.imag) > 1e-12:
        raise FloatingPointError(f"non-real expectation {val}")
    return val.real


def reduced_qubit_density(sv: StateVector, qubit: int) -> np.ndarray:
    """2x2 reduced density matrix of one qubit (computational basis)."""
    n = sv.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} outside register")
    lo, hi = qubit, n - qubit - 1
    a = sv.amps.reshape(1 << hi, 2, 1 << lo)
    return np.einsum("iaj,ibj->ab", a, a.conj())


def qubit_purity(sv: StateVector, qubit: int) -> float:
    rho = reduced_qubit_density(sv, qubit)
    return float(np.real(np.trace(rho @ rho)))
