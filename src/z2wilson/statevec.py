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
phases or reorders a sum.  The products the kernels need and the
sign-flipped copy for a diagonal string go into reusable scratch buffers
keyed by element count, so applying a gate allocates nothing of state
size.  Only strings with X or Y factors on more than one qubit still build
their action out of place.

A controlled group runs on the strided view of its branch, without
copying it out.  One kind of group is not run gate by gate: an "x-" chain
of Z strings at theta = +-pi/2 whose product phase is real (the V-gate
chains of the plaquette and loop builders) is a parity-controlled NOT,
and it runs as an exact swap of the control's two halves.  That is the
one place where the bit-identity rule above does not hold: the swap is
the exact operator, where the rotations it replaces round.
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
def _shift_down(p: PauliString, offset: int) -> PauliString:
    """Re-index a string whose qubits all lie at or above ``offset``."""
    return PauliString({q - offset: ax for q, ax in p.terms}, p.phase)


@lru_cache(maxsize=256)
def _compress_above(p: PauliString, qubit: int) -> PauliString:
    """Re-index a string onto the register with ``qubit`` removed."""
    return PauliString({(q if q < qubit else q - 1): ax for q, ax in p.terms},
                       p.phase)


def _parity_flip(terms) -> tuple[int, int] | None:
    """(zmask, flip) when an "x-" group is an exact parity-controlled NOT.

    Every term must be a Z-only string with theta = +-pi/2 exactly, so
    that e^{i theta P} = i sign(theta) P.  The product of the terms is then
    phi Z(zmask), with phi the product of the factors i sign(theta) phase
    and zmask the XOR of the strings' masks; with phi = +-1 (flip = 1 for
    -1) the group is P+ (x) I + P- (x) phi Z(zmask).  None otherwise:
    such groups take the rotation route.
    """
    phi = 1
    zmask = 0
    for p, theta in terms:
        xm, zm, _ = p.masks()
        if xm or abs(theta) != np.pi / 2:
            return None
        phi *= (1j if theta > 0 else -1j) * p.phase
        zmask ^= zm
    if phi not in (1, -1):
        return None
    return zmask, int(phi == -1)


@lru_cache(maxsize=8)
def _swap_masks(zmask: int, size: int, words: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """All-ones words where popcount(j & zmask) is even, and where it is
    odd, for j < size, repeated over the ``words`` uint64 words of each
    amplitude (or stacked row of amplitudes)."""
    odd = _bit_parity(np.arange(size, dtype=np.uint64) & np.uint64(zmask))
    ones = np.uint64(np.iinfo(np.uint64).max)
    odd = np.repeat(odd.astype(bool), words)
    return (_readonly(np.where(odd, np.uint64(0), ones)),
            _readonly(np.where(odd, ones, np.uint64(0))))


def _parity_swap(amps: np.ndarray, control: int, zmask: int, flip: int,
                 n_qubits: int) -> None:
    """Swap the control's two halves wherever popcount(k & zmask) + flip
    is odd: the exact action of P+ (x) I + P- (x) (-1)**flip Z(zmask).

    The amplitudes are moved as uint64 words with an XOR swap, so no bit
    changes.  The half-register index j = (high bits, low bits) is walked
    in chunks of at most _BLOCK amplitudes aligned on multiples of
    the chunk size, whose parity is one cached table over the chunk's
    offsets, complemented by the parity of the chunk's base index.
    """
    words = amps.view(np.uint64).reshape(amps.shape[0], -1)
    w = words.shape[1]
    v = _qubit_blocks(words, n_qubits, control)
    hi, lo = v.shape[0], v.shape[2]
    size = min(_BLOCK, hi * lo)
    rows, cols = max(1, size // lo), min(lo, size)
    zc = (zmask & (lo - 1)) | (zmask >> (control + 1) << control)
    masks = [m.reshape(rows, cols * w)
             for m in _swap_masks(zc & (size - 1), size, w)]
    halves = v.reshape(hi // rows, rows, 2, lo // cols, cols * w)
    t = _scratch(size * w, "kernel", np.uint64).reshape(rows, cols * w)
    for i in range(hi // rows):
        for j in range(lo // cols):
            base = i * rows * lo + j * cols
            m = masks[1 ^ flip ^ ((base & zc).bit_count() & 1)]
            a, b = halves[i, :, 0, j], halves[i, :, 1, j]
            np.bitwise_xor(a, b, out=t)
            np.bitwise_and(t, m, out=t)
            a ^= t
            b ^= t


def _copied_branch_exps(branch: np.ndarray, control: int, terms,
                        n_qubits: int) -> None:
    """Run the terms on a copy of the branch in the "branch" scratch
    buffer, as the compressed half-register, and copy it back."""
    work = _scratch(branch.size, "branch").reshape(branch.shape)
    np.copyto(work, branch)
    flat = work.reshape((-1,) + branch.shape[2:])
    for p, theta in terms:
        pauli_exp_inplace(flat, _compress_above(p, control), theta,
                          n_qubits - 1)
    np.copyto(branch, work)


def _branch_exps(amps: np.ndarray, control: int, terms,
                 n_qubits: int) -> None:
    """Run (P, theta) exponentials on the control's bit-0 branch in place.

    The branch is the view (hi, lo[, k]) of the amplitudes whose control
    bit is 0, a string below the control acts within each row of lo
    amplitudes and a string above it across the rows.  So a term below
    runs per contiguous row, or, on a 1-D state with several rows shorter
    than _BLOCK, on the transposed branch as one (lo, hi) stack; a term above
    runs on the branch as an (hi, lo*k) stack, a single Z there being a
    scalar phase per row.  Each term sees the same amplitudes and does the
    same floating-point operations on each as on the compressed
    half-register, so the result is bit-identical to running the terms
    there.  Only a string on both sides of the control (no builder emits
    one) needs that register: the branch is then copied into a scratch
    buffer and back.
    """
    branch = _qubit_blocks(amps, n_qubits, control)[:, 0]
    hi, lo = branch.shape[:2]
    if any(p.max_qubit() > control and min(p.support) < control
           for p, _ in terms):
        _copied_branch_exps(branch, control, terms, n_qubits)
        return
    if amps.ndim == 2 or hi == 1 or lo >= _BLOCK:
        rows = list(branch)
    else:
        rows = [branch.T]
    across = branch.reshape(hi, -1)
    for p, theta in terms:
        if p.max_qubit() < control:
            for row in rows:
                pauli_exp_inplace(row, p, theta, control)
        else:
            pauli_exp_inplace(across, _shift_down(p, control + 1), theta,
                              n_qubits - 1 - control)


def _controlled_exps(amps: np.ndarray, control: int, basis: str, terms,
                     n_qubits: int) -> None:
    """Apply a sequence of (P, theta) exponentials on one controlled branch.

    An "x-" group whose terms are Z-only strings at theta = +-pi/2 with a
    real product phase is a parity-controlled NOT, a Clifford permutation
    (:func:`_parity_flip`): it runs as an exact swap of the control's two
    halves (:func:`_parity_swap`), without the basis change or any
    rotation arithmetic.  This is the one place where the result is not
    bit-identical to applying each controlled exponential alone: it is the
    exact operator, where the rotations round (cos(pi/2) is not 0 in
    floating point).  Every other group is gate-for-gate identical to
    applying each controlled exponential alone, with one basis rotation
    pair for "x-" for the whole sequence, and runs in place on the branch
    (:func:`_branch_exps`).  Arguments are as validated by
    :func:`controlled_pauli_exp_inplace`.
    """
    if basis not in ("z", "x-"):
        raise PauliStringError(f"unknown control basis {basis!r}")
    if basis == "z":
        _branch_exps(amps, control, terms, n_qubits)
        return
    swap = _parity_flip(terms)
    if swap is not None:
        if swap[0] >> n_qubits:
            raise PauliStringError(
                f"string touches a qubit outside register of {n_qubits}")
        _parity_swap(amps, control, *swap, n_qubits)
        return
    # rotate |-> onto spin-up, fire there, rotate back
    _single_qubit_exp(amps, control, "Y", -np.pi / 4, n_qubits)
    _branch_exps(amps, control, terms, n_qubits)
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
