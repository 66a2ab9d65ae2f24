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

This is the full-space reference that ``circuits.run_circuit`` and the
tests run, with one formula per job.  A string of weight >= 2 is
cos(theta) a + i sin(theta) (P a), where P a is the phase/sign factor
times the index-flip view :func:`flipped`, the helper the sector Trotter
loop uses too.  A single-qubit rotation updates the qubit's two
half-slices in place.  A controlled group runs on a copy of its
control's branch, with no special case for V-gate chains.  No kernel
uses a BLAS product, fuses phases or reorders a sum, so each is
bit-identical to its plain formula.
"""

from __future__ import annotations

from dataclasses import dataclass

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

def _check_register(p: PauliString, n_qubits: int) -> None:
    if p.max_qubit() >= n_qubits:
        raise PauliStringError(
            f"string touches qubit {p.max_qubit()} outside register of {n_qubits}"
        )


def flipped(a: np.ndarray, k: int) -> np.ndarray:
    """View of ``a`` whose row i is row ``i ^ k``: on ``a`` reshaped to a
    (2,)*n_bits cube, with the axes of k's set bits reversed."""
    n_bits = a.shape[0].bit_length() - 1
    cube = a.reshape((2,) * n_bits + a.shape[1:])
    return cube[tuple(slice(None, None, -1) if k >> (n_bits - 1 - ax) & 1
                      else slice(None) for ax in range(n_bits))]


def pauli_action(amps: np.ndarray, p: PauliString, n_qubits: int) -> np.ndarray:
    """Return P @ amps without modifying amps (axis 0 is the Hilbert index).

    (P a)[j] = c(j ^ x) a[j ^ x]: the phase/sign factor c scales the
    amplitudes at their source, then the index-flip view moves them.
    """
    xm, zm, ny = p.masks()
    _check_register(p, n_qubits)
    index = np.arange(1 << n_qubits, dtype=np.uint64)
    parity = np.bitwise_count(index & np.uint64(zm)) & 1
    factor = (p.phase * (1j) ** ny) * (1.0 - 2.0 * parity)
    if amps.ndim > 1:
        factor = factor[:, None]
    return flipped(factor * amps, xm).reshape(amps.shape)


def pauli_apply_inplace(amps: np.ndarray, p: PauliString, n_qubits: int) -> None:
    amps[:] = pauli_action(amps, p, n_qubits)


def _qubit_blocks(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    """View (hi, 2, lo[, k]): axis 1 indexes the qubit's bit."""
    hi = 1 << (n_qubits - 1 - qubit)
    return amps.reshape((hi, 2, 1 << qubit) + amps.shape[1:])


def _bit_probability(amps: np.ndarray, n_qubits: int, qubit: int,
                     bit: int) -> float:
    """Probability that ``qubit`` reads ``bit`` in the 1-D state ``amps``:
    |a|**2 of the qubit's half-view, summed in index order."""
    sq = np.abs(_qubit_blocks(amps, n_qubits, qubit)[:, bit]).ravel()
    np.square(sq, out=sq)
    return float(sq.sum())


def _single_qubit_exp(amps: np.ndarray, qubit: int, axis: str, theta: float,
                      n_qubits: int) -> None:
    """e^{i theta sigma_axis(qubit)} in place, on the qubit's two half-slices.

    Z scales the halves by e^{+-i theta}; X and Y set a0 <- c a0 + m a1 and
    a1 <- c a1 +- m a0 (m = i sin theta for X, sin theta for Y).
    """
    v = _qubit_blocks(amps, n_qubits, qubit)
    if axis == "Z":
        v[:, 0] *= np.exp(1j * theta)
        v[:, 1] *= np.exp(-1j * theta)
        return
    c, s = np.cos(theta), np.sin(theta)
    mix = 1j * s if axis == "X" else s
    a0, a1 = v[:, 0], v[:, 1]
    t0, t1 = a1 * mix, a0 * mix
    a0 *= c
    a0 += t0
    a1 *= c
    if axis == "X":
        a1 += t1
    else:
        a1 -= t1


def pauli_exp_inplace(amps: np.ndarray, p: PauliString, theta: float,
                      n_qubits: int) -> None:
    """amps <- e^{i theta P} amps, exact closed form (requires Hermitian P):
    a half-slice rotation for weight 1, cos(theta) a + i sin(theta) (P a)
    for every longer string."""
    if not p.is_hermitian():
        raise PauliStringError("exponent requires a Hermitian string (phase +-1)")
    if p.is_identity():
        amps *= np.exp(1j * theta)
        return
    _check_register(p, n_qubits)
    if p.weight == 1:
        (qubit, axis), = p.terms
        _single_qubit_exp(amps, qubit, axis, theta * p.phase.real, n_qubits)
        return
    pa = pauli_action(amps, p, n_qubits)
    amps *= np.cos(theta)
    amps += (1j * np.sin(theta)) * pa


def _controlled_exps(amps: np.ndarray, control: int, basis: str, terms,
                     n_qubits: int) -> None:
    """Apply a sequence of (P, theta) exponentials on one controlled branch.

    A "z" group runs on the control's spin-up branch; an "x-" group
    rotates |-> onto spin-up with one Y rotation pair for the whole
    sequence and runs there.  The branch is copied out, the terms run on
    the copy as the register with the control removed, and it is copied
    back.  Within the branch each exponential runs as it would alone,
    V-chains included: a chain of Z strings at theta = +-pi/2 rounds like
    any other group, since cos(pi/2) is not 0 in floating point.
    Arguments are as validated by :func:`controlled_pauli_exp_inplace`.
    """
    if basis not in ("z", "x-"):
        raise PauliStringError(f"unknown control basis {basis!r}")
    for p, _ in terms:
        _check_register(p, n_qubits)
    if basis == "x-":
        _single_qubit_exp(amps, control, "Y", -np.pi / 4, n_qubits)
    branch = _qubit_blocks(amps, n_qubits, control)[:, 0]
    work = branch.copy().reshape((-1,) + amps.shape[1:])
    for p, theta in terms:
        below = {(q if q < control else q - 1): ax for q, ax in p.terms}
        pauli_exp_inplace(work, PauliString(below, p.phase), theta,
                          n_qubits - 1)
    branch[...] = work.reshape(branch.shape)
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
        return StateVector(self.n_qubits, self.amps.copy())

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
    if not 0 <= qubit < sv.n_qubits:
        raise ValueError(f"qubit {qubit} outside register")
    a = _qubit_blocks(sv.amps, sv.n_qubits, qubit)
    return np.einsum("iaj,ibj->ab", a, a.conj())


def qubit_purity(sv: StateVector, qubit: int) -> float:
    rho = reduced_qubit_density(sv, qubit)
    return float(np.real(np.trace(rho @ rho)))
