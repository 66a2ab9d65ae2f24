"""The full 2**L register: kernels, states and the full-space references.

The one module that knows the register layout: qubit i is link i (ancilla
and matter qubits above), in the computational (Z) basis, as a flat
complex array of length 2**n_qubits with qubit 0 the least significant
bit of the index; bit 0 is spin-up (sigma_3 = +1).  No CLI command loads
it: commands compute in sector coordinates, and the routes here are the
literal references the tests hold them to -- the Pauli kernels and
:class:`StateVector`, the gate-list executor :func:`run_circuit`,
:func:`trotter_evolve`, :func:`trotterized_loop_operator_fullspace` (which
runs the gate list ``export-circuit`` writes), :func:`spatial_loop_direct`
and :func:`gauge_violation`.  It builds on ``circuits.PauliString``, the
gate lists of ``wilson`` and the embedding ``gauge.embed_sector_coords``;
nothing imports it.

A Pauli string P acts on a basis index k as

    P|k> = phase * i**nY * (-1)**popcount(k & zmask) |k ^ xmask>

(xmask: X/Y qubits, zmask: Z/Y qubits, phase +-1), and e^{i theta P} is
cos(theta) I + i sin(theta) P exactly.  Kernels take a vector (2**n,) or
a stack of columns (2**n, k), one formula per job: a weight-1 rotation
updates the qubit's two half-slices in place, every other string (+-I
included) is cos(theta) a + i sin(theta) (P a) with P a the sign factor
times the index-flip view ``gauge.flipped``, and a controlled group runs
on a copy of its control's branch.  No kernel uses a BLAS product, fuses
phases or reorders a sum, so each is bit-identical to its plain formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (Circuit, CircuitError, ControlledPauliExp, Gate,
                       Measure, PauliExp, PauliString, PauliStringError,
                       ResetAncilla, _outcome, star_operator)
from .gauge import (PhysicalSector, Z2Model, _refuse_dense,
                    embed_sector_coords, flipped, project_to_sector)
from .programs import LoopProgram
from .wilson import (_spatial_string, trotter_strings,
                     trotterized_program_circuit)


# ---------------------------------------------------------------------------
# raw array kernels
# ---------------------------------------------------------------------------

def _check_register(p: PauliString, n_qubits: int) -> None:
    if p.max_qubit() >= n_qubits:
        raise PauliStringError(
            f"string touches qubit {p.max_qubit()} outside register of {n_qubits}"
        )


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
    """amps <- e^{i theta P} amps, exact closed form: a half-slice rotation
    for weight 1, cos(theta) a + i sin(theta) (P a) for every other string
    (+-I included)."""
    _check_register(p, n_qubits)
    if p.weight == 1:
        (qubit, axis), = p.terms
        _single_qubit_exp(amps, qubit, axis, p.phase * theta, n_qubits)
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
    Arguments are as validated by :func:`apply_controlled_pauli_exp`.
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
    sv.amps[:] = pauli_action(sv.amps, p, sv.n_qubits)


def apply_pauli_exp(sv: StateVector, p: PauliString, theta: float) -> None:
    pauli_exp_inplace(sv.amps, p, theta, sv.n_qubits)


def apply_controlled_pauli_exp(sv: StateVector, control: int, basis: str,
                               p: PauliString, theta: float) -> None:
    """Apply e^{i theta P} on the controlled branch, identity elsewhere.

    basis "z": fires when the control qubit is spin-up (bit 0).
    basis "x-": fires when the control qubit is in |->.
    The control must lie outside the support of P.
    """
    if not 0 <= control < sv.n_qubits:
        raise PauliStringError(f"control {control} outside register")
    if (p.x | p.z) >> control & 1:
        raise PauliStringError(f"control {control} overlaps string support")
    _controlled_exps(sv.amps, control, basis, [(p, theta)], sv.n_qubits)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>; registers must match."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"register mismatch: {a.n_qubits} vs {b.n_qubits}")
    return complex(np.vdot(a.amps, b.amps))


def expect_pauli(sv: StateVector, p: PauliString) -> float:
    """<sv|P|sv>; imaginary residue beyond 1e-12 is an error."""
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


def gauge_violation(sv: StateVector, model: Z2Model) -> float:
    """max over vertices of |1 - <sv| star_v |sv>|.

    Ancilla or matter qubits above the link register must be disentangled
    (caller's responsibility); stars act on link qubits only.
    """
    worst = 0.0
    for v in range(model.lattice.n_vertices):
        val = expect_pauli(sv, star_operator(model.lattice, v))
        worst = max(worst, abs(1.0 - val))
    return worst


# ---------------------------------------------------------------------------
# gate lists on the whole register
# ---------------------------------------------------------------------------

def extend_with_ancillas(link_sv: StateVector, circuit: Circuit) -> StateVector:
    """Tensor the declared ancilla basis states above the link register."""
    if link_sv.n_qubits != circuit.n_link_qubits:
        raise CircuitError(
            f"link register mismatch: state has {link_sv.n_qubits}, circuit "
            f"expects {circuit.n_link_qubits}")
    n_total = circuit.n_qubits
    offset = 0
    for q, bit in circuit.ancilla_init.items():
        if bit:
            offset |= 1 << q
    amps = np.zeros(1 << n_total, dtype=np.complex128)
    base = 1 << link_sv.n_qubits
    amps[offset: offset + base] = link_sv.amps
    return StateVector(n_total, amps)


def _measure_bit(amps: np.ndarray, qubit: int, n: int, rng) -> int:
    p1 = _bit_probability(amps, n, qubit, 1)
    outcome = _outcome(p1, qubit, rng)
    blocks = _qubit_blocks(amps, n, qubit)
    blocks[:, 1 - outcome] = 0.0
    # numpy divides a complex by a real as (re + im*0) * (1/d), (im - re*0)
    # * (1/d): scaling both float64 parts by 1/d gives the same values
    # without the complex division
    kept = blocks[:, outcome].view(np.float64)
    kept *= 1.0 / np.sqrt(p1 if outcome else 1.0 - p1)
    return outcome


def apply_gates(amps: np.ndarray, gates: list[Gate], n: int,
                rng=None) -> dict[int, int]:
    """Run a gate list in place on the n-qubit amplitudes, gate by gate.

    ``rng`` is any object with ``random()``; a measurement that is not
    certain draws from it.  Returns the measurement outcomes keyed by
    gate position.  Every gate acts on the whole register.  Consecutive
    controlled gates sharing a control and basis run as one group on the
    control's branch (:func:`_controlled_exps`): gate for gate as each
    controlled gate alone, with one basis-rotation pair for a whole "x-"
    group.  Every Measure and ResetAncilla runs :func:`_measure_bit`; a
    reset that reads the other bit then moves the kept half onto the
    target half and zeroes the kept one.
    """
    outcomes: dict[int, int] = {}
    gi = 0
    while gi < len(gates):
        gate = gates[gi]
        if isinstance(gate, (Measure, ResetAncilla)):
            bit = _measure_bit(amps, gate.qubit, n, rng)
            outcomes[gi] = bit
            if isinstance(gate, ResetAncilla) and bit != gate.target_bit:
                halves = _qubit_blocks(amps, n, gate.qubit)
                halves[:, 1 - bit] = halves[:, bit]
                halves[:, bit] = 0.0
            gi += 1
        elif isinstance(gate, PauliExp):
            pauli_exp_inplace(amps, gate.string, gate.theta, n)
            gi += 1
        elif isinstance(gate, ControlledPauliExp):
            run = [gate]
            while (gi + len(run) < len(gates)
                   and isinstance(gates[gi + len(run)], ControlledPauliExp)
                   and gates[gi + len(run)].control == gate.control
                   and gates[gi + len(run)].basis == gate.basis):
                run.append(gates[gi + len(run)])
            _controlled_exps(amps, gate.control, gate.basis,
                             [(g.string, g.theta) for g in run], n)
            gi += len(run)
        else:  # pragma: no cover
            raise CircuitError(f"unknown gate {gate!r}")
    return outcomes


def run_circuit(circuit: Circuit, link_sv: StateVector, rng=None
                ) -> tuple[StateVector, dict[int, int]]:
    """Run the gate list on link_sv extended with the declared ancillas.

    ``rng`` is any object with ``random()`` (see :func:`apply_gates`).
    Returns the final full-register state (global phase applied) and the
    measurement outcomes keyed by gate position.
    """
    sv = extend_with_ancillas(link_sv, circuit)
    outcomes = apply_gates(sv.amps, circuit.gates, sv.n_qubits, rng)
    if circuit.global_phase:
        sv.amps *= np.exp(1j * circuit.global_phase)
    return sv, outcomes


def link_register_block(sv: StateVector, circuit: Circuit,
                        ancilla_bits: dict[int, int]) -> np.ndarray:
    """Amplitude block of the link register at fixed ancilla bits."""
    offset = 0
    for q, bit in ancilla_bits.items():
        if bit:
            offset |= 1 << q
    base = 1 << circuit.n_link_qubits
    return sv.amps[offset: offset + base].copy()


# ---------------------------------------------------------------------------
# Trotterized evolution and loops on the whole register
# ---------------------------------------------------------------------------

def trotter_evolve(sv: StateVector, model: Z2Model, tau: float, n_T: int,
                   modified_links: frozenset[int] | set[int] = frozenset()
                   ) -> None:
    """Apply the Trotterized evolution to the state in place."""
    for string, theta in trotter_strings(model, n_T, tau, modified_links):
        pauli_exp_inplace(sv.amps, string, theta, sv.n_qubits)


def trotterized_loop_operator_fullspace(model: Z2Model, sector: PhysicalSector,
                                        program: LoopProgram, n_T: int
                                        ) -> np.ndarray:
    """Reference route: embed the sector basis, run the gate list that
    ``export-circuit`` writes (``wilson.trotterized_program_circuit``) in
    the full 2**L space with its global phase, project back.  Same matrix
    as ``trotter.trotterized_loop_operator``, and refuses the same
    programs; kept as a cross-check oracle.  Sectors above the
    dense-matrix limit are refused."""
    circuit = trotterized_program_circuit(model, program, n_T)
    _refuse_dense(sector.dim)
    cols = embed_sector_coords(sector, np.eye(sector.dim, dtype=np.complex128))
    apply_gates(cols, circuit.gates, sector.n_links)
    cols *= np.exp(1j * circuit.global_phase)
    return project_to_sector(sector, cols)


def spatial_loop_direct(sv: StateVector, links) -> None:
    """Apply prod sigma_3(e) over the links to the state in place."""
    links = list(links)
    for li in links:
        if li >= sv.n_qubits or li < 0:
            raise ValueError(f"link {li} outside register")
    apply_pauli(sv, _spatial_string(links))
