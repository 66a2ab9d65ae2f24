"""Gate-level circuit representation, executor, census, and text export.

A circuit acts on the link register (qubits 0 .. n_links-1) plus ancilla
and matter qubits appended above it.  Four gate kinds exist:

    PauliExp(P, theta)                  e^{i theta P}
    ControlledPauliExp(c, basis, P, t)  e^{i t P} on the designated control
                                        branch ("z": spin-up, "x-": |->)
    Measure(q)                          projective Z measurement
    ResetAncilla(q, bit)                measure, then flip to the target bit

The executor tracks which qubits hold an exact basis bit, meaning every
amplitude with the other bit is 0.0.  The ancillas start so, from
``ancilla_init``; a Measure or ResetAncilla makes its qubit known again;
an X or Y factor on a qubit, or an "x-" group it controls, makes it
unknown, while Z factors and "z" controls keep it known.  A qubit made
unknown gets one exact-zero re-check of its other half before the next
gate group that leaves it alone, or at its next Measure or ResetAncilla:
that is what finds a plaquette box's work ancilla spin-down again after
its V-chain returns.  While the qubits above a gate group are known, the
group runs on the one block of amplitudes that can be nonzero, with the
same arithmetic on every amplitude there as on the whole register; a
Measure or ResetAncilla of a known qubit returns its bit with neither a
probability pass nor a rescale.  A reset's flip moves the kept half onto
the target half exactly.

Builders may also record an exact scalar ``global_phase`` (compensations
that are not worth a gate) and a ``phase_log`` of phases their gate
sequences imprint on the transported component of the state; the executor
applies the global phase, so circuit equality against direct operator
construction is exact, not just up-to-phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Lattice
from .statevec import (PauliString, StateVector, _bit_probability,
                       _controlled_exps, _qubit_blocks, _scratch,
                       pauli_exp_inplace)


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class PauliExp:
    string: PauliString
    theta: float


@dataclass(frozen=True)
class ControlledPauliExp:
    control: int
    basis: str          # "z" (fires on spin-up) or "x-" (fires on |->)
    string: PauliString
    theta: float

    def __post_init__(self):
        if self.basis not in ("z", "x-"):
            raise CircuitError(f"unknown control basis {self.basis!r}")
        if self.control in self.string.support:
            raise CircuitError(
                f"control {self.control} overlaps gate support")


@dataclass(frozen=True)
class Measure:
    qubit: int


@dataclass(frozen=True)
class ResetAncilla:
    qubit: int
    target_bit: int

    def __post_init__(self):
        if self.target_bit not in (0, 1):
            raise CircuitError(
                f"reset target must be 0 or 1, got {self.target_bit!r}")


Gate = PauliExp | ControlledPauliExp | Measure | ResetAncilla


@dataclass
class Circuit:
    """Gate list over links plus allocated work qubits.

    ``ancilla_init[q]`` is the computational bit each work qubit starts in
    (0 = spin-up).  Builders emit gates; execution happens in
    :func:`run_circuit`.
    """

    n_link_qubits: int
    gates: list[Gate] = field(default_factory=list)
    ancilla_init: dict[int, int] = field(default_factory=dict)
    ancilla_roles: dict[int, str] = field(default_factory=dict)
    matter_qubit_map: dict[int, int] = field(default_factory=dict)
    global_phase: float = 0.0
    phase_log: list[tuple[str, complex]] = field(default_factory=list)

    @property
    def n_qubits(self) -> int:
        return self.n_link_qubits + len(self.ancilla_init)

    @property
    def ancilla_count(self) -> int:
        return len(self.ancilla_init)

    def alloc_ancilla(self, initial_bit: int = 0, role: str = "ancilla") -> int:
        q = self.n_qubits
        self.ancilla_init[q] = int(initial_bit)
        self.ancilla_roles[q] = role
        return q

    def add(self, gate: Gate) -> None:
        top = max((q for q, _ in self._gate_support(gate)), default=0)
        if top >= self.n_qubits:
            raise CircuitError(f"gate touches qubit {top} outside register "
                               f"of {self.n_qubits}")
        self.gates.append(gate)

    @staticmethod
    def _gate_support(gate: Gate):
        if isinstance(gate, PauliExp):
            return [(q, ax) for q, ax in gate.string.terms]
        if isinstance(gate, ControlledPauliExp):
            return [(gate.control, "C")] + list(gate.string.terms)
        return [(gate.qubit, "M")]

    def add_phase(self, phase_radians: float) -> None:
        self.global_phase += phase_radians

    def log_phase(self, label: str, value: complex) -> None:
        self.phase_log.append((label, complex(value)))

    def net_logged_phase(self) -> complex:
        out = 1.0 + 0.0j
        for _, value in self.phase_log:
            out *= value
        return out


# ---------------------------------------------------------------------------
# execution
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
    if p1 < 1e-12:
        outcome = 0
    elif p1 > 1 - 1e-12:
        outcome = 1
    elif rng is None:
        raise CircuitError(
            f"measurement of qubit {qubit} is probabilistic (p1={p1:.3g}) "
            "and no RNG was provided")
    else:
        outcome = int(rng.random() < p1)
    blocks = _qubit_blocks(amps, n, qubit)
    blocks[:, 1 - outcome] = 0.0
    # numpy divides a complex by a real as (re + im*0) * (1/d), (im - re*0)
    # * (1/d): scaling both float64 parts by 1/d gives the same values
    # without the complex division
    kept = blocks[:, outcome].view(np.float64)
    kept *= 1.0 / np.sqrt(p1 if outcome else 1.0 - p1)
    return outcome


def _flip_exact(amps: np.ndarray, qubit: int, bit: int, n: int) -> None:
    """Move the qubit's ``bit`` half onto its other half, which holds only
    zeros, and zero it: an exact X on a qubit that reads ``bit``.

    The half is staged in the scratch buffer, because interleaved halves
    overlap in bounds and numpy would otherwise copy it into a new array.
    """
    halves = _qubit_blocks(amps, n, qubit)
    kept = halves[:, bit]
    staged = _scratch(kept.size).reshape(kept.shape)
    np.copyto(staged, kept)
    kept[...] = 0.0
    np.copyto(halves[:, 1 - bit], staged)


def _holds_bit(amps: np.ndarray, n: int, qubit: int, bit: int) -> bool:
    """True when every amplitude with the qubit's other bit is exactly 0."""
    other = _qubit_blocks(amps, n, qubit)[:, 1 - bit]
    return not np.any(other.view(np.float64))


def _reach(run: list[Gate]) -> tuple[set[int], set[int]]:
    """(qubits a gate group touches, qubits whose two values it can mix).

    X and Y factors and an "x-" control mix a qubit; Z factors and a "z"
    control do not.
    """
    touched: set[int] = set()
    mixed: set[int] = set()
    for g in run:
        touched |= g.string.support
        mixed.update(q for q, ax in g.string.terms if ax != "Z")
        if isinstance(g, ControlledPauliExp):
            touched.add(g.control)
            if g.basis == "x-":
                mixed.add(g.control)
    return touched, mixed


def apply_gates(amps: np.ndarray, gates: list[Gate], n: int,
                rng: np.random.Generator | None = None,
                known: dict[int, int] | None = None) -> dict[int, int]:
    """Run a gate list in place on the n-qubit amplitudes.

    Returns the measurement outcomes keyed by gate position.  Consecutive
    controlled gates sharing a control and basis run as one group in place
    on the control's branch (``statevec._controlled_exps``), which is
    gate-for-gate identical to applying each controlled gate alone, except
    for V-chains, which run as the exact parity swap.

    ``known`` maps qubits that start in an exact basis bit (every
    amplitude with the other bit is 0.0) to that bit, as
    :func:`run_circuit` passes the ancillas' initial bits; with None no
    qubit starts known.  While the qubits above a gate group are known, the
    group runs on their one block of 2**k amplitudes that can be nonzero,
    as a k-qubit state; a Measure or ResetAncilla on a known qubit returns
    its bit with no probability pass and no rescale.  A qubit is known
    again after a Measure or ResetAncilla.  A group that can mix a known
    qubit's two values (see :func:`_reach`) makes it unknown until one
    exact-zero re-check of its other half, run before the next group that
    does not touch it or at its next Measure or ResetAncilla.
    """
    known = dict(known or {})
    pending: dict[int, int] = {}    # qubit -> bit it held, not re-checked
    outcomes: dict[int, int] = {}

    def recheck(qubit: int) -> None:
        bit = pending.pop(qubit)
        if _holds_bit(amps, n, qubit, bit):
            known[qubit] = bit

    gi = 0
    while gi < len(gates):
        gate = gates[gi]
        if isinstance(gate, (Measure, ResetAncilla)):
            q = gate.qubit
            if q in pending:
                recheck(q)
            bit = known[q] if q in known else _measure_bit(amps, q, n, rng)
            outcomes[gi] = bit
            if isinstance(gate, ResetAncilla) and bit != gate.target_bit:
                _flip_exact(amps, q, bit, n)
                bit = gate.target_bit
            known[q] = bit
            gi += 1
            continue
        run = [gate]
        if isinstance(gate, ControlledPauliExp):
            while (gi + len(run) < len(gates)
                   and isinstance(gates[gi + len(run)], ControlledPauliExp)
                   and gates[gi + len(run)].control == gate.control
                   and gates[gi + len(run)].basis == gate.basis):
                run.append(gates[gi + len(run)])
        elif not isinstance(gate, PauliExp):  # pragma: no cover
            raise CircuitError(f"unknown gate {gate!r}")
        touched, mixed = _reach(run)
        for q in [q for q in pending if q not in touched]:
            recheck(q)
        # the known qubits above the group fix the one block it can change
        top = max(touched, default=-1)
        k = n
        while k - 1 > top and k - 1 in known:
            k -= 1
        off = sum(known[q] << q for q in range(k, n))
        block = amps[off: off + (1 << k)]
        if isinstance(gate, PauliExp):
            pauli_exp_inplace(block, gate.string, gate.theta, k)
        else:
            _controlled_exps(block, gate.control, gate.basis,
                             [(g.string, g.theta) for g in run], k)
        for q in mixed & known.keys():
            pending[q] = known.pop(q)
        gi += len(run)
    return outcomes


def run_circuit(circuit: Circuit, link_sv: StateVector,
                rng: np.random.Generator | None = None
                ) -> tuple[StateVector, dict[int, int]]:
    """Run the gate list on link_sv extended with the declared ancillas.

    Returns the final full-register state (global phase applied) and the
    measurement outcomes keyed by gate position (see :func:`apply_gates`).
    """
    sv = extend_with_ancillas(link_sv, circuit)
    outcomes = apply_gates(sv.amps, circuit.gates, sv.n_qubits, rng,
                           circuit.ancilla_init)
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


def marginal_bit_probability(sv: StateVector, qubit: int, bit: int) -> float:
    return _bit_probability(sv.amps, sv.n_qubits, qubit, bit)


# ---------------------------------------------------------------------------
# census, gauge check, text export
# ---------------------------------------------------------------------------

def circuit_stats(circuit: Circuit) -> dict[str, int]:
    """Deterministic gate census by kind plus total."""
    counts = {"pauli_exp": 0, "controlled_pauli_exp": 0, "measure": 0,
              "reset": 0}
    for gate in circuit.gates:
        if isinstance(gate, PauliExp):
            counts["pauli_exp"] += 1
        elif isinstance(gate, ControlledPauliExp):
            counts["controlled_pauli_exp"] += 1
        elif isinstance(gate, Measure):
            counts["measure"] += 1
        else:
            counts["reset"] += 1
    counts["total"] = sum(counts.values())
    return counts


def star_commutation_report(circuit: Circuit, lattice: Lattice
                            ) -> tuple[int, list[str]]:
    """Symbolic gauge check over pure link-register gates.

    Every gate supported entirely on the link register must commute with
    every vertex star string.  Gates that touch ancilla or matter qubits
    realize gauge-invariant blocks only in composition and are skipped
    here.  Returns (number of gates checked, failure descriptions).
    """
    stars = [PauliString({li: "X" for li in lattice.star(v)})
             for v in range(lattice.n_vertices)]
    checked = 0
    failures: list[str] = []
    link_set = set(range(lattice.n_links))
    for gi, gate in enumerate(circuit.gates):
        if not isinstance(gate, PauliExp):
            continue
        if not gate.string.support <= link_set:
            continue
        checked += 1
        for v, star in enumerate(stars):
            if not gate.string.commutes_with(star):
                failures.append(
                    f"gate {gi} ({gate.string}) anticommutes with star {v}")
    return checked, failures


_AXIS_OUT = {"X": "X", "Y": "Y", "Z": "Z"}


def _string_fields(p: PauliString) -> str:
    return " ".join(f"{q}:{_AXIS_OUT[ax]}" for q, ax in p.terms)


def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented export: PEXP / CPEXP / MEASURE / RESET plus a census
    footer in comment lines."""
    lines = []
    for q, bit in circuit.ancilla_init.items():
        lines.append(f"RESET {q} {bit}")
    for gate in circuit.gates:
        if isinstance(gate, PauliExp):
            lines.append(f"PEXP {gate.theta:.17g} {_string_fields(gate.string)}"
                         .rstrip())
        elif isinstance(gate, ControlledPauliExp):
            basis = "Z" if gate.basis == "z" else "X-"
            lines.append(f"CPEXP {gate.control} {basis} {gate.theta:.17g} "
                         f"{_string_fields(gate.string)}".rstrip())
        elif isinstance(gate, Measure):
            lines.append(f"MEASURE {gate.qubit}")
        else:
            lines.append(f"RESET {gate.qubit} {gate.target_bit}")
    stats = circuit_stats(circuit)
    lines.append(f"# census pauli_exp={stats['pauli_exp']} "
                 f"controlled_pauli_exp={stats['controlled_pauli_exp']} "
                 f"measure={stats['measure']} reset={stats['reset']} "
                 f"total={stats['total']}")
    if circuit.global_phase:
        lines.append(f"# global_phase {circuit.global_phase:.17g}")
    return "\n".join(lines) + "\n"
