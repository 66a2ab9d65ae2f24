"""Gate vocabulary, circuits, the sector-block executor, census and export.

:class:`PauliString` is the gate vocabulary: a Hermitian string, +1 or -1
times a tensor product of single-qubit Paulis, held as its X and Z bit
masks.  Every gate is e^{i theta P} of such a string.  A circuit acts on
the link register (qubits 0 .. n_links-1) plus ancilla and matter qubits
appended above it.  Four gate kinds exist:

    PauliExp(P, theta)                  e^{i theta P}
    ControlledPauliExp(c, basis, P, t)  e^{i t P} on the designated control
                                        branch ("z": spin-up, "x-": |->)
    Measure(q)                          projective Z measurement
    ResetAncilla(q, bit)                measure, then flip to the target bit

:func:`run_blocks` runs a gate list on a sector state, held as Gauss-law
blocks in the electric basis, so its cost follows the sector dimension
instead of 2**n_links.  A run of controlled gates acts on the control's
firing component, where a V gate (an "x-" gate at +-pi/2) is exactly
+-i P, so a V-chain runs as its exact operator.  The literal reference on
the whole 2**n register, which runs every gate of the same list, is
``statevec.run_circuit``; this module knows nothing of that register.
:func:`circuit_to_text` writes a string's sign into its angle.

Builders may also record an exact scalar ``global_phase`` (compensations
that are not worth a gate) and a ``phase_log`` of phases their gate
sequences imprint on the transported component of the state; the executors
apply the global phase, so circuit equality against direct operator
construction is exact, not just up-to-phase.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .gauge import PhysicalSector, SectorMoves, Z2Model, flipped
from .lattice import Lattice

# axis -> (x bit) | (z bit) << 1, and back
_AXIS_BITS = {"X": 1, "Z": 2, "Y": 3}
_BITS_AXIS = "IXZY"


class PauliStringError(ValueError):
    """Malformed Pauli string or use outside its register."""


@dataclass(frozen=True, slots=True)
class PauliString:
    """Hermitian Pauli string: a sign times a tensor product of X, Y, Z.

    Built from {qubit: axis} or [(qubit, axis), ...] and a ``phase`` of +1
    or -1; an imaginary phase is refused.  Held as two bit masks (Aaronson
    and Gottesman, PRA 70, 052328 (2004)): bit q of ``x`` is set where
    qubit q carries X or Y, bit q of ``z`` where it carries Z or Y.  The
    empty string with phase +1 is the identity.  Instances are immutable
    and hashable.
    """

    x: int
    z: int
    phase: int

    def __init__(self, terms, phase=1):
        x = z = 0
        for q, ax in terms.items() if isinstance(terms, dict) else terms:
            q = operator.index(q)
            if q < 0:
                raise PauliStringError(f"negative qubit index {q}")
            if ax not in _AXIS_BITS:
                raise PauliStringError(f"unknown Pauli axis {ax!r}")
            if (x | z) >> q & 1:
                raise PauliStringError(f"duplicate entries for qubit {q}")
            x |= (_AXIS_BITS[ax] & 1) << q
            z |= (_AXIS_BITS[ax] >> 1) << q
        if phase not in (1, -1):
            raise PauliStringError(f"phase must be +1 or -1, got {phase}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", 1 if phase == 1 else -1)

    @property
    def terms(self) -> tuple[tuple[int, str], ...]:
        """(qubit, axis) pairs in qubit order."""
        return tuple(
            (q, _BITS_AXIS[(self.x >> q & 1) | (self.z >> q & 1) << 1])
            for q in range(self.max_qubit() + 1) if (self.x | self.z) >> q & 1)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(q for q, _ in self.terms)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def max_qubit(self) -> int:
        return (self.x | self.z).bit_length() - 1

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the strings commute: the symplectic product of the
        masks is even."""
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def masks(self) -> tuple[int, int, int]:
        """(x, z, nY) for the kernel action."""
        return self.x, self.z, (self.x & self.z).bit_count()

    def __str__(self) -> str:
        sign = "+" if self.phase == 1 else "-"
        return f"{sign}[{_string_fields(self) or 'I'}]"


def _string_fields(p: PauliString) -> str:
    return " ".join(f"{q}:{ax}" for q, ax in p.terms)


def star_operator(lattice: Lattice, vertex: int) -> PauliString:
    """Gauss-law star: X on every link incident to the vertex, phase +1."""
    return PauliString({li: "X" for li in lattice.star(vertex)})


class CircuitError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PauliExp:
    string: PauliString
    theta: float


@dataclass(frozen=True, slots=True)
class ControlledPauliExp:
    control: int
    basis: str          # "z" (fires on spin-up) or "x-" (fires on |->)
    string: PauliString
    theta: float

    def __post_init__(self):
        if self.basis not in ("z", "x-"):
            raise CircuitError(f"unknown control basis {self.basis!r}")
        if self.control < 0:
            raise CircuitError(f"negative control qubit {self.control}")
        if (self.string.x | self.string.z) >> self.control & 1:
            raise CircuitError(
                f"control {self.control} overlaps gate support")


@dataclass(frozen=True, slots=True)
class Measure:
    qubit: int


@dataclass(frozen=True, slots=True)
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
    (0 = spin-up), all a circuit records of it.  Builders emit gates;
    :func:`run_blocks` and ``statevec.run_circuit`` execute them.
    """

    n_link_qubits: int
    gates: list[Gate] = field(default_factory=list)
    ancilla_init: dict[int, int] = field(default_factory=dict)
    global_phase: float = 0.0
    phase_log: list[tuple[str, complex]] = field(default_factory=list)

    @property
    def n_qubits(self) -> int:
        return self.n_link_qubits + len(self.ancilla_init)

    def alloc_ancilla(self, initial_bit: int = 0) -> int:
        q = self.n_qubits
        self.ancilla_init[q] = int(initial_bit)
        return q

    def add(self, gate: Gate) -> None:
        if isinstance(gate, (Measure, ResetAncilla)):
            top = gate.qubit
        else:
            top = gate.string.max_qubit()
        if isinstance(gate, ControlledPauliExp):
            top = max(top, gate.control)
        if top >= self.n_qubits:
            raise CircuitError(f"gate touches qubit {top} outside register "
                               f"of {self.n_qubits}")
        self.gates.append(gate)

    def add_phase(self, phase_radians: float) -> None:
        self.global_phase += phase_radians

    def log_phase(self, label: str, value: complex) -> None:
        self.phase_log.append((label, complex(value)))

    def net_logged_phase(self) -> complex:
        out = 1.0 + 0.0j
        for _, value in self.phase_log:
            out *= value
        return out


def _outcome(p1: float, qubit: int, rng) -> int:
    """Bit a Z measurement reads when it reads 1 with probability p1: fixed
    within 1e-12 of 0 or 1, otherwise drawn from the RNG."""
    if p1 < 1e-12:
        return 0
    if p1 > 1 - 1e-12:
        return 1
    if rng is None:
        raise CircuitError(
            f"measurement of qubit {qubit} is probabilistic (p1={p1:.3g}) "
            "and no RNG was provided")
    return int(rng.random() < p1)


# ---------------------------------------------------------------------------
# execution on Gauss-law blocks
# ---------------------------------------------------------------------------

Blocks = dict[tuple[int, ...], np.ndarray]


def _mix(x: Blocks, y: Blocks, cx, cy) -> Blocks:
    """x * cx + y * cy block by block; a block missing on one side is 0."""
    out = {key: a * cx if key not in y else a * cx + y[key] * cy
           for key, a in x.items()}
    out.update((key, b * cy) for key, b in y.items() if key not in x)
    return out


class _BlockRun:
    """One circuit on one model's charge sectors, in the electric basis.

    A state is {charge pattern: (sector dim, 2**n_ancilla) amplitudes}:
    rows are the sector's link masks, columns the ancilla bits (column bit
    j is qubit n_link_qubits + j, in the computational basis).  A string
    is translated once per charge pattern, dropped control bit and factor:
    a link sigma_3 factor flips its mask bit, moving the row to the sector
    whose charges differ at the link's endpoints (:class:`SectorMoves`); a
    link sigma_1 factor is the sign (-1)**bit of the new mask; ancilla
    factors gather and sign columns.
    """

    def __init__(self, circuit: Circuit, model: Z2Model,
                 sector: PhysicalSector):
        self.n = circuit.n_link_qubits
        if model.lattice.n_links != self.n or sector.n_links != self.n:
            raise CircuitError(
                f"circuit has {self.n} link qubits, lattice "
                f"{model.lattice.n_links} links, sector {sector.n_links}")
        self.circuit = circuit
        self.cols = np.arange(1 << (circuit.n_qubits - self.n))
        self.sector_moves = SectorMoves(model, sector)
        self.moves: dict = {}

    def ancilla_bit(self, qubit: int) -> int:
        if qubit < self.n:
            raise CircuitError(f"qubit {qubit} is a link; the block route "
                               "controls and measures ancillas only")
        return 1 << (qubit - self.n)

    def act(self, state: Blocks, p: PauliString, drop: int = 0,
            factor=1) -> Blocks:
        """``factor`` * P applied to every block (exact: a row flip, gathers
        and signs); with a ``drop`` bit the blocks hold only the columns
        where it is clear."""
        xm, zm, ny = p.masks()
        flip, sign = zm & ((1 << self.n) - 1), xm & ((1 << self.n) - 1)
        out = {}
        for key, blk in state.items():
            move = self.moves.get((key, p, drop, factor))
            if move is None:
                sec = self.sector_moves.sector(key)
                dst, k = (self.sector_moves.flip(sec, flip) if flip
                          else (sec, 0))
                rows = (1.0 - 2.0 * (np.bitwise_count(
                    dst.masks & np.uint64(sign)) & 1) if sign else None)
                kept = self.cols[(self.cols & drop) == 0]
                src = kept ^ (xm >> self.n)
                fac = factor * p.phase * 1j ** ny * (
                    1.0 - 2.0 * (np.bitwise_count(src & (zm >> self.n)) & 1))
                move = self.moves[key, p, drop, factor] = (
                    dst.charges, k, rows,
                    np.searchsorted(kept, src) if xm >> self.n else None, fac)
            dst, k, rows, src, fac = move
            v = flipped(blk, k).reshape(blk.shape) if k else blk
            if src is not None:
                v = v[:, src]
            if rows is not None:
                v = v * rows[:, None]
            out[dst] = v * fac
        return out

    def exp(self, state: Blocks, p: PauliString, theta: float,
            drop: int = 0) -> Blocks:
        """e^{i theta P} = cos + i sin P."""
        return _mix(state, self.act(state, p, drop),
                    np.cos(theta), 1j * np.sin(theta))

    def controlled(self, state: Blocks, control: int, basis: str,
                   gates) -> Blocks:
        """A run of gates with one control and basis, on the control's
        firing component.  With a0, a1 the columns where the control bit is
        clear and set, "z" fires on a0 and keeps a1; "x-" fires on a0 - a1
        and puts back (a0 + a1 + fire) / 2 and (a0 + a1 - fire) / 2.  An
        "x-" gate at theta = +-pi/2 is exactly +-i P, so a box's reversed
        V-chain leaves an exactly zero other half.  "z" gates at +-pi/2
        keep cos and sin: made exact, the controlled spatial strings of
        ``hadamard_test_circuit`` would move measure's rounding.
        """
        bit = self.ancilla_bit(control)
        lo = self.cols[(self.cols & bit) == 0]
        hi = lo | bit
        z = basis == "z"
        fire = {key: b[:, lo] if z else b[:, lo] - b[:, hi]
                for key, b in state.items()}
        rest = {key: b[:, hi] if z else b[:, lo] + b[:, hi]
                for key, b in state.items()}
        for g in gates:
            if not z and abs(g.theta) == np.pi / 2:
                fire = self.act(fire, g.string, bit,
                                1j if g.theta > 0 else -1j)
            else:
                fire = self.exp(fire, g.string, g.theta, bit)
        halves = ((fire, rest) if z else
                  (_mix(rest, fire, 0.5, 0.5), _mix(rest, fire, 0.5, -0.5)))
        out = {}
        for key in [*fire, *(key for key in rest if key not in fire)]:
            out[key] = np.zeros((self.sector_moves.sector(key).dim,
                                 len(self.cols)), dtype=complex)
            out[key][:, lo] = halves[0].get(key, 0.0)
            out[key][:, hi] = halves[1].get(key, 0.0)
        return out

    def measure(self, state: Blocks, gate: Measure | ResetAncilla,
                rng) -> int:
        """``statevec._measure_bit`` over all blocks; a half that is
        already exactly zero is neither cleared nor rescaled.  A reset then
        moves the kept columns onto the target bit."""
        bit = self.ancilla_bit(gate.qubit)
        one = (self.cols & bit) != 0
        p1 = block_bit_probability(state, self.circuit, gate.qubit, 1)
        outcome = _outcome(p1, gate.qubit, rng)
        keep = one if outcome else ~one
        if any(np.any(b[:, ~keep]) for b in state.values()):
            scale = 1.0 / np.sqrt(p1 if outcome else 1.0 - p1)
            for b in state.values():
                b[:, ~keep] = 0.0
                b[:, keep] *= scale
        if isinstance(gate, ResetAncilla) and outcome != gate.target_bit:
            src = self.cols[keep]
            for b in state.values():
                b[:, src ^ bit] = b[:, src]
                b[:, src] = 0.0
        return outcome


def run_blocks(circuit: Circuit, model: Z2Model, sector: PhysicalSector,
               coords: np.ndarray, rng=None
               ) -> tuple[Blocks, dict[int, int]]:
    """Run the gate list on the sector state ``coords``, in sector blocks.

    The literal gates run on {charge pattern: amplitudes over sector
    masks x ancilla bits} (see :class:`_BlockRun`), so the cost follows
    the sector dimension, not 2**n_links: only the blocks a gate reaches
    are built.  Controls and measured qubits must be ancillas.  Each run
    of consecutive controlled gates with one control and basis acts on
    the control's firing component (:meth:`_BlockRun.controlled`), where
    an "x-" gate at +-pi/2 is exactly +-i P.  Measure and ResetAncilla
    keep the thresholds and RNG rule of the full-space route; ``rng`` is
    any object with ``random()``.  Returns the final blocks (global phase
    applied) and the measurement outcomes keyed by gate position, as
    ``statevec.run_circuit``.
    """
    if coords.shape != (sector.dim,):
        raise CircuitError(f"{coords.shape} coordinates for a sector of "
                           f"dimension {sector.dim}")
    run = _BlockRun(circuit, model, sector)
    state = {sector.charges: np.zeros((sector.dim, len(run.cols)),
                                      dtype=complex)}
    state[sector.charges][:, sum(bit << (q - run.n) for q, bit
                                 in circuit.ancilla_init.items())] = coords
    outcomes: dict[int, int] = {}
    gates = circuit.gates
    gi = 0
    while gi < len(gates):
        gate = gates[gi]
        gi += 1
        if isinstance(gate, (Measure, ResetAncilla)):
            outcomes[gi - 1] = run.measure(state, gate, rng)
        elif isinstance(gate, PauliExp):
            state = run.exp(state, gate.string, gate.theta)
        elif not isinstance(gate, ControlledPauliExp):  # pragma: no cover
            raise CircuitError(f"unknown gate {gate!r}")
        else:
            group = [gate]
            while (gi < len(gates)
                   and isinstance(gates[gi], ControlledPauliExp)
                   and (gates[gi].control, gates[gi].basis)
                   == (gate.control, gate.basis)):
                group.append(gates[gi])
                gi += 1
            state = run.controlled(state, gate.control, gate.basis, group)
    if circuit.global_phase:
        state = {key: b * np.exp(1j * circuit.global_phase)
                 for key, b in state.items()}
    return state, outcomes


def block_bit_probability(state: Blocks, circuit: Circuit, qubit: int,
                          bit: int) -> float:
    """Probability that an ancilla reads ``bit`` in a :func:`run_blocks`
    state."""
    n_ancilla = circuit.n_qubits - circuit.n_link_qubits
    col = 1 << (qubit - circuit.n_link_qubits)
    on = ((np.arange(1 << n_ancilla) & col) != 0) == bit
    return sum(float(np.square(np.abs(b[:, on])).sum())
               for b in state.values())


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
    stars = [star_operator(lattice, v) for v in range(lattice.n_vertices)]
    checked = 0
    failures: list[str] = []
    for gi, gate in enumerate(circuit.gates):
        if not isinstance(gate, PauliExp):
            continue
        if gate.string.max_qubit() >= lattice.n_links:
            continue
        checked += 1
        for v, star in enumerate(stars):
            if not gate.string.commutes_with(star):
                failures.append(
                    f"gate {gi} ({gate.string}) anticommutes with star {v}")
    return checked, failures


def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented export: PEXP / CPEXP / MEASURE / RESET plus a census
    footer in comment lines.  A -1 string P is written as +P at angle
    -theta, since e^{i theta (-P)} = e^{i (-theta) P}."""
    lines = []
    for q, bit in circuit.ancilla_init.items():
        lines.append(f"RESET {q} {bit}")
    for gate in circuit.gates:
        if isinstance(gate, PauliExp):
            lines.append(f"PEXP {gate.theta * gate.string.phase:.17g} "
                         f"{_string_fields(gate.string)}".rstrip())
        elif isinstance(gate, ControlledPauliExp):
            basis = "Z" if gate.basis == "z" else "X-"
            lines.append(f"CPEXP {gate.control} {basis} "
                         f"{gate.theta * gate.string.phase:.17g} "
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
