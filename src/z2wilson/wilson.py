"""Space-time Wilson loop builders: gate lists, ancilla and link circuits.

Every gate list of the package is built here, from ``circuits``'s Pauli
strings: a loop's spatial string and plaquette strings, the Trotterized
evolution (:func:`trotter_strings`), and the circuits below.  The direct
operator routes they are checked against are the sector oracle
(:func:`z2wilson.trotter.exact_loop_operator`) and, on the full 2**L
register, ``statevec.spatial_loop_direct``.  Three routes to the same
loops:

* direct operator composition (the oracles above);
* plaquette-based ancilla circuits built from the two-qubit V gate
  V = I (x) |+><+| + sigma_3 (x) |-><-| realized as a controlled Pauli
  exponential with an exact phase compensation;
* link-based circuits that transport a matter excitation along a path via
  gauge-mediated hopping, closing the loop through a mediator qubit.

The controlled constructions (c-U gates) and the Hadamard-test measurement
of Re<W> live here as well.
"""

from __future__ import annotations

import numpy as np

from .circuits import (Circuit, CircuitError, ControlledPauliExp, Gate,
                       Measure, PauliExp, PauliString, ResetAncilla,
                       block_bit_probability, run_blocks)
from .gauge import PhysicalSector, SectorMoves, Z2Model, exact_evolve_in_sector
from .lattice import Lattice, _odd_links, boundary_walk
from .programs import LoopProgram, ProgramError, Spatial, _check_program

HALF_PI = np.pi / 2


# ---------------------------------------------------------------------------
# gate lists: loop strings and the Trotterized evolution
# ---------------------------------------------------------------------------

def _spatial_string(links) -> PauliString:
    """Z product over a chain; links traversed twice cancel (Z**2 = I)."""
    return PauliString({li: "Z" for li in _odd_links(links)})


def trotter_strings(model: Z2Model, n_T: int, tau: float,
                    modified_links: frozenset[int] | set[int] = frozenset()
                    ) -> list[tuple[PauliString, float]]:
    """Gate list (string, theta) realizing one Trotterized evolution: the
    same n_T Strang steps of time tau / n_T that ``trotter`` runs.

    Convention: each entry applies e^{i theta P}.  Electric rotations are
    ordered by link id, plaquette exponentials by plaquette id.  The steps
    repeat one step's strings, each built once.
    """
    if n_T < 1:
        raise ValueError(f"n_T must be >= 1, got {n_T}")
    lat = model.lattice
    half = tau / (2 * n_T)
    mag = model.lam * tau / n_T
    xs = [(PauliString({li: "X"}), -1.0 if li in modified_links else +1.0)
          for li in range(lat.n_links)]
    edge = [(s, sign * half) for s, sign in xs]
    inner = [(s, sign * (2 * half)) for s, sign in xs]
    magnetic = [(_spatial_string(plaq), mag) for plaq in lat.plaquettes]
    return edge + (magnetic + inner) * (n_T - 1) + magnetic + edge


def _program_strings(model: Z2Model, program: LoopProgram, n_T: int):
    """(string, theta, loop) of each gate of the Trotterized program, in
    order: the one walk from a program to gates, which refuses what the
    sector walk refuses.  A spatial step is its loop string at pi/2
    (``loop`` True), none if its links cancel."""
    _check_program(model.lattice, program)
    for step in program.steps:
        if not isinstance(step, Spatial):
            for string, theta in trotter_strings(model, n_T, step.tau,
                                                 step.modified_links):
                yield string, theta, False
        elif (s := _spatial_string(step.links)).weight:
            yield s, HALF_PI, True


# ---------------------------------------------------------------------------
# spatial loops
# ---------------------------------------------------------------------------

def spatial_loop_via_ancilla(circuit: Circuit, links, ancilla: int) -> None:
    """Chain of V gates sharing one ancilla prepared in |->.

    Each link contributes V_i = I (x) |+><+| + sigma_3(e_i) (x) |-><-|,
    emitted as a controlled Z exponential of angle pi/2 on the |-> branch;
    the leftover i**n on that branch is cancelled exactly by one ancilla X
    rotation plus a recorded global phase, so the net action equals
    ``statevec.spatial_loop_direct`` with the ancilla returned in |->.
    """
    links = list(links)
    if ancilla < circuit.n_link_qubits:
        raise CircuitError("ancilla index lies in the link register")
    _v_chain(circuit, ancilla, links, HALF_PI)
    r = len(links) % 4
    if r:
        circuit.add(PauliExp(PauliString({ancilla: "X"}), r * np.pi / 4))
        circuit.add_phase(-r * np.pi / 4)


def prepare_minus(circuit: Circuit, qubit: int) -> None:
    """|up> -> |-> (exact, one Y rotation); also |+> -> |up>, |-> -> |down>,
    the inverse of :func:`prepare_plus`."""
    circuit.add(PauliExp(PauliString({qubit: "Y"}), np.pi / 4))


def prepare_plus(circuit: Circuit, qubit: int) -> None:
    """|up> -> |+>; also |-> -> |up>, the inverse of :func:`prepare_minus`."""
    circuit.add(PauliExp(PauliString({qubit: "Y"}), -np.pi / 4))


def _is_lattice_plaquette(lattice: Lattice, links) -> bool:
    s = set(links)
    return any(set(p) == s for p in lattice.plaquettes)


def plaquette_exp_via_ancilla(circuit: Circuit, lattice: Lattice, links,
                              theta: float, ancilla: int) -> None:
    """e^{i theta sigma3 sigma3 sigma3 sigma3} on a plaquette via V-sandwich.

    Emits V_1234, a single ancilla Z rotation e^{-i theta sigma_3(a)}, then
    V_1234^dag.  With the ancilla prepared spin-down the sandwich equals
    V^dag e^{-i theta sigma3(a)} V = e^{-i theta P (x) sigma3(a)}, which on
    the sigma3 = -1 branch is e^{+i theta P} with the ancilla left
    spin-down and disentangled.  Four V factors carry i**4 = 1, so no phase
    compensation is needed.
    """
    links = list(links)
    if not _is_lattice_plaquette(lattice, links):
        raise CircuitError(f"links {links} are not a lattice plaquette")
    _v_sandwich(circuit, ancilla, links,
                PauliExp(PauliString({ancilla: "Z"}), -theta))


def _v_chain(circuit: Circuit, ancilla: int, links, theta: float) -> None:
    """One "x-" controlled Z exponential of angle theta per link, in order."""
    for li in links:
        circuit.add(ControlledPauliExp(ancilla, "x-",
                                       PauliString({li: "Z"}), theta))


def _v_sandwich(circuit: Circuit, ancilla: int, links, middle: Gate) -> None:
    """V_links, the middle gate, then V_links^dag: the V-chain at pi/2, and
    the same chain reversed at -pi/2."""
    _v_chain(circuit, ancilla, links, HALF_PI)
    circuit.add(middle)
    _v_chain(circuit, ancilla, reversed(links), -HALF_PI)


# ---------------------------------------------------------------------------
# exact sector routes
# ---------------------------------------------------------------------------

def temporal_plaquette_exact(model: Z2Model, sector: PhysicalSector,
                             link: int, tau: float) -> np.ndarray:
    """Minimal temporal loop: e^{-i tau (H + 2 sigma_1(e))} in the sector."""
    if not 0 <= link < model.lattice.n_links:
        raise ValueError(f"link {link} out of range")
    return exact_evolve_in_sector(model, sector, tau, frozenset({link}))


def conjugated_temporal_plaquette(model: Z2Model, sector: PhysicalSector,
                                  link: int, tau: float) -> np.ndarray:
    """sigma_3(e) e^{-i tau H} sigma_3(e) computed directly.

    sigma_3(e) maps the physical sector to the star sector charged -1 at the
    link's endpoints, where the unmodified Hamiltonian evolves; the second
    sigma_3(e) maps back.  This is an independent route to the same matrix
    as :func:`temporal_plaquette_exact` (whose exponent is the modified
    Hamiltonian in the physical sector).
    """
    if not 0 <= link < model.lattice.n_links:
        raise ValueError(f"link {link} out of range")
    charged, k = SectorMoves(model, sector).flip(sector, 1 << link)
    u_charged = exact_evolve_in_sector(model, charged, tau)
    rows = np.arange(sector.dim) ^ k
    return u_charged[np.ix_(rows, rows)]


# ---------------------------------------------------------------------------
# link-based construction
# ---------------------------------------------------------------------------

def _vertex_sequence(lattice: Lattice, path: list[int]) -> list[int]:
    """Vertices visited by a contiguous ordered link path, from the end of
    its first link that its second link does not share."""
    if not path:
        raise ProgramError("empty link path")
    a, b = lattice.links[path[0]]
    verts = [b if len(path) > 1 and a in lattice.links[path[1]] else a]
    for k, link in enumerate(path):
        if verts[-1] not in (ends := lattice.links[link]):
            raise ProgramError(f"path is not vertex-contiguous at step {k}")
        verts.append(sum(ends) - verts[-1])     # the link's other end
    return verts


def hop_strings(src: int, link: int, dest: int) -> list[tuple[PauliString, float]]:
    """Gauge-mediated hop for time pi/2 as two commuting string exponentials.

    exp(-i pi/2 (s+_dest sigma3(e) s-_src + h.c.)) with
    s+ s3 s- + h.c. = (X Z X + Y Z Y)/2; the two strings commute, so the
    hop is exactly two angle-(-pi/4) exponentials.  The transported
    component acquires the phase -i per hop.
    """
    return [
        (PauliString({dest: "X", link: "Z", src: "X"}), -np.pi / 4),
        (PauliString({dest: "Y", link: "Z", src: "Y"}), -np.pi / 4),
    ]


def link_wilson_line(circuit: Circuit, lattice: Lattice, path,
                     matter_map: dict[int, int]) -> None:
    """Transport the matter excitation along the path, depositing sigma_3.

    ``matter_map`` maps path positions to matter qubits; two registers
    used ping-pong fashion suffice, since a hop empties its source, which
    becomes the next destination.  The head position must hold the
    excitation and every other listed register must be empty (spin-down)
    on entry.  Records one -i phase per hop in the circuit phase log.
    """
    path = list(path)
    verts = _vertex_sequence(lattice, path)
    if any(p not in matter_map for p in range(len(verts))):
        raise ProgramError("matter_map must cover every path position")
    for k, link in enumerate(path):
        src, dest = matter_map[k], matter_map[k + 1]
        for string, theta in hop_strings(src, link, dest):
            circuit.add(PauliExp(string, theta))
        circuit.log_phase(f"hop link {link}", -1j)


def closure_strings(head: int, tail: int, mediator: int
                    ) -> list[tuple[PauliString, float]]:
    """Matter-pair annihilation hop with the mediator qubit.

    exp(-i pi/2 H) with H = s-_head s+_tail s+_med + h.c., the single-color
    specialization of the loop-closing hop; expanding in Pauli strings
    gives four mutually commuting three-qubit terms of weight 1/4 each.
    """
    th = np.pi / 8
    return [
        (PauliString({head: "X", tail: "X", mediator: "X"}), -th),
        (PauliString({head: "X", tail: "Y", mediator: "Y"}), +th),
        (PauliString({head: "Y", tail: "X", mediator: "Y"}), -th),
        (PauliString({head: "Y", tail: "Y", mediator: "X"}), -th),
    ]


def link_loop_closure(circuit: Circuit, head_matter: int, tail_matter: int,
                      closure_ancilla: int) -> None:
    """Annihilate the transported pair into the mediator and measure it.

    With the excitation back at the head register and the mediator
    spin-down, the hop deterministically raises the mediator (phase -i,
    logged); measuring it then reads spin-up with probability one for a
    closed loop and zero for an open matter pattern.
    """
    for string, theta in closure_strings(head_matter, tail_matter,
                                         closure_ancilla):
        circuit.add(PauliExp(string, theta))
    circuit.log_phase("closure", -1j)
    circuit.add(Measure(closure_ancilla))


def link_loop_circuit(lattice: Lattice, loop_links) -> Circuit:
    """Full link-based loop: open, transport around, close, measure.

    Two matter qubits are reused ping-pong along the path; one mediator
    qubit opens and closes the loop.  The loop must return to its start
    vertex with an even number of links.
    """
    path = list(loop_links)
    verts = _vertex_sequence(lattice, path)
    if verts[0] != verts[-1]:
        raise ProgramError("link list does not close on its start vertex")
    if len(path) % 2:
        raise ProgramError("closed lattice loops have even length")
    circuit = Circuit(lattice.n_links)
    m0 = circuit.alloc_ancilla(initial_bit=1)
    m1 = circuit.alloc_ancilla(initial_bit=0)
    med = circuit.alloc_ancilla(initial_bit=0)
    # creation: fires on (head down, tail up, mediator up)
    for string, theta in closure_strings(m0, m1, med):
        circuit.add(PauliExp(string, theta))
    circuit.log_phase("opening", -1j)
    pos_map = {p: (m0 if p % 2 == 0 else m1) for p in range(len(verts))}
    link_wilson_line(circuit, lattice, path, pos_map)
    link_loop_closure(circuit, m0, m1, med)
    return circuit


# ---------------------------------------------------------------------------
# controlled loop and Hadamard test
# ---------------------------------------------------------------------------

def controlled_loop(circuit: Circuit, model: Z2Model, program: LoopProgram,
                    control_ancilla: int, n_T: int) -> None:
    """Controlled version of the full Trotterized loop: the gates of
    :func:`trotterized_program_circuit`, from the same walk.

    Loop strings become single controlled exponentials with an exact phase
    fix (c-U^C); electric rotations become controlled X rotations
    (c-U^Gamma); each plaquette exponential becomes the two-ancilla
    sandwich c-U^Box = V^dag_b [controlled e^{-i theta Z_b}] V_b with the
    work ancilla b spin-down.
    """
    if control_ancilla < model.lattice.n_links:
        raise CircuitError("control ancilla collides with the link register")
    box_ancilla: int | None = None
    for string, theta, loop in _program_strings(model, program, n_T):
        if loop or string.weight <= 1:
            circuit.add(ControlledPauliExp(control_ancilla, "z", string, theta))
        else:   # plaquette magnetic term: two-ancilla construction
            if box_ancilla is None:
                box_ancilla = circuit.alloc_ancilla(initial_bit=1)
            else:
                circuit.add(ResetAncilla(box_ancilla, 1))
            _v_sandwich(circuit, box_ancilla, [q for q, _ in string.terms],
                        ControlledPauliExp(control_ancilla, "z",
                                           PauliString({box_ancilla: "Z"}),
                                           -theta))
        if loop:
            circuit.add(PauliExp(PauliString({control_ancilla: "Z"}),
                                 -np.pi / 4))
            circuit.add_phase(-np.pi / 4)


def hadamard_test_circuit(model: Z2Model, program: LoopProgram, n_T: int
                          ) -> tuple[Circuit, int]:
    """Gate list of the Hadamard test and its control qubit.

    The control is prepared in |+>, controls the Trotterized loop and is
    rotated back, so that it reads spin-up with probability p_+.
    """
    circuit = Circuit(model.lattice.n_links)
    control = circuit.alloc_ancilla(initial_bit=0)
    prepare_plus(circuit, control)
    controlled_loop(circuit, model, program, control, n_T)
    prepare_minus(circuit, control)     # |+> -> |up>: a Z readout of X
    return circuit, control


def hadamard_test(model: Z2Model, sector: PhysicalSector, coords: np.ndarray,
                  program: LoopProgram, n_T: int) -> float:
    """p_+ of the ancilla-controlled Trotterized loop on a sector state.

    The circuit runs once, on the Gauss-law blocks of the sector
    coordinates ``coords`` (:func:`z2wilson.circuits.run_blocks`), and
    p_+ = <psi|(2 + W + W^dag)/4|psi> is read from the final amplitudes.
    Shots are drawn from it by :func:`sample_p_plus`.
    """
    circuit, control = hadamard_test_circuit(model, program, n_T)
    final, _ = run_blocks(circuit, model, sector, coords)
    return block_bit_probability(final, circuit, control, 0)


def sample_p_plus(p_plus: float, shots: int, rng) -> float:
    """Observed |+> frequency over ``shots`` Hadamard-test shots.

    One ``rng.binomial(n, p)`` draw (any object with that method, such as
    :class:`~z2wilson.philox.Philox`) at p_plus, clamped to [0, 1] against
    rounding.  The count is divided as a double, as numpy divides its
    int64 draw.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return float(rng.binomial(shots, min(max(p_plus, 0.0), 1.0))) / shots


def trotterized_program_circuit(model: Z2Model, program: LoopProgram,
                                n_T: int) -> Circuit:
    """Plain (uncontrolled) gate list of the Trotterized program: what
    ``export-circuit`` writes and the full-space reference
    (``statevec.trotterized_loop_operator_fullspace``) runs; its walk also
    feeds :func:`controlled_loop`.  A loop string's e^{i pi/2 P} = i P is
    compensated by a recorded global phase: the sigma_3 product, with
    every gate a Pauli exponential."""
    circuit = Circuit(model.lattice.n_links)
    for string, theta, loop in _program_strings(model, program, n_T):
        circuit.add(PauliExp(string, theta))
        if loop:
            circuit.add_phase(-HALF_PI)
    return circuit


# ---------------------------------------------------------------------------
# gate-count scaling circuits
# ---------------------------------------------------------------------------

def rect_loop_plaquette_circuit(lattice: Lattice) -> Circuit:
    """Perimeter loop as the product of all enclosed plaquette V-chains.

    One ancilla is prepared in |-> and shared by every enclosed plaquette
    (each V-chain keeps it in |->), then rotated back and reset.  Interior
    links are traversed twice and cancel, leaving the boundary sigma_3
    product; the gate count is proportional to the enclosed area.
    """
    circuit = Circuit(lattice.n_links)
    ancilla = circuit.alloc_ancilla(initial_bit=0)
    prepare_minus(circuit, ancilla)
    for pi in range(lattice.n_plaquettes):
        spatial_loop_via_ancilla(circuit, lattice.plaquettes[pi], ancilla)
    prepare_plus(circuit, ancilla)      # |-> -> |up>
    circuit.add(ResetAncilla(ancilla, 0))
    return circuit


def rect_loop_link_circuit(lattice: Lattice) -> Circuit:
    """Boundary loop via matter transport: gate count linear in the length."""
    return link_loop_circuit(lattice, boundary_walk(lattice))
