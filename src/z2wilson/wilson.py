"""Space-time Wilson loop builders: direct, plaquette-based, link-based.

Three routes to the same loops:

* direct operator composition on the statevector / in the physical sector
  (the oracle), see :func:`spatial_loop_direct` and
  :func:`z2wilson.trotter.exact_loop_operator`;
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

from .circuits import (Circuit, CircuitError, ControlledPauliExp, Measure,
                       PauliExp, ResetAncilla, marginal_bit_probability,
                       run_circuit)
from .gauge import (PhysicalSector, SectorOperator, Z2Model,
                    build_physical_sector, exact_evolve_in_sector, xor_perm)
from .lattice import Lattice
from .programs import (FreeEvolve, LoopProgram, ProgramError, Spatial,
                       Temporal)
from .statevec import PauliString, StateVector, pauli_apply_inplace
from .trotter import TrotterPlan, _spatial_string, trotter_strings

HALF_PI = np.pi / 2


# ---------------------------------------------------------------------------
# spatial loops
# ---------------------------------------------------------------------------

def spatial_loop_direct(sv: StateVector, links) -> None:
    """Apply prod sigma_3(e) over the links to the state in place."""
    links = list(links)
    for li in links:
        if li >= sv.n_qubits or li < 0:
            raise ValueError(f"link {li} outside register")
    pauli_apply_inplace(sv.amps, _spatial_string(links), sv.n_qubits)


def spatial_loop_via_ancilla(circuit: Circuit, links, ancilla: int) -> None:
    """Chain of V gates sharing one ancilla prepared in |->.

    Each link contributes V_i = I (x) |+><+| + sigma_3(e_i) (x) |-><-|,
    emitted as a controlled Z exponential of angle pi/2 on the |-> branch;
    the leftover i**n on that branch is cancelled exactly by one ancilla X
    rotation plus a recorded global phase, so the net action equals
    :func:`spatial_loop_direct` with the ancilla returned in |->.
    """
    links = list(links)
    if ancilla < circuit.n_link_qubits:
        raise CircuitError("ancilla index lies in the link register")
    for li in links:
        circuit.add(ControlledPauliExp(ancilla, "x-",
                                       PauliString({li: "Z"}), HALF_PI))
    r = len(links) % 4
    if r:
        circuit.add(PauliExp(PauliString({ancilla: "X"}), r * np.pi / 4))
        circuit.add_phase(-r * np.pi / 4)


def prepare_minus(circuit: Circuit, qubit: int) -> None:
    """|up> -> |-> (exact, one Y rotation)."""
    circuit.add(PauliExp(PauliString({qubit: "Y"}), np.pi / 4))


def prepare_plus(circuit: Circuit, qubit: int) -> None:
    """|up> -> |+>."""
    circuit.add(PauliExp(PauliString({qubit: "Y"}), -np.pi / 4))


def unprepare_plus(circuit: Circuit, qubit: int) -> None:
    """|+> -> |up>, |-> -> |down>: X-basis measurement becomes a Z readout."""
    circuit.add(PauliExp(PauliString({qubit: "Y"}), np.pi / 4))


def unprepare_minus(circuit: Circuit, qubit: int) -> None:
    """|-> -> |up> (exact inverse of :func:`prepare_minus`)."""
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
    for li in links:
        circuit.add(ControlledPauliExp(ancilla, "x-",
                                       PauliString({li: "Z"}), HALF_PI))
    circuit.add(PauliExp(PauliString({ancilla: "Z"}), -theta))
    for li in reversed(links):
        circuit.add(ControlledPauliExp(ancilla, "x-",
                                       PauliString({li: "Z"}), -HALF_PI))


# ---------------------------------------------------------------------------
# exact sector routes
# ---------------------------------------------------------------------------

def temporal_plaquette_exact(model: Z2Model, sector: PhysicalSector,
                             link: int, tau: float) -> SectorOperator:
    """Minimal temporal loop: e^{-i tau (H + 2 sigma_1(e))} in the sector."""
    if not 0 <= link < model.lattice.n_links:
        raise ValueError(f"link {link} out of range")
    return exact_evolve_in_sector(model, sector, tau, frozenset({link}))


def conjugated_temporal_plaquette(model: Z2Model, sector: PhysicalSector,
                                  link: int, tau: float) -> SectorOperator:
    """sigma_3(e) e^{-i tau H} sigma_3(e) computed directly.

    sigma_3(e) maps the physical sector to the star sector charged -1 at the
    link's endpoints, where the unmodified Hamiltonian evolves; the second
    sigma_3(e) maps back.  This is an independent route to the same matrix
    as :func:`temporal_plaquette_exact` (whose exponent is the modified
    Hamiltonian in the physical sector).
    """
    lat = model.lattice
    if not 0 <= link < lat.n_links:
        raise ValueError(f"link {link} out of range")
    a, b = lat.links[link]
    charges = list(sector.charges)
    charges[a] *= -1
    charges[b] *= -1
    charged = build_physical_sector(model, charges)
    u_charged = exact_evolve_in_sector(model, charged, tau).matrix
    perm = xor_perm(charged.masks, sector.masks, 1 << link)
    return SectorOperator(u_charged[np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# link-based construction
# ---------------------------------------------------------------------------

def _vertex_sequence(lattice: Lattice, path) -> list[int]:
    """Vertices visited by a contiguous ordered link path."""
    path = list(path)
    if not path:
        raise ProgramError("empty link path")
    if len(path) == 1:
        a, b = lattice.links[path[0]]
        return [a, b]
    a0, b0 = lattice.links[path[0]]
    a1, b1 = lattice.links[path[1]]
    shared = {a0, b0} & {a1, b1}
    if not shared:
        raise ProgramError("path is not vertex-contiguous at step 0")
    first_shared = sorted(shared)[0]
    verts = [b0 if first_shared == a0 else a0, first_shared]
    for k in range(1, len(path)):
        a, b = lattice.links[path[k]]
        if verts[-1] == a:
            verts.append(b)
        elif verts[-1] == b:
            verts.append(a)
        else:
            raise ProgramError(f"path is not vertex-contiguous at step {k}")
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
                     matter_map: dict[int, int] | None = None) -> dict[int, int]:
    """Transport the matter excitation along the path, depositing sigma_3.

    Matter qubits are assigned to path positions ping-pong fashion (two
    registers suffice: a hop empties its source, which becomes the next
    destination).  ``matter_map`` maps path positions to qubits; with None,
    two matter qubits are allocated, head spin-up.  The head position must
    hold the excitation and every other listed register must be empty
    (spin-down) on entry.  Records one -i phase per hop in the circuit
    phase log.  Returns the position -> qubit assignment used.
    """
    path = list(path)
    verts = _vertex_sequence(lattice, path)
    if matter_map is None:
        m0 = circuit.alloc_ancilla(initial_bit=0, role="matter")
        m1 = circuit.alloc_ancilla(initial_bit=1, role="matter")
        pos_map = {p: (m0 if p % 2 == 0 else m1) for p in range(len(verts))}
    else:
        pos_map = dict(matter_map)
        if any(p not in pos_map for p in range(len(verts))):
            raise ProgramError("matter_map must cover every path position")
    for p, v in enumerate(verts):
        circuit.matter_qubit_map.setdefault(v, pos_map[p])
    for k, link in enumerate(path):
        src, dest = pos_map[k], pos_map[k + 1]
        for string, theta in hop_strings(src, link, dest):
            circuit.add(PauliExp(string, theta))
        circuit.log_phase(f"hop link {link}", -1j)
    return pos_map


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


def link_loop_circuit(lattice: Lattice, loop_links,
                      open_with_mediator: bool = True) -> Circuit:
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
    if open_with_mediator:
        m0 = circuit.alloc_ancilla(initial_bit=1, role="matter")
        m1 = circuit.alloc_ancilla(initial_bit=0, role="matter")
        med = circuit.alloc_ancilla(initial_bit=0, role="mediator")
        # creation: fires on (head down, tail up, mediator up)
        for string, theta in closure_strings(m0, m1, med):
            circuit.add(PauliExp(string, theta))
        circuit.log_phase("opening", -1j)
    else:
        m0 = circuit.alloc_ancilla(initial_bit=0, role="matter")
        m1 = circuit.alloc_ancilla(initial_bit=1, role="matter")
        med = circuit.alloc_ancilla(initial_bit=1, role="mediator")
    pos_map = {p: (m0 if p % 2 == 0 else m1) for p in range(len(verts))}
    link_wilson_line(circuit, lattice, path, matter_map=pos_map)
    link_loop_closure(circuit, m0, m1, med)
    return circuit


# ---------------------------------------------------------------------------
# controlled loop and Hadamard test
# ---------------------------------------------------------------------------

def controlled_loop(circuit: Circuit, model: Z2Model, program: LoopProgram,
                    control_ancilla: int, n_T: int) -> None:
    """Controlled version of the full Trotterized loop.

    Spatial steps become single controlled loop-string exponentials with an
    exact phase fix (c-U^C); electric rotations become controlled X
    rotations (c-U^Gamma); each plaquette exponential becomes the
    two-ancilla sandwich c-U^Box = V^dag_b [controlled e^{-i theta Z_b}] V_b
    with the work ancilla b spin-down.
    """
    lat = model.lattice
    if control_ancilla < lat.n_links:
        raise CircuitError("control ancilla collides with the link register")
    box_ancilla: int | None = None

    def emit_controlled_string(string: PauliString, theta: float) -> None:
        nonlocal box_ancilla
        if string.weight <= 1:
            circuit.add(ControlledPauliExp(control_ancilla, "z", string, theta))
            return
        # plaquette magnetic term: two-ancilla construction
        links = sorted(string.support)
        if box_ancilla is None:
            box_ancilla = circuit.alloc_ancilla(initial_bit=1, role="box")
        else:
            circuit.add(ResetAncilla(box_ancilla, 1))
        for li in links:
            circuit.add(ControlledPauliExp(box_ancilla, "x-",
                                           PauliString({li: "Z"}), HALF_PI))
        circuit.add(ControlledPauliExp(control_ancilla, "z",
                                       PauliString({box_ancilla: "Z"}), -theta))
        for li in reversed(links):
            circuit.add(ControlledPauliExp(box_ancilla, "x-",
                                           PauliString({li: "Z"}), -HALF_PI))

    for step in program.steps:
        if isinstance(step, Spatial):
            s = _spatial_string(step.links)
            if s.is_identity():
                continue
            circuit.add(ControlledPauliExp(control_ancilla, "z", s, HALF_PI))
            circuit.add(PauliExp(PauliString({control_ancilla: "Z"}),
                                 -np.pi / 4))
            circuit.add_phase(-np.pi / 4)
        elif isinstance(step, (Temporal, FreeEvolve)):
            mods = step.modified_links if isinstance(step, Temporal) else frozenset()
            for string, theta in trotter_strings(model, TrotterPlan(n_T, step.tau),
                                                 mods):
                emit_controlled_string(string, theta)
        else:  # pragma: no cover
            raise ProgramError(f"unknown step {step!r}")


def hadamard_test(psi: StateVector, model: Z2Model, program: LoopProgram,
                  n_T: int, shots: int | None = None,
                  rng: np.random.Generator | None = None) -> float:
    """p_+ of the ancilla-controlled Trotterized loop on |psi>.

    The circuit runs once, and p_+ = <psi|(2 + W + W^dag)/4|psi> is read
    from the final amplitudes.  Exact mode (shots None) returns it;
    sampling mode returns the observed frequency of the |+> outcome over
    the requested number of shots, drawn from that same p_+ by
    :func:`sample_p_plus`.
    """
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1 (or None for exact mode)")
    circuit = Circuit(model.lattice.n_links)
    control = circuit.alloc_ancilla(initial_bit=0, role="hadamard-control")
    prepare_plus(circuit, control)
    controlled_loop(circuit, model, program, control, n_T)
    unprepare_plus(circuit, control)
    final, _ = run_circuit(circuit, psi)
    p_plus = marginal_bit_probability(final, control, 0)
    if shots is None:
        return p_plus
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    return sample_p_plus(p_plus, shots, rng)


def sample_p_plus(p_plus: float, shots: int, rng: np.random.Generator
                  ) -> float:
    """Observed |+> frequency over ``shots`` Hadamard-test shots.

    One binomial draw at p_plus, clamped to [0, 1] against rounding.
    """
    return float(rng.binomial(shots, min(max(p_plus, 0.0), 1.0)) / shots)


def trotterized_program_circuit(model: Z2Model, program: LoopProgram,
                                n_T: int) -> Circuit:
    """Plain (uncontrolled) gate list of the Trotterized program.

    Spatial steps are emitted as one loop-string exponential pair
    equivalent to the sigma_3 product: e^{i pi/2 P} = i P, compensated by a
    recorded global phase, keeping every gate a Pauli exponential.
    """
    circuit = Circuit(model.lattice.n_links)
    for step in program.steps:
        if isinstance(step, Spatial):
            s = _spatial_string(step.links)
            if s.is_identity():
                continue
            circuit.add(PauliExp(s, HALF_PI))
            circuit.add_phase(-HALF_PI)
        else:
            mods = step.modified_links if isinstance(step, Temporal) else frozenset()
            for string, theta in trotter_strings(model, TrotterPlan(n_T, step.tau),
                                                 mods):
                circuit.add(PauliExp(string, theta))
    return circuit


# ---------------------------------------------------------------------------
# gate-count scaling circuits
# ---------------------------------------------------------------------------

def rect_perimeter_links(lattice: Lattice, width: int, height: int
                         ) -> list[int]:
    """Ordered boundary cycle of a width x height plaquette grid."""
    def hid(x, y):
        per_row = 2 * width + 1
        return y * per_row + x

    def vid(x, y):
        per_row = 2 * width + 1
        return y * per_row + width + x

    out = [hid(x, 0) for x in range(width)]
    out += [vid(width, y) for y in range(height)]
    out += [hid(x, height) for x in reversed(range(width))]
    out += [vid(0, y) for y in reversed(range(height))]
    return out


def rect_loop_plaquette_circuit(lattice: Lattice, width: int, height: int
                                ) -> Circuit:
    """Perimeter loop as the product of all enclosed plaquette V-chains.

    One ancilla is prepared in |-> and shared by every enclosed plaquette
    (each V-chain keeps it in |->), then rotated back and reset.  Interior
    links are traversed twice and cancel, leaving the boundary sigma_3
    product; the gate count is proportional to the enclosed area.
    """
    circuit = Circuit(lattice.n_links)
    ancilla = circuit.alloc_ancilla(initial_bit=0, role="loop")
    prepare_minus(circuit, ancilla)
    for pi in range(lattice.n_plaquettes):
        spatial_loop_via_ancilla(circuit, lattice.plaquettes[pi], ancilla)
    unprepare_minus(circuit, ancilla)
    circuit.add(ResetAncilla(ancilla, 0))
    return circuit


def rect_loop_link_circuit(lattice: Lattice, width: int, height: int
                           ) -> Circuit:
    """Perimeter loop via matter transport: gate count linear in the length."""
    return link_loop_circuit(lattice, rect_perimeter_links(lattice, width,
                                                           height))
