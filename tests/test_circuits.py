"""Circuit IR: executor semantics, ancilla handling, census, text export."""

import dataclasses

import numpy as np
import pytest

from conftest import one_plaquette, outcome, random_coords, random_state
from z2wilson.circuits import (Circuit, CircuitError, ControlledPauliExp,
                               Measure, PauliExp, ResetAncilla,
                               circuit_stats, circuit_to_text, run_blocks,
                               star_commutation_report)
from z2wilson.lattice import build_cross, build_rect
from z2wilson.programs import staircase_default
from z2wilson.statevec import (PauliString, StateVector, _bit_probability,
                               _measure_bit, apply_controlled_pauli_exp,
                               apply_gates, apply_pauli_exp,
                               extend_with_ancillas, init_basis,
                               link_register_block, run_circuit)
from z2wilson.wilson import hadamard_test_circuit, trotterized_program_circuit
from z2wilson.gauge import (Z2Model, build_physical_sector,
                            embed_sector_coords, sector_ground_state)


class TestCircuitStructure:
    def test_alloc_above_links(self):
        c = Circuit(3)
        a = c.alloc_ancilla(1)
        assert a == 3
        assert c.n_qubits == 4
        assert c.ancilla_init[a] == 1

    def test_gate_outside_register_rejected(self):
        c = Circuit(2)
        with pytest.raises(CircuitError):
            c.add(PauliExp(PauliString({5: "X"}), 0.1))

    def test_control_overlap_rejected(self):
        with pytest.raises(CircuitError):
            ControlledPauliExp(0, "z", PauliString({0: "Z"}), 0.1)

    def test_negative_control_rejected(self):
        # the overlap test shifts the string's masks by the control
        with pytest.raises(CircuitError, match="negative control qubit -1"):
            ControlledPauliExp(-1, "z", PauliString({0: "Z"}), 0.1)

    def test_bad_basis_rejected(self):
        with pytest.raises(CircuitError):
            ControlledPauliExp(1, "y", PauliString({0: "Z"}), 0.1)


class TestExecutor:
    def test_ancilla_extension_layout(self):
        c = Circuit(2)
        c.alloc_ancilla(1)
        sv = extend_with_ancillas(init_basis(2, "01"), c)
        # ancilla bit set above the two link qubits: index 0b101 = 5
        assert sv.amps[5] == 1

    def test_gate_sequence_matches_direct_kernels(self):
        rng = np.random.default_rng(0)
        c = Circuit(3)
        a = c.alloc_ancilla(0)
        gates = [PauliExp(PauliString({0: "X", 2: "Z"}), 0.3),
                 ControlledPauliExp(a, "z", PauliString({1: "Y"}), -0.8),
                 PauliExp(PauliString({a: "Y"}), 0.25)]
        for g in gates:
            c.add(g)
        psi = StateVector(3, random_state(3, rng))
        out, _ = run_circuit(c, psi.copy())
        ref = extend_with_ancillas(psi, c)
        apply_pauli_exp(ref, gates[0].string, gates[0].theta)
        apply_controlled_pauli_exp(ref, a, "z", gates[1].string,
                                   gates[1].theta)
        apply_pauli_exp(ref, gates[2].string, gates[2].theta)
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-13

    def test_global_phase_applied(self):
        c = Circuit(1)
        c.add_phase(np.pi / 2)
        out, _ = run_circuit(c, init_basis(1, "0"))
        assert abs(out.amps[0] - 1j) < 1e-15

    def test_measure_deterministic_without_rng(self):
        c = Circuit(1)
        c.add(Measure(0))
        _, outcomes = run_circuit(c, init_basis(1, "1"))
        assert outcomes[0] == 1

    def test_measure_probabilistic_needs_rng(self):
        c = Circuit(1)
        c.add(Measure(0))
        plus = StateVector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
        with pytest.raises(CircuitError):
            run_circuit(c, plus)
        rng = np.random.Generator(np.random.Philox(5))
        out, outcomes = run_circuit(c, plus.copy(), rng)
        assert outcomes[0] in (0, 1)
        assert out.norm_error() < 1e-12

    @pytest.mark.parametrize("qubit", [0, 4, 9])
    @pytest.mark.parametrize("outcome", [0, 1])
    def test_measure_normalisation_is_the_complex_division(self, qubit,
                                                           outcome):
        # the kept half is scaled through its float64 view by 1/sqrt(p);
        # numpy divides a complex by a real with that reciprocal, so the
        # bits are those of the division
        class Draw:
            def random(self):
                return 0.0 if outcome else 1.0

        n = 10
        for seed in range(4):
            v = random_state(n, np.random.default_rng(seed))
            p1 = _bit_probability(v, n, qubit, 1)
            got, want = v.copy(), v.copy()
            assert _measure_bit(got, qubit, n, Draw()) == outcome
            blocks = want.reshape(1 << (n - 1 - qubit), 2, 1 << qubit)
            blocks[:, 1 - outcome] = 0.0
            blocks[:, outcome] /= np.sqrt(p1 if outcome else 1.0 - p1)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_reset_flips_to_target(self):
        # the flip moves the measured half bit for bit onto the target half
        # and leaves exactly 0.0 behind, where an X rotation by pi/2 would
        # leave cos(pi/2) = 6.1e-17.  Qubit 4 is an ancilla that starts in
        # bit 1; links 0 and 2 read 1 with certainty.  Every reset measures
        for qubit in (0, 2, 4):
            c = Circuit(4)
            c.alloc_ancilla(1)
            c.add(ResetAncilla(qubit, 0))
            link = random_state(4, np.random.default_rng(qubit))
            if qubit < 4:
                link.reshape(-1, 2, 1 << qubit)[:, 0] = 0.0
                link /= np.linalg.norm(link)
            kept = extend_with_ancillas(StateVector(4, link), c).amps
            assert _measure_bit(kept, qubit, 5, None) == 1
            out, outcomes = run_circuit(c, StateVector(4, link))
            assert outcomes[0] == 1
            before = kept.reshape(-1, 2, 1 << qubit)
            after = out.amps.reshape(-1, 2, 1 << qubit)
            assert not np.any(after[:, 1].view(np.uint64)), qubit
            assert np.array_equal(after[:, 0].view(np.uint64),
                                  before[:, 1].view(np.uint64)), qubit
        with pytest.raises(CircuitError, match="got 2"):
            ResetAncilla(0, 2)

    def test_grouped_controlled_run_equals_single_gates(self):
        rng = np.random.default_rng(1)
        psi = StateVector(2, random_state(2, rng))
        strings = [PauliString({0: "Z"}), PauliString({1: "X"}),
                   PauliString({0: "Y", 1: "Z"})]
        thetas = [0.4, -1.1, 0.9]
        c = Circuit(2)
        a = c.alloc_ancilla(0)
        c.add(PauliExp(PauliString({a: "Y"}), np.pi / 4))   # put control in |->
        for s, th in zip(strings, thetas):
            c.add(ControlledPauliExp(a, "x-", s, th))
        out, _ = run_circuit(c, psi.copy())
        ref = extend_with_ancillas(psi, c)
        apply_pauli_exp(ref, PauliString({a: "Y"}), np.pi / 4)
        for s, th in zip(strings, thetas):
            apply_controlled_pauli_exp(ref, a, "x-", s, th)
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-13


def random_link_string(rng, n_links, extra=None):
    k = int(rng.integers(1, 4))
    qubits = rng.choice(n_links, size=k, replace=False)
    terms = {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
    if extra is not None:
        terms[extra] = "Z"
    return PauliString(terms)


def v_chain(rng, n_links, ancilla, length):
    links = rng.choice(n_links, size=length, replace=False)
    return [ControlledPauliExp(ancilla, "x-", PauliString({int(li): "Z"}),
                               np.pi / 2) for li in links]


def random_circuit(seed):
    """Links and ancillas under "z" and "x-" groups, plaquette-style boxes
    (V-chain, controlled Z on the ancilla, V-chain back), Z factors on
    ancillas and X/Y rotations of ancillas; no Measure or Reset."""
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(4, 11))
    c = Circuit(n_links)
    ancillas = [c.alloc_ancilla(int(rng.integers(2)))
                for _ in range(int(rng.integers(2, 4)))]
    for _ in range(30):
        kind = int(rng.integers(6))
        a, b = (int(q) for q in rng.choice(ancillas, size=2, replace=False))
        theta = float(rng.uniform(-np.pi, np.pi))
        if kind == 0:     # a "z" group, some strings with Z on an ancilla
            for _ in range(int(rng.integers(1, 4))):
                extra = b if rng.random() < 0.3 else None
                c.add(ControlledPauliExp(a, "z", random_link_string(
                    rng, n_links, extra=extra), theta))
        elif kind == 1:   # a non-Clifford "x-" group
            c.add(ControlledPauliExp(a, "x-", random_link_string(
                rng, n_links), theta))
        elif kind == 2:   # a box: V-chain, controlled Z, V-chain back
            chain = v_chain(rng, n_links, a, 4)
            for g in chain:
                c.add(g)
            c.add(ControlledPauliExp(b, "z", PauliString({a: "Z"}), theta))
            for g in reversed(chain):
                c.add(dataclasses.replace(g, theta=-g.theta))
        elif kind == 3:   # a lone V-chain, even or odd
            for g in v_chain(rng, n_links, a, int(rng.integers(1, 5))):
                c.add(g)
        elif kind == 4:   # X or Y on an ancilla
            c.add(PauliExp(PauliString({a: str(rng.choice(["X", "Y"]))}),
                           theta))
        else:             # a link string, sometimes with Z on an ancilla
            extra = a if rng.random() < 0.5 else None
            c.add(PauliExp(random_link_string(rng, n_links, extra=extra),
                           theta))
    return c


def blocks_to_full_space(blocks, model, circuit):
    """Full-register amplitudes of a run_blocks state."""
    amps = np.zeros(1 << circuit.n_qubits, dtype=complex)
    for charges, block in blocks.items():
        sector = build_physical_sector(model, charges)
        amps += embed_sector_coords(sector, block).T.reshape(-1)
    return amps


class TestBlockExecutor:
    """run_blocks against run_circuit on the same gate lists."""

    def test_matches_the_full_space_on_random_circuits(self):
        # random_circuit's link strings carry X, Y and Z factors on any
        # links, so its gates reach many charge patterns; a reset in the
        # middle and a measurement at the end draw from the RNG
        checked = 0
        for seed in range(24):
            c = random_circuit(seed)
            if c.n_link_qubits not in (4, 7, 10):
                continue
            model = Z2Model(build_rect((c.n_link_qubits - 1) // 3, 1), 1.0)
            sector = build_physical_sector(model)
            rng = np.random.default_rng(200 + seed)
            coords = rng.normal(size=sector.dim) + 1j * rng.normal(
                size=sector.dim)
            coords /= np.linalg.norm(coords)
            ancillas = sorted(c.ancilla_init)
            c.gates.insert(len(c.gates) // 2, ResetAncilla(ancillas[0], 1))
            c.gates.append(Measure(ancillas[-1]))
            blocks, got_outcomes = run_blocks(
                c, model, sector, coords,
                np.random.Generator(np.random.Philox(seed)))
            want, want_outcomes = run_circuit(
                c, StateVector(sector.n_links,
                               embed_sector_coords(sector, coords)),
                np.random.Generator(np.random.Philox(seed)))
            assert got_outcomes == want_outcomes, seed
            assert np.max(np.abs(blocks_to_full_space(blocks, model, c)
                                 - want.amps)) <= 1e-13, seed
            checked += len(blocks) > 1
        assert checked >= 5

    def test_box_resets_find_the_box_ancilla_exactly(self, monkeypatch):
        # measure --nt 9 on the cross: every box V-chain runs as its exact
        # operator, so each reset finds the other half of the box ancilla
        # exactly zero, and the state never leaves the neutral block
        import z2wilson.circuits as circuits_mod

        model = Z2Model(build_cross(), 10.0)
        sector = build_physical_sector(model)
        circuit, _ = hadamard_test_circuit(model, staircase_default(), 9)
        box = max(circuit.ancilla_init)
        resets = []
        real = circuits_mod._BlockRun.measure

        def checking(self, state, gate, rng):
            (block,) = state.values()
            resets.append(not np.any(block[:, 0:2]))
            return real(self, state, gate, rng)

        monkeypatch.setattr(circuits_mod._BlockRun, "measure", checking)
        blocks, outcomes = run_blocks(
            circuit, model, sector, sector_ground_state(model, sector)[1])
        assert list(blocks) == [sector.charges]
        assert resets == [True] * 89
        assert set(outcomes.values()) == {1}
        assert all(circuit.gates[gi].qubit == box for gi in outcomes)


class TestControlledGroups:
    """One rule for every controlled run: its gates act on the control's
    firing component, and an "x-" gate at +-pi/2 is exactly +-i P."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_lone_v_chain_and_its_reverse_return_the_state(self, length):
        # the chain and its reverse are separate groups, split by a
        # measurement of another ancilla that reads 0 with certainty; odd
        # chains, whose phase is +-i, are as exact as even ones
        model = Z2Model(build_cross(), 10.0)
        sector = build_physical_sector(model)
        coords = random_coords(sector, np.random.default_rng(length))
        c = Circuit(model.lattice.n_links)
        a, b = c.alloc_ancilla(0), c.alloc_ancilla(0)
        links = [0, 5, 9, 12, 14][:length]
        for li in links:
            c.add(ControlledPauliExp(a, "x-", PauliString({li: "Z"}),
                                     np.pi / 2))
        c.add(Measure(b))
        for li in reversed(links):
            c.add(ControlledPauliExp(a, "x-", PauliString({li: "Z"}),
                                     -np.pi / 2))
        blocks, outcomes = run_blocks(c, model, sector, coords)
        assert outcomes == {length: 0}
        block = blocks.pop(sector.charges)
        assert np.array_equal(block[:, 0].copy().view(np.uint64),
                              coords.view(np.uint64))
        assert not np.any(block[:, 1:])
        assert blocks and not any(np.any(v) for v in blocks.values())

    def test_z_run_grouped_equals_gate_by_gate(self):
        # a barrier (a certain measurement of ancilla c) between the "z"
        # gates makes each gate its own group; the bits and the block order
        # are the same.  The strings move charges and carry X, Y and Z on
        # ancilla b, and the full-space route checks the result
        model = Z2Model(build_rect(2, 1), 1.0)
        sector = build_physical_sector(model)
        coords = random_coords(sector, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        grouped = Circuit(model.lattice.n_links)
        a, b, c = (grouped.alloc_ancilla(bit) for bit in (0, 1, 0))
        barriered = dataclasses.replace(grouped, gates=[])
        for circuit in (grouped, barriered):
            circuit.add(PauliExp(PauliString({a: "Y"}), 0.3))
            circuit.add(PauliExp(PauliString({b: "Y"}), -0.7))
        for i in range(6):
            terms = dict(random_link_string(rng, model.lattice.n_links).terms)
            if i % 4:
                terms[b] = "XYZ"[i % 4 - 1]
            theta = np.pi / 2 if i == 2 else float(rng.uniform(-np.pi, np.pi))
            gate = ControlledPauliExp(a, "z", PauliString(terms), theta)
            grouped.add(gate)
            barriered.add(gate)
            barriered.add(Measure(c))
        got, _ = run_blocks(grouped, model, sector, coords)
        want, _ = run_blocks(barriered, model, sector, coords)
        assert len(got) > 1
        assert list(got) == list(want)
        for key, block in got.items():
            assert np.array_equal(block.copy().view(np.uint64),
                                  want[key].copy().view(np.uint64))
        full, _ = run_circuit(grouped, StateVector(
            sector.n_links, embed_sector_coords(sector, coords)))
        assert np.max(np.abs(blocks_to_full_space(got, model, grouped)
                             - full.amps)) <= 1e-13


class TestCensusAndExport:
    def test_empty_circuit(self):
        stats = circuit_stats(Circuit(4))
        assert stats == {"pauli_exp": 0, "controlled_pauli_exp": 0,
                         "measure": 0, "reset": 0, "total": 0}

    def test_counts(self):
        c = Circuit(2)
        a = c.alloc_ancilla(0)
        c.add(PauliExp(PauliString({0: "X"}), 0.1))
        c.add(ControlledPauliExp(a, "z", PauliString({0: "Z"}), 0.2))
        c.add(Measure(a))
        c.add(ResetAncilla(a, 0))
        stats = circuit_stats(c)
        assert stats["total"] == 4
        assert stats["pauli_exp"] == stats["controlled_pauli_exp"] == 1

    def test_export_format(self):
        c = Circuit(2)
        a = c.alloc_ancilla(1)
        c.add(PauliExp(PauliString({0: "X", 1: "Z"}), 0.5))
        c.add(ControlledPauliExp(a, "x-", PauliString({0: "Z"}), np.pi / 2))
        c.add(Measure(a))
        text = circuit_to_text(c)
        lines = text.splitlines()
        assert lines[0] == "RESET 2 1"
        assert lines[1] == "PEXP 0.5 0:X 1:Z"
        assert lines[2].startswith("CPEXP 2 X- 1.57")
        assert lines[3] == "MEASURE 2"
        assert any(l.startswith("# census") for l in lines)

    def test_export_writes_a_strings_sign_into_its_angle(self):
        zz = {0: "Z", 1: "Z"}
        signed, twin = Circuit(2), Circuit(2)
        for circ, phase, theta in ((signed, -1, 0.3), (twin, 1, -0.3)):
            a = circ.alloc_ancilla(0)
            circ.add(PauliExp(PauliString(zz, phase), theta))
            circ.add(ControlledPauliExp(a, "z", PauliString(zz, phase), theta))
        lines = circuit_to_text(signed).splitlines()
        assert lines[1] == "PEXP -0.29999999999999999 0:Z 1:Z"
        assert lines[2] == "CPEXP 2 Z -0.29999999999999999 0:Z 1:Z"
        # the line read back is the same gate: e^{i theta (-P)} = e^{-i theta P}
        assert circuit_to_text(twin) == circuit_to_text(signed)
        psi = StateVector(2, random_state(2, np.random.default_rng(3)))
        out_signed, _ = run_circuit(signed, psi.copy())
        out_twin, _ = run_circuit(twin, psi.copy())
        assert np.max(np.abs(out_signed.amps - out_twin.amps)) < 1e-15

    def test_export_deterministic(self):
        m = Z2Model(build_cross(), 10.0)
        a = circuit_to_text(trotterized_program_circuit(m, staircase_default(), 4))
        b = circuit_to_text(trotterized_program_circuit(m, staircase_default(), 4))
        assert a == b


class TestStarCommutation:
    def test_trotter_circuit_passes(self):
        lat = build_cross()
        m = Z2Model(lat, 10.0)
        circ = trotterized_program_circuit(m, staircase_default(), 3)
        checked, failures = star_commutation_report(circ, lat)
        assert checked == len(circ.gates)    # all gates are pure link gates
        assert failures == []

    def test_open_line_gate_flagged(self):
        lat = build_cross()
        c = Circuit(lat.n_links)
        c.add(PauliExp(PauliString({0: "Z"}), 0.3))   # open single-link line
        checked, failures = star_commutation_report(c, lat)
        assert checked == 1
        assert len(failures) == 2            # both endpoint stars clash


class TestMarginals:
    def test_block_and_marginal(self):
        c = Circuit(1)
        a = c.alloc_ancilla(0)
        c.add(PauliExp(PauliString({a: "X"}), np.pi / 2))   # iX: flips ancilla
        out, _ = run_circuit(c, init_basis(1, "1"))
        assert _bit_probability(out.amps, out.n_qubits, a, 1) == \
            pytest.approx(1.0)
        blk = link_register_block(out, c, {a: 1})
        assert abs(abs(blk[1]) - 1) < 1e-12


def _link_controlled_gate():
    circuit = Circuit(4)
    circuit.add(ControlledPauliExp(0, "z", PauliString({1: "X"}), 0.3))
    return circuit


def _gauge_check_of_skipped_gates():
    # an open line under a control, and one times an ancilla X: both
    # anticommute with a star, but neither is a pure link gate
    lat = build_rect(1, 1)
    circuit = Circuit(lat.n_links)
    a = circuit.alloc_ancilla(0)
    circuit.add(ControlledPauliExp(a, "z", PauliString({0: "Z"}), 0.3))
    circuit.add(PauliExp(PauliString({0: "Z", a: "X"}), 0.3))
    return star_commutation_report(circuit, lat)


COORDS = np.array([1.0, 0.0], dtype=complex)


@pytest.mark.parametrize("call, expected", [
    (lambda: PauliString({-1: "Z"}),
     "PauliStringError: negative qubit index -1"),
    (lambda: run_blocks(Circuit(16), *one_plaquette(), COORDS),
     "CircuitError: circuit has 16 link qubits, lattice 4 links, sector 4"),
    (lambda: run_blocks(_link_controlled_gate(), *one_plaquette(), COORDS),
     "CircuitError: qubit 0 is a link; the block route controls and "
     "measures ancillas only"),
    (lambda: run_blocks(Circuit(4), *one_plaquette(), np.zeros(3)),
     "CircuitError: (3,) coordinates for a sector of dimension 2"),
    (_gauge_check_of_skipped_gates, (0, [])),
], ids=["negative-qubit", "register-size", "link-control",
        "coordinate-shape", "gauge-check-skips"])
def test_input_check(call, expected):
    assert outcome(call) == expected
