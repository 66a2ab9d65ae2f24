"""Circuit IR: executor semantics, ancilla handling, census, text export."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from z2wilson.circuits import (Circuit, CircuitError, ControlledPauliExp,
                               Measure, PauliExp, ResetAncilla, _measure_bit,
                               apply_gates,
                               circuit_stats, circuit_to_text,
                               extend_with_ancillas,
                               link_register_block, marginal_bit_probability,
                               run_blocks, run_circuit,
                               star_commutation_report)
from z2wilson.lattice import build_cross, build_rect
from z2wilson.programs import staircase_default
from z2wilson.statevec import (PauliString, StateVector, _bit_probability,
                               _controlled_exps, _scratch, pauli_exp_inplace,
                               apply_controlled_pauli_exp, apply_pauli_exp,
                               init_basis)
from z2wilson.wilson import hadamard_test_circuit, trotterized_program_circuit
from z2wilson.gauge import (Z2Model, build_physical_sector,
                            embed_sector_coords, embed_state,
                            sector_ground_state)


class TestCircuitStructure:
    def test_alloc_above_links(self):
        c = Circuit(3)
        a = c.alloc_ancilla(1, role="work")
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
        # the flip moves the kept half bit for bit onto the target half and
        # leaves exactly 0.0 behind, where an X rotation by pi/2 would
        # leave cos(pi/2) = 6.1e-17.  Qubit 4 is an ancilla that starts in
        # bit 1 and is known, so it is not measured; links 0 and 2 read 1
        # with certainty and are measured
        for qubit in (0, 2, 4):
            c = Circuit(4)
            c.alloc_ancilla(1)
            c.add(ResetAncilla(qubit, 0))
            link = random_state(4, np.random.default_rng(qubit))
            if qubit < 4:
                link.reshape(-1, 2, 1 << qubit)[:, 0] = 0.0
                link /= np.linalg.norm(link)
            kept = extend_with_ancillas(StateVector(4, link), c).amps
            if qubit < 4:
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

    def test_gate_sequence_allocates_less_than_one_state(self):
        # gates update the amplitudes in place: once the kernel caches and
        # scratch buffers are warm, rotations at every kernel layout and on
        # both sides of each crossover, a "z" and an "x-" controlled group
        # and a reset allocate less than one state vector in total, and no
        # scratch buffer is evicted and allocated again.  The sequence runs
        # on a 16-qubit register, then as circuits run it: on the 16-qubit
        # live block under a known ancilla, which two resets flip down and
        # back up; either way it allocates less than one 16-qubit state
        n = 16
        gates = [PauliExp(PauliString({q: ax}), 0.3)
                 for q in (0, 1, 2, 8, 11, 12, 13, n - 1) for ax in "XYZ"]
        gates += [ControlledPauliExp(12, "z", PauliString({0: "X"}), 0.2),
                  ControlledPauliExp(12, "z", PauliString({13: "Z"}), -0.4),
                  ControlledPauliExp(n - 1, "x-", PauliString({1: "Z"}),
                                     np.pi / 2),
                  ControlledPauliExp(n - 1, "x-", PauliString({9: "Y"}),
                                     -np.pi / 2),
                  ResetAncilla(14, 0)]
        rng = np.random.Generator(np.random.Philox(3))

        def run_twice(amps, gates, n_qubits, known):
            apply_gates(amps, gates, n_qubits, rng, known)
            misses = _scratch.cache_info().misses
            tracemalloc.start()
            try:
                outcomes = apply_gates(amps, gates, n_qubits, rng, known)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < (1 << n) * amps.itemsize
            assert _scratch.cache_info().misses == misses
            return outcomes

        run_twice(random_state(n, np.random.default_rng(2)), gates, n, None)

        amps = np.zeros(1 << (n + 1), dtype=np.complex128)
        amps[1 << n:] = random_state(n, np.random.default_rng(2))
        tracked = gates + [ResetAncilla(n, 0), ResetAncilla(n, 1)]
        outcomes = run_twice(amps, tracked, n + 1, {n: 1})
        assert [outcomes[len(gates)], outcomes[len(gates) + 1]] == [1, 0]
        assert not np.any(amps[: 1 << n])


def reference_apply_gates(amps, gates, n, rng=None):
    """The executor before known-bit tracking, as the reference: every
    group on the whole register, every Measure and ResetAncilla through a
    probability pass, and a reset's flip as X(pi/2) and a -i phase."""
    outcomes = {}
    gi = 0
    while gi < len(gates):
        gate = gates[gi]
        if isinstance(gate, PauliExp):
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
        elif isinstance(gate, Measure):
            outcomes[gi] = _measure_bit(amps, gate.qubit, n, rng)
            gi += 1
        else:
            bit = _measure_bit(amps, gate.qubit, n, rng)
            if bit != gate.target_bit:
                pauli_exp_inplace(amps, PauliString({gate.qubit: "X"}),
                                  np.pi / 2, n)
                amps *= -1j
            outcomes[gi] = bit
            gi += 1
    return outcomes


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


class TestKnownBits:
    """Executor runs on the live block while ancillas hold known bits."""

    def test_values_match_the_reference(self, monkeypatch):
        import z2wilson.circuits as circuits_mod

        sizes = []
        real = circuits_mod.pauli_exp_inplace

        def recording(amps, p, theta, n):
            sizes.append(amps.size < 1 << n_total)
            return real(amps, p, theta, n)

        monkeypatch.setattr(circuits_mod, "pauli_exp_inplace", recording)
        for seed in range(40):
            c = random_circuit(seed)
            n_total = c.n_qubits
            psi = StateVector(c.n_link_qubits, random_state(
                c.n_link_qubits, np.random.default_rng(100 + seed)))
            got, _ = run_circuit(c, psi)
            want = extend_with_ancillas(psi, c).amps
            reference_apply_gates(want, c.gates, n_total)
            assert np.array_equal(got.amps, want), seed
        assert any(sizes), "no gate ran on a block"

    @pytest.mark.parametrize("mixer", ["v-chain", "odd-chain", "x-", "Y"])
    @pytest.mark.parametrize("target", [0, 1])
    def test_superposed_ancilla_is_measured_at_its_reset(self, mixer,
                                                          target):
        # the ancilla starts known; the mixer leaves it in superposition,
        # so its re-check must fail and the reset must measure it
        rng = np.random.default_rng(7)
        n_links = 6
        c = Circuit(n_links)
        a = c.alloc_ancilla(1)
        h = c.alloc_ancilla(0)
        c.add(PauliExp(PauliString({h: "Y"}), 0.3))
        if mixer == "v-chain":
            mixing = v_chain(rng, n_links, a, 4)
        elif mixer == "odd-chain":    # product phase i**3 = -i
            mixing = v_chain(rng, n_links, a, 3)
        elif mixer == "x-":
            mixing = [ControlledPauliExp(a, "x-", PauliString({0: "Z"}), 0.4)]
        else:
            mixing = [PauliExp(PauliString({a: "Y"}), 0.6)]
        gates = mixing + [
            ControlledPauliExp(h, "z", PauliString({1: "X"}), 0.7),
            ResetAncilla(a, target),
            ControlledPauliExp(h, "z", PauliString({2: "X"}), -0.5),
            PauliExp(PauliString({3: "Y", 4: "Z"}), 0.9),
            Measure(a),
        ]
        for g in gates:
            c.add(g)
        for seed in range(6):
            psi = StateVector(n_links, random_state(
                n_links, np.random.default_rng(seed)))
            got, got_outcomes = run_circuit(
                c, psi, np.random.Generator(np.random.Philox(seed)))
            want = extend_with_ancillas(psi, c).amps
            want_outcomes = reference_apply_gates(
                want, c.gates, c.n_qubits,
                np.random.Generator(np.random.Philox(seed)))
            assert got_outcomes == want_outcomes
            assert np.max(np.abs(got.amps - want)) <= 1e-15

    def test_measure_counts(self, monkeypatch):
        # the Hadamard test of measure --nt 9 in the full space: the box
        # resets find the box ancilla spin-down and run no probability pass
        # (89 passes before), and the electric "z" groups on the Hadamard
        # control run on the 2**17 amplitudes of the box ancilla's
        # spin-down block (2**18 before)
        import z2wilson.circuits as circuits_mod

        passes, groups = [], []
        real_measure = circuits_mod._measure_bit
        real_group = circuits_mod._controlled_exps

        def counting_measure(*args):
            passes.append(1)
            return real_measure(*args)

        def recording_group(amps, control, basis, terms, n):
            groups.append((amps.size, control, basis, terms))
            return real_group(amps, control, basis, terms, n)

        monkeypatch.setattr(circuits_mod, "_measure_bit", counting_measure)
        monkeypatch.setattr(circuits_mod, "_controlled_exps",
                            recording_group)
        model = Z2Model(build_cross(), 10.0)
        sector = build_physical_sector(model)
        circuit, control = hadamard_test_circuit(model, staircase_default(), 9)
        run_circuit(circuit, embed_state(
            sector, sector_ground_state(model, sector)[1]))
        box = max(circuit.ancilla_init)
        assert circuit.ancilla_init[box] == 1
        assert sum(isinstance(g, ResetAncilla) for g in circuit.gates) == 89
        assert passes == []
        def electric(strings):
            return [p for p in strings
                    if p.weight == 1 and p.terms[0][1] == "X"]

        runs = [(size, electric(p for p, _ in terms))
                for size, c, basis, terms in groups
                if c == control and basis == "z"]
        runs = [(size, xs) for size, xs in runs if xs]
        n_x = len(electric(g.string for g in circuit.gates
                           if isinstance(g, ControlledPauliExp)))
        assert sum(len(xs) for _, xs in runs) == n_x == 320
        assert {size for size, _ in runs} == {1 << 17}


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
                c, embed_state(sector, coords),
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
        assert marginal_bit_probability(out, a, 1) == pytest.approx(1.0)
        blk = link_register_block(out, c, {a: 1})
        assert abs(abs(blk[1]) - 1) < 1e-12
