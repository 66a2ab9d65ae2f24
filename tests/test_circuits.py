"""Circuit IR: executor semantics, ancilla handling, census, text export."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from z2wilson.circuits import (Circuit, CircuitError, ControlledPauliExp,
                               Measure, PauliExp, ResetAncilla, apply_gates,
                               circuit_stats, circuit_to_text,
                               extend_with_ancillas,
                               link_register_block, marginal_bit_probability,
                               run_circuit, star_commutation_report)
from z2wilson.lattice import build_cross
from z2wilson.programs import staircase_default
from z2wilson.statevec import (PauliString, StateVector, _scratch,
                               apply_controlled_pauli_exp, apply_pauli_exp,
                               init_basis)
from z2wilson.wilson import trotterized_program_circuit
from z2wilson.gauge import Z2Model


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

    def test_reset_flips_to_target(self):
        c = Circuit(1)
        c.add(ResetAncilla(0, 0))
        out, outcomes = run_circuit(c, init_basis(1, "1"))
        assert outcomes[0] == 1
        assert abs(out.amps[0] - 1) < 1e-12   # plain flip, no stray phase
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
        # scratch buffer is evicted and allocated again
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
        amps = random_state(n, np.random.default_rng(2))
        rng = np.random.Generator(np.random.Philox(3))
        apply_gates(amps, gates, n, rng)
        misses = _scratch.cache_info().misses
        tracemalloc.start()
        try:
            apply_gates(amps, gates, n, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < amps.nbytes
        assert _scratch.cache_info().misses == misses


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
