"""Wilson-loop builders: ancilla circuits, link transport, controlled loops.

Equivalence tests compare every circuit construction against the direct
operator route on random physical states; the hopping and closure
primitives are additionally checked against dense 8-dimensional
exponentials built from raw sigma^+/sigma^- matrices.
"""

import numpy as np
import pytest

from conftest import dense_pauli, expm_i_hermitian, random_state
from z2wilson.circuits import (Circuit, CircuitError, Measure,
                               circuit_stats, link_register_block,
                               run_circuit, star_commutation_report)
from z2wilson.gauge import (Z2Model, build_physical_sector, embed_state,
                            gauge_violation, project_to_sector)
from z2wilson.lattice import build_rect
from z2wilson.programs import (LoopProgram, ProgramError, Spatial, Temporal,
                               staircase_default)
from z2wilson.statevec import (PauliString, StateVector, apply_pauli_exp,
                               qubit_purity)
from z2wilson.trotter import (exact_loop_operator, trotter_evolve,
                              trotterized_loop_operator)
from z2wilson.wilson import (closure_strings,
                             conjugated_temporal_plaquette, controlled_loop,
                             hadamard_test, hop_strings, link_loop_circuit,
                             link_wilson_line, plaquette_exp_via_ancilla,
                             prepare_minus, prepare_plus,
                             rect_loop_link_circuit,
                             rect_loop_plaquette_circuit, rect_perimeter_links,
                             spatial_loop_direct, spatial_loop_via_ancilla,
                             temporal_plaquette_exact,
                             trotterized_program_circuit)


def random_physical_state(sector, rng):
    c = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    c /= np.linalg.norm(c)
    return embed_state(sector, c)


@pytest.fixture(scope="module")
def rect21():
    lat = build_rect(2, 1)
    model = Z2Model(lat, 3.0)
    sector = build_physical_sector(model)
    return lat, model, sector


class TestSpatialLoopDirect:
    def test_involutory(self, rect21):
        lat, _, sector = rect21
        rng = np.random.default_rng(0)
        psi = random_physical_state(sector, rng)
        ref = psi.copy()
        spatial_loop_direct(psi, lat.plaquettes[0])
        spatial_loop_direct(psi, lat.plaquettes[0])
        assert np.max(np.abs(psi.amps - ref.amps)) < 1e-13

    def test_norm_preserved_on_x_basis_state(self, rect21):
        lat, _, sector = rect21
        coords = np.zeros(sector.dim, dtype=complex)
        coords[1] = 1.0
        psi = embed_state(sector, coords)
        spatial_loop_direct(psi, lat.plaquettes[1])
        assert psi.norm_error() < 1e-13

    def test_deconfined_plaquette_expectation(self, cross_model, cross_sector,
                                              cross_ground):
        # lam = 10 is deep in the deconfined phase: <gs|plaq|gs> near 1
        _, gs = cross_ground
        psi = gs.copy()
        spatial_loop_direct(psi, cross_model.lattice.plaquettes[2])
        val = np.vdot(gs.amps, psi.amps).real
        assert val == pytest.approx(0.98901094973765091, abs=1e-10)
        assert val > 0.9

    def test_invalid_link(self, rect21):
        _, _, sector = rect21
        rng = np.random.default_rng(1)
        psi = random_physical_state(sector, rng)
        with pytest.raises(ValueError):
            spatial_loop_direct(psi, [99])


class TestSpatialLoopViaAncilla:
    def test_matches_direct_on_random_states(self, rect21):
        lat, _, sector = rect21
        rng = np.random.default_rng(2)
        for trial in range(20):
            links = lat.plaquettes[trial % 2]
            psi = random_physical_state(sector, rng)
            circ = Circuit(lat.n_links)
            a = circ.alloc_ancilla(0)
            prepare_minus(circ, a)
            spatial_loop_via_ancilla(circ, links, a)
            out, _ = run_circuit(circ, psi.copy())
            direct = psi.copy()
            spatial_loop_direct(direct, links)
            minus_blk = (link_register_block(out, circ, {a: 0})
                         - link_register_block(out, circ, {a: 1})) / np.sqrt(2)
            ov = np.vdot(direct.amps, minus_blk)
            assert abs(ov - 1) < 1e-12
            assert qubit_purity(out, a) > 1 - 1e-12

    def test_open_chain_and_odd_lengths(self, rect21):
        # phase compensation must hold for every length mod 4
        lat, _, sector = rect21
        rng = np.random.default_rng(3)
        chains = {1: [0], 2: [0, 2], 3: [0, 2, 5]}
        for n, chain in chains.items():
            psi = random_physical_state(sector, rng)
            circ = Circuit(lat.n_links)
            a = circ.alloc_ancilla(0)
            prepare_minus(circ, a)
            spatial_loop_via_ancilla(circ, chain, a)
            out, _ = run_circuit(circ, psi.copy())
            direct = psi.copy()
            spatial_loop_direct(direct, chain)
            minus_blk = (link_register_block(out, circ, {a: 0})
                         - link_register_block(out, circ, {a: 1})) / np.sqrt(2)
            assert abs(np.vdot(direct.amps, minus_blk) - 1) < 1e-12, n

    def test_plus_ancilla_leaves_links_alone(self, rect21):
        lat, _, sector = rect21
        rng = np.random.default_rng(4)
        psi = random_physical_state(sector, rng)
        circ = Circuit(lat.n_links)
        a = circ.alloc_ancilla(0)
        prepare_plus(circ, a)
        spatial_loop_via_ancilla(circ, lat.plaquettes[0], a)
        out, _ = run_circuit(circ, psi.copy())
        plus_blk = (link_register_block(out, circ, {a: 0})
                    + link_register_block(out, circ, {a: 1})) / np.sqrt(2)
        assert np.max(np.abs(plus_blk - psi.amps)) < 1e-12

    def test_empty_links_identity(self):
        circ = Circuit(4)
        a = circ.alloc_ancilla(0)
        spatial_loop_via_ancilla(circ, [], a)
        assert circ.gates == []

    def test_ancilla_in_link_register_rejected(self):
        circ = Circuit(4)
        with pytest.raises(CircuitError):
            spatial_loop_via_ancilla(circ, [0], 2)


class TestPlaquetteExpViaAncilla:
    def test_theta_zero_identity(self, rect21):
        lat, _, sector = rect21
        rng = np.random.default_rng(5)
        psi = random_physical_state(sector, rng)
        circ = Circuit(lat.n_links)
        a = circ.alloc_ancilla(1)
        plaquette_exp_via_ancilla(circ, lat, lat.plaquettes[0], 0.0, a)
        out, _ = run_circuit(circ, psi.copy())
        blk = link_register_block(out, circ, {a: 1})
        assert np.max(np.abs(blk - psi.amps)) < 1e-12

    def test_theta_pi_is_minus_identity(self, rect21):
        # P**2 = I so e^{i pi P} = cos(pi) + i sin(pi) P = -I exactly
        lat, _, sector = rect21
        rng = np.random.default_rng(6)
        psi = random_physical_state(sector, rng)
        circ = Circuit(lat.n_links)
        a = circ.alloc_ancilla(1)
        plaquette_exp_via_ancilla(circ, lat, lat.plaquettes[1], np.pi, a)
        out, _ = run_circuit(circ, psi.copy())
        blk = link_register_block(out, circ, {a: 1})
        assert np.max(np.abs(blk + psi.amps)) < 1e-12

    def test_random_theta_matches_direct_exponential(self, rect21):
        lat, _, sector = rect21
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = float(rng.uniform(-np.pi, np.pi))
            links = lat.plaquettes[int(rng.integers(2))]
            psi = random_physical_state(sector, rng)
            circ = Circuit(lat.n_links)
            a = circ.alloc_ancilla(1)
            plaquette_exp_via_ancilla(circ, lat, links, theta, a)
            out, _ = run_circuit(circ, psi.copy())
            direct = psi.copy()
            apply_pauli_exp(direct, PauliString({li: "Z" for li in links}),
                            theta)
            blk = link_register_block(out, circ, {a: 1})
            assert abs(np.vdot(direct.amps, blk) - 1) < 1e-12
            assert qubit_purity(out, a) > 1 - 1e-12

    def test_non_plaquette_rejected(self, rect21):
        lat, _, _ = rect21
        circ = Circuit(lat.n_links)
        a = circ.alloc_ancilla(1)
        with pytest.raises(CircuitError):
            plaquette_exp_via_ancilla(circ, lat, [0, 1, 2, 3], 0.3, a)


class TestTemporalPlaquette:
    def test_tau_zero_identity(self, cross_model, cross_sector):
        w = temporal_plaquette_exact(cross_model, cross_sector, 4, 0.0)
        assert np.max(np.abs(w.matrix - np.eye(32))) < 1e-14

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 3.0])
    def test_conjugation_identity_all_links(self, cross_lattice, lam, tau):
        model = Z2Model(cross_lattice, lam)
        sector = build_physical_sector(model)
        for link in range(cross_lattice.n_links):
            lhs = conjugated_temporal_plaquette(model, sector, link, tau)
            rhs = temporal_plaquette_exact(model, sector, link, tau)
            assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-11

    def test_lam0_closed_form(self, cross_lattice):
        # separable: e^{-i tau(-sum sigma1 + 2 sigma1(e))} in the X basis
        model = Z2Model(cross_lattice, 0.0)
        sector = build_physical_sector(model)
        tau, link = 0.67, 4
        w = temporal_plaquette_exact(model, sector, link, tau).matrix
        for k, mask in enumerate(sector.masks):
            phase = 1.0 + 0j
            for li in range(16):
                s = 1.0 - 2.0 * ((int(mask) >> li) & 1)
                coeff = +1.0 if li == link else -1.0
                phase *= np.exp(-1j * tau * coeff * s)
            assert abs(w[k, k] - phase) < 1e-12


class TestComposeLoop:
    """The staircase composed into its exact sector operator."""

    def test_staircase_expectation_pinned(self, cross_model, cross_sector,
                                          cross_ground):
        _, gs = cross_ground
        coords = project_to_sector(cross_sector, gs.amps)
        w = exact_loop_operator(cross_model, cross_sector, staircase_default())
        val = complex(np.vdot(coords, w.matrix @ coords))
        assert val == pytest.approx(-0.91967360257099173
                                    + 0.29782987864917987j, abs=1e-10)
        assert w.unitarity_error() < 1e-12


def dense_three_site(head_empty=True):
    """sigma^+/sigma^- oracle operators on (A, B, c) with A least significant."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|: raises to spin-up
    sm = sp.T.conj()
    return sp, sm


class TestHopPrimitive:
    def test_hop_strings_match_dense_exponential(self):
        # registers: src = 0, link = 1, dest = 2
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        sm = sp.T.conj()
        sz = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        def kron3(a, b, c):          # qubit 0 least significant
            return np.kron(np.kron(c, b), a)
        h_hop = kron3(sm, sz, sp) + kron3(sp, sz, sm)
        u_dense = expm_i_hermitian(-(np.pi / 2) * h_hop)
        u_strings = np.eye(8, dtype=complex)
        for string, theta in hop_strings(src=0, link=1, dest=2):
            u_strings = expm_i_hermitian(theta * dense_pauli(string, 3)) \
                @ u_strings
        assert np.max(np.abs(u_dense - u_strings)) < 1e-13

    def test_single_hop_transports_with_minus_i(self):
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        sm = sp.T.conj()
        sz = np.diag([1.0, -1.0]).astype(complex)
        def kron3(a, b, c):          # bit0 = src, bit1 = link, bit2 = dest
            return np.kron(np.kron(c, b), a)
        h_hop = kron3(sm, sz, sp) + kron3(sp, sz, sm)
        u = expm_i_hermitian(-(np.pi / 2) * h_hop)
        # input: src spin-up (bit 0), dest spin-down (bit 1), link = Z basis
        # state; expect the quark moved with a sigma_3 sign and phase -i
        for link_bit in (0, 1):
            idx_in = (1 << 2) | (link_bit << 1) | 0
            out = u[:, idx_in]
            idx_out = (0 << 2) | (link_bit << 1) | 1
            sign = 1.0 if link_bit == 0 else -1.0
            assert abs(out[idx_out] - (-1j) * sign) < 1e-13
            assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0)

    def test_empty_and_double_matter_inert(self):
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        sm = sp.T.conj()
        sz = np.diag([1.0, -1.0]).astype(complex)
        def kron3(a, b, c):
            return np.kron(np.kron(c, b), a)
        u = expm_i_hermitian(-(np.pi / 2) * (kron3(sm, sz, sp)
                                             + kron3(sp, sz, sm)))
        for matter_bits in ((0, 0), (1, 1)):    # both up or both down
            for link_bit in (0, 1):
                idx = (matter_bits[1] << 2) | (link_bit << 1) | matter_bits[0]
                col = u[:, idx]
                want = np.zeros(8, dtype=complex)
                want[idx] = 1.0
                assert np.max(np.abs(col - want)) < 1e-13


class TestLinkWilsonLine:
    def test_closed_plaquette_equals_direct_loop(self, rect21):
        lat, _, sector = rect21
        rng = np.random.default_rng(8)
        for pi in range(2):
            loop = lat.plaquettes[pi]
            psi = random_physical_state(sector, rng)
            circ = Circuit(lat.n_links)
            pos_map = link_wilson_line(circ, lat, loop)
            out, _ = run_circuit(circ, psi.copy())
            direct = psi.copy()
            spatial_loop_direct(direct, loop)
            # matter returns to initial pattern: head up, partner down
            m0, m1 = pos_map[0], pos_map[1]
            blk = link_register_block(out, circ, {m0: 0, m1: 1})
            ov = np.vdot(direct.amps, blk)
            assert abs(abs(ov) - 1) < 1e-12
            # logged phase: (-i)^4 = +1 for a 4-link loop
            assert abs(ov - circ.net_logged_phase()) < 1e-12

    def test_non_contiguous_path_rejected(self, rect21):
        lat, _, _ = rect21
        circ = Circuit(lat.n_links)
        with pytest.raises(ProgramError):
            link_wilson_line(circ, lat, [0, 6])


class TestLinkLoopClosure:
    def test_closure_matches_dense_exponential(self):
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        sm = sp.T.conj()
        def kron3(a, b, c):          # (head, tail, mediator), head least sig.
            return np.kron(np.kron(c, b), a)
        h_close = kron3(sm, sp, sp) + kron3(sp, sm, sm)
        u_dense = expm_i_hermitian(-(np.pi / 2) * h_close)
        u_strings = np.eye(8, dtype=complex)
        for string, theta in closure_strings(head=0, tail=1, mediator=2):
            u_strings = expm_i_hermitian(theta * dense_pauli(string, 3)) \
                @ u_strings
        assert np.max(np.abs(u_dense - u_strings)) < 1e-13

    def test_full_loop_deterministic_up(self, rect21):
        lat, model, sector = rect21
        rng = np.random.default_rng(9)
        psi = random_physical_state(sector, rng)
        circ = link_loop_circuit(lat, lat.plaquettes[0])
        out, outcomes = run_circuit(circ, psi.copy())
        measure_idx = next(i for i, g in enumerate(circ.gates)
                           if isinstance(g, Measure))
        assert outcomes[measure_idx] == 0      # spin-up, probability one

    def test_post_measurement_state_matches_plaquette_loop(self, rect21):
        lat, _, sector = rect21
        rng = np.random.default_rng(10)
        psi = random_physical_state(sector, rng)
        circ = link_loop_circuit(lat, lat.plaquettes[1])
        out, _ = run_circuit(circ, psi.copy())
        m0, m1, med = sorted(circ.ancilla_init)
        blk = link_register_block(out, circ, {m0: 1, m1: 0, med: 0})
        direct = psi.copy()
        spatial_loop_direct(direct, lat.plaquettes[1])
        assert abs(abs(np.vdot(direct.amps, blk)) - 1) < 1e-10

    def test_open_pattern_never_raises_mediator(self, rect21):
        # strand the quark after an odd number of hops: the head register is
        # empty, the closure hop must act as the identity and P(up) = 0
        lat, _, sector = rect21
        rng = np.random.default_rng(11)
        psi = random_physical_state(sector, rng)
        loop = lat.plaquettes[0]
        circ = Circuit(lat.n_links)
        m0 = circ.alloc_ancilla(0, role="matter")
        m1 = circ.alloc_ancilla(1, role="matter")
        med = circ.alloc_ancilla(1, role="mediator")
        pos_map = {p: (m0 if p % 2 == 0 else m1) for p in range(4)}
        link_wilson_line(circ, lat, loop[:3], matter_map=pos_map)
        from z2wilson.wilson import link_loop_closure
        link_loop_closure(circ, m0, m1, med)
        out, outcomes = run_circuit(circ, psi.copy())
        measure_idx = next(i for i, g in enumerate(circ.gates)
                           if isinstance(g, Measure))
        assert outcomes[measure_idx] == 1      # stays spin-down

    def test_odd_loop_rejected(self, rect21):
        lat, _, _ = rect21
        with pytest.raises(ProgramError):
            link_loop_circuit(lat, [0, 2])


class TestControlledLoop:
    def test_control_branches(self, rect21):
        lat, model, sector = rect21
        rng = np.random.default_rng(12)
        prog = LoopProgram([Spatial(lat.plaquettes[0]),
                            Temporal(0.8, {lat.plaquettes[0][1],
                                           lat.plaquettes[0][3]})])
        n_T = 2
        psi = random_physical_state(sector, rng)
        circ = Circuit(lat.n_links)
        ctrl = circ.alloc_ancilla(0)
        controlled_loop(circ, model, prog, ctrl, n_T)
        # control spin-down: identity on links
        down = psi.copy()
        circ_down = circ
        full_down, _ = run_circuit(circ_down, down)
        # ancilla starts spin-up by default; flip the init to spin-down
        circ2 = Circuit(lat.n_links)
        ctrl2 = circ2.alloc_ancilla(1)
        controlled_loop(circ2, model, prog, ctrl2, n_T)
        out_down, _ = run_circuit(circ2, psi.copy())
        blk = link_register_block(out_down, circ2,
                                  {q: b for q, b in
                                   circ2.ancilla_init.items()})
        assert np.max(np.abs(blk - psi.amps)) < 1e-12
        # control spin-up: equals the uncontrolled Trotterized program
        blk_up = link_register_block(full_down, circ,
                                     {q: (0 if q == ctrl else b) for q, b in
                                      circ.ancilla_init.items()})
        ref = psi.copy()
        plain = trotterized_program_circuit(model, prog, n_T)
        ref_out, _ = run_circuit(plain, ref)
        want = ref_out.amps[: 1 << lat.n_links]
        assert np.max(np.abs(blk_up - want)) < 1e-12

    def test_two_ancilla_box_equals_direct_controlled(self, rect21):
        # c-U-box via V sandwich vs the same gates controlled directly
        from z2wilson.circuits import ControlledPauliExp
        from z2wilson.trotter import TrotterPlan, trotter_strings
        lat, model, sector = rect21
        rng = np.random.default_rng(13)
        tau = 0.9 / model.lam
        psi = random_physical_state(sector, rng)
        prog = LoopProgram([Temporal(tau, frozenset())])
        circ = Circuit(lat.n_links)
        ctrl = circ.alloc_ancilla(0)
        prepare_plus(circ, ctrl)
        controlled_loop(circ, model, prog, ctrl, 1)
        out_a, _ = run_circuit(circ, psi.copy())
        circ_b = Circuit(lat.n_links)
        ctrl_b = circ_b.alloc_ancilla(0)
        prepare_plus(circ_b, ctrl_b)
        for string, th in trotter_strings(model, TrotterPlan(1, tau)):
            circ_b.add(ControlledPauliExp(ctrl_b, "z", string, th))
        out_b, _ = run_circuit(circ_b, psi.copy())
        # circ_a additionally parks the box ancilla spin-down
        box = next(q for q, r in circ.ancilla_roles.items() if r == "box")
        for bit in (0, 1):
            blk_a = link_register_block(out_a, circ, {ctrl: bit, box: 1})
            blk_b = link_register_block(out_b, circ_b, {ctrl_b: bit})
            assert np.max(np.abs(blk_a - blk_b)) < 1e-12


class TestHadamardTest:
    def test_identity_program_gives_one(self, rect21):
        lat, model, sector = rect21
        rng = np.random.default_rng(14)
        psi = random_physical_state(sector, rng)
        prog = LoopProgram([])
        assert hadamard_test(psi, model, prog, 1) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_minus_one_eigenstate_gives_zero(self):
        # plaquette loop on an X-basis sector state with eigenvalue -1
        lat = build_rect(1, 1)
        model = Z2Model(lat, 1.0)
        sector = build_physical_sector(model)
        # sector basis: {empty, full}: the plaquette swaps them, so the odd
        # combination (|0> - |1111...>)/sqrt2 has eigenvalue -1
        coords = np.array([1, -1], dtype=complex) / np.sqrt(2)
        psi = embed_state(sector, coords)
        prog = LoopProgram([Spatial(lat.plaquettes[0])])
        assert hadamard_test(psi, model, prog, 1) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_matches_sector_oracle(self, rect21):
        lat, model, sector = rect21
        rng = np.random.default_rng(15)
        psi = random_physical_state(sector, rng)
        prog = LoopProgram([Spatial(lat.plaquettes[0]),
                            Temporal(1.0, {lat.plaquettes[0][1],
                                           lat.plaquettes[0][3]})])
        n_T = 3
        p = hadamard_test(psi, model, prog, n_T)
        w = trotterized_loop_operator(model, sector, prog, n_T)
        coords = project_to_sector(sector, psi.amps)
        want = (2 + 2 * np.real(np.vdot(coords, w.matrix @ coords))) / 4
        assert p == pytest.approx(want, abs=1e-10)

    def test_sampled_mode_seeded(self, rect21):
        lat, model, sector = rect21
        rng = np.random.default_rng(16)
        psi = random_physical_state(sector, rng)
        prog = LoopProgram([Spatial(lat.plaquettes[0])])
        g1 = np.random.Generator(np.random.Philox(11))
        g2 = np.random.Generator(np.random.Philox(11))
        s1 = hadamard_test(psi, model, prog, 1, shots=500, rng=g1)
        s2 = hadamard_test(psi, model, prog, 1, shots=500, rng=g2)
        assert s1 == s2
        p = hadamard_test(psi, model, prog, 1)
        assert abs(s1 - p) <= 5 * np.sqrt(p * (1 - p) / 500) + 1e-9

    def test_zero_shots_rejected(self, rect21):
        lat, model, _ = rect21
        with pytest.raises(ValueError):
            hadamard_test(StateVector.zeros(lat.n_links), model,
                          LoopProgram([]), 1, shots=0)


class TestGaugeInvariance:
    def test_trotterized_program_preserves_gauss_law(self, cross_model,
                                                     cross_ground):
        _, gs = cross_ground
        psi = gs.copy()
        for step in staircase_default().steps:
            if isinstance(step, Spatial):
                spatial_loop_direct(psi, step.links)
            else:
                trotter_evolve(psi, cross_model, step.tau, 6,
                               step.modified_links)
        assert gauge_violation(psi, cross_model) < 1e-10

    def test_every_trotter_gate_commutes_with_stars(self, cross_model):
        lat = cross_model.lattice
        for n_T in (1, 5):
            circ = trotterized_program_circuit(cross_model,
                                               staircase_default(), n_T)
            checked, failures = star_commutation_report(circ, lat)
            assert checked > 0
            assert failures == []


class TestGateCountScaling:
    def test_quadratic_vs_linear(self):
        Ls, plaq_counts, link_counts = [], [], []
        for k in (1, 2, 3, 4):
            lat = build_rect(k, k)
            plaq_counts.append(
                circuit_stats(rect_loop_plaquette_circuit(lat, k, k))["total"])
            link_counts.append(
                circuit_stats(rect_loop_link_circuit(lat, k, k))["total"])
            Ls.append(4 * k)
        L = np.array(Ls, dtype=float)
        a_quad = np.vstack([L ** 2, L, np.ones_like(L)]).T
        coef, *_ = np.linalg.lstsq(a_quad, plaq_counts, rcond=None)
        assert coef[0] > 0
        resid = a_quad @ coef - plaq_counts
        assert np.max(np.abs(resid) / np.array(plaq_counts)) < 0.02
        a_lin = np.vstack([L, np.ones_like(L)]).T
        coef_l, *_ = np.linalg.lstsq(a_lin, link_counts, rcond=None)
        resid_l = a_lin @ coef_l - link_counts
        assert np.max(np.abs(resid_l) / np.array(link_counts)) < 0.02
        coef_q, *_ = np.linalg.lstsq(a_quad, link_counts, rcond=None)
        assert abs(coef_q[0]) < 1e-9 * coef_l[0]

    def test_perimeter_links_form_cycle(self):
        for k in (1, 2, 3):
            lat = build_rect(k, k)
            links = rect_perimeter_links(lat, k, k)
            assert len(links) == 4 * k
            deg = {}
            for li in links:
                for v in lat.links[li]:
                    deg[v] = deg.get(v, 0) + 1
            assert all(d == 2 for d in deg.values())

    def test_plaquette_composition_equals_perimeter_loop(self):
        # interior links cancel: product over all cells = boundary loop
        lat = build_rect(2, 2)
        model = Z2Model(lat, 1.0)
        sector = build_physical_sector(model)
        rng = np.random.default_rng(17)
        psi = random_physical_state(sector, rng)
        circ = rect_loop_plaquette_circuit(lat, 2, 2)
        out, _ = run_circuit(circ, psi.copy())
        a = next(iter(circ.ancilla_init))
        blk = link_register_block(out, circ, {a: 0})
        direct = psi.copy()
        spatial_loop_direct(direct, rect_perimeter_links(lat, 2, 2))
        assert abs(abs(np.vdot(direct.amps, blk)) - 1) < 1e-11
