"""Trotter evolution, fidelities, the n_T sweep, and the power-law fit.

The single-plaquette lattice gives a 16-dimensional dense brute-force
oracle: the full Hamiltonian, its exact exponential, and the literal
Trotter factor product are all assembled from Kronecker products here and
compared against the package's sector machinery.
"""

import numpy as np
import pytest

from conftest import dense_pauli, expm_i_hermitian
from z2wilson.gauge import (Z2Model, build_physical_sector,
                            embed_sector_coords, exact_evolve_in_sector,
                            ground_state, project_to_sector,
                            spatial_loop_in_sector)
from z2wilson.lattice import build_rect
from z2wilson.programs import (FreeEvolve, LoopProgram, ProgramError, Spatial,
                               Temporal, staircase_default, validate_program)
from z2wilson.statevec import PauliString, StateVector
from z2wilson.trotter import (TrotterPlan, exact_loop_operator, fit_power_law,
                              operator_fidelity, report_to_csv,
                              state_fidelity, sweep, trotter_evolve,
                              trotter_strings, trotterized_loop_operator,
                              trotterized_loop_operator_fullspace)

# oracle-pinned regression values for the default staircase on the cross
GS_FIDELITY_NT9 = 0.97756196884951441
OP_FIDELITY_NT9 = 0.62950906994455225


def dense_h(lattice, lam, modified=frozenset()):
    n = lattice.n_links
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for li in range(n):
        sign = +1.0 if li in modified else -1.0
        h += sign * dense_pauli(PauliString({li: "X"}), n)
    for plaq in lattice.plaquettes:
        h -= lam * dense_pauli(PauliString({li: "Z" for li in plaq}), n)
    return h


class TestTrotterStrings:
    def test_plan_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            TrotterPlan(0, 1.0)

    def test_factor_structure(self, cross_model):
        gates = trotter_strings(cross_model, TrotterPlan(3, 1.0))
        L = cross_model.lattice.n_links
        P = cross_model.lattice.n_plaquettes
        assert len(gates) == 4 * L + 3 * P
        # first electric factor carries half angles
        assert all(th == pytest.approx(1.0 / 6) for _, th in gates[:L])

    def test_modified_link_sign_flip(self, cross_model):
        gates = trotter_strings(cross_model, TrotterPlan(2, 1.0),
                                modified_links={3})
        thetas = {next(iter(p.support)): th for p, th in gates[:16]}
        assert thetas[3] == -thetas[2]

    def test_factors_exact_rect11(self):
        # each Trotter factor equals its dense exponential: the only error
        # in the scheme is the electric/magnetic split
        lat = build_rect(1, 1)
        m = Z2Model(lat, 2.0)
        tau, n_T = 0.9, 3
        gates = trotter_strings(m, TrotterPlan(n_T, tau))
        n = lat.n_links
        u = np.eye(1 << n, dtype=complex)
        for string, theta in gates:
            u = expm_i_hermitian(theta * dense_pauli(string, n)) @ u
        h_el = dense_h(lat, 0.0)
        h_mag = dense_h(lat, m.lam) - h_el
        ref = np.eye(1 << n, dtype=complex)
        half = expm_i_hermitian(-(tau / (2 * n_T)) * h_el)
        mag = expm_i_hermitian(-(tau / n_T) * h_mag)
        for _ in range(n_T):
            ref = half @ mag @ half @ ref
        assert np.max(np.abs(u - ref)) < 1e-12


class TestTrotterEvolve:
    def test_lam0_exact_any_nt(self, cross_lattice):
        m = Z2Model(cross_lattice, 0.0)
        sec = build_physical_sector(m)
        rng = np.random.default_rng(1)
        c = rng.normal(size=32) + 1j * rng.normal(size=32)
        c /= np.linalg.norm(c)
        sv = StateVector(16, embed_sector_coords(sec, c))
        trotter_evolve(sv, m, 1.3, 1, {2, 5})
        exact = exact_evolve_in_sector(m, sec, 1.3, {2, 5})
        want = embed_sector_coords(sec, exact.matrix @ c)
        assert np.max(np.abs(sv.amps - want)) < 1e-12

    def test_single_plaquette_vs_dense_oracle(self):
        lat = build_rect(1, 1)
        m = Z2Model(lat, 10.0)
        sec = build_physical_sector(m)
        tau, n_T = 1.0, 16
        rng = np.random.default_rng(2)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        psi0 = embed_sector_coords(sec, c)
        sv = StateVector(4, psi0.copy())
        trotter_evolve(sv, m, tau, n_T)
        # dense literal product of the same factors
        h_el = dense_h(lat, 0.0)
        h_mag = dense_h(lat, m.lam) - h_el
        half = expm_i_hermitian(-(tau / (2 * n_T)) * h_el)
        mag = expm_i_hermitian(-(tau / n_T) * h_mag)
        ref = psi0.copy()
        for _ in range(n_T):
            ref = half @ (mag @ (half @ ref))
        assert np.max(np.abs(sv.amps - ref)) < 1e-11
        # and the exact-evolution fidelity is below 1 but converging
        exact = expm_i_hermitian(-tau * dense_h(lat, m.lam)) @ psi0
        fid = abs(np.vdot(exact, sv.amps))
        assert 0.99 < fid < 1.0

    def test_infidelity_ratio_sixteen(self):
        # doubling n_T divides the infidelity by ~2**4 in the asymptotic tail
        lat = build_rect(1, 1)
        m = Z2Model(lat, 10.0)
        sec = build_physical_sector(m)
        prog = LoopProgram([Temporal(1.0, frozenset())])
        w_ex = exact_loop_operator(m, sec, prog)
        inf = []
        for n_T in (64, 128):
            w = trotterized_loop_operator(m, sec, prog, n_T)
            inf.append(1 - operator_fidelity(w_ex, w))
        assert inf[0] / inf[1] == pytest.approx(16.0, rel=0.1)


class TestLoopOperators:
    def test_fast_equals_fullspace_gate_route(self, cross_model,
                                              cross_sector):
        prog = staircase_default()
        fast = trotterized_loop_operator(cross_model, cross_sector, prog, 3)
        slow = trotterized_loop_operator_fullspace(cross_model, cross_sector,
                                                   prog, 3)
        assert np.max(np.abs(fast.matrix - slow.matrix)) < 1e-12

    def test_spatial_program_is_involutory(self, cross_model, cross_sector):
        prog = LoopProgram([Spatial(cross_model.lattice.plaquettes[0])])
        w = exact_loop_operator(cross_model, cross_sector, prog)
        assert np.max(np.abs((w @ w).matrix - np.eye(32))) < 1e-14

    def test_two_half_steps_equal_one(self, cross_model, cross_sector):
        mods = frozenset({1, 2})
        one = exact_loop_operator(cross_model, cross_sector,
                                  LoopProgram([Temporal(1.0, mods)]))
        two = exact_loop_operator(cross_model, cross_sector,
                                  LoopProgram([Temporal(0.5, mods),
                                               Temporal(0.5, mods)]))
        assert np.max(np.abs(one.matrix - two.matrix)) < 1e-11

    def test_open_chain_intermediate_steps(self, cross_model, cross_sector):
        # R x T rectangle: out along an open 2-link chain, free evolution in
        # the charged sector, back along the same chain; the composed
        # operator must equal the modified evolution with both links flipped
        lat = cross_model.lattice
        plaq = lat.plaquettes[2]
        chain = plaq[:2]                  # bottom, right: open corner path
        tau = 0.7
        prog = LoopProgram([Spatial(chain), FreeEvolve(tau),
                            Spatial(tuple(reversed(chain)))])
        w = exact_loop_operator(cross_model, cross_sector, prog)
        assert w.unitarity_error() < 1e-11
        band = exact_evolve_in_sector(cross_model, cross_sector, tau,
                                      frozenset(chain))
        assert np.max(np.abs(w.matrix - band.matrix)) < 1e-11
        wt = trotterized_loop_operator(cross_model, cross_sector, prog, 64)
        assert operator_fidelity(w, wt) > 0.999

    def test_link_repeated_within_one_step_cancels(self, cross_model,
                                                    cross_sector):
        # the bottom plaquette then the center one as one closed walk; the
        # shared link 4 is traversed twice and cancels (sigma_3**2 = I)
        lat = cross_model.lattice
        bottom, center = lat.plaquettes[0], lat.plaquettes[2]
        walk = bottom + center
        assert walk == (0, 2, 4, 1, 4, 8, 11, 7)
        prog = LoopProgram([Spatial(walk)])
        assert validate_program(lat, prog) == []
        two = exact_loop_operator(cross_model, cross_sector,
                                  LoopProgram([Spatial(bottom),
                                               Spatial(center)])).matrix
        one = exact_loop_operator(cross_model, cross_sector, prog).matrix
        assert np.max(np.abs(one - two)) == 0.0
        direct = spatial_loop_in_sector(cross_sector, walk).matrix
        assert np.max(np.abs(direct - two)) == 0.0

    def test_invalid_program_rejected(self, cross_model, cross_sector):
        prog = LoopProgram([Spatial([0])])
        with pytest.raises(ProgramError):
            exact_loop_operator(cross_model, cross_sector, prog)

    def test_program_with_no_evolution_fidelity_one(self, cross_model,
                                                    cross_sector):
        prog = LoopProgram([Spatial(cross_model.lattice.plaquettes[1])])
        w_ex = exact_loop_operator(cross_model, cross_sector, prog)
        for n_T in (1, 7):
            w = trotterized_loop_operator(cross_model, cross_sector, prog,
                                          n_T)
            assert operator_fidelity(w_ex, w) == pytest.approx(1.0, abs=1e-12)


class TestFidelities:
    def test_self_fidelity(self, cross_model, cross_sector):
        w = exact_loop_operator(cross_model, cross_sector,
                                staircase_default())
        assert operator_fidelity(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self, cross_model, cross_sector):
        from z2wilson.gauge import SectorOperator
        w = exact_loop_operator(cross_model, cross_sector,
                                staircase_default())
        w2 = SectorOperator(np.exp(0.4j) * w.matrix)
        assert operator_fidelity(w, w2) == pytest.approx(1.0, abs=1e-12)

    def test_traceless_loop_gives_zero(self):
        m = Z2Model(build_rect(1, 1), 1.0)
        sec = build_physical_sector(m)
        from z2wilson.gauge import SectorOperator, spatial_loop_in_sector
        w_id = SectorOperator.identity(2)
        w_plq = spatial_loop_in_sector(sec, [0, 1, 2, 3])
        assert operator_fidelity(w_id, w_plq) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self, cross_model, cross_sector):
        from z2wilson.gauge import SectorOperator
        with pytest.raises(ValueError):
            operator_fidelity(SectorOperator.identity(2),
                              SectorOperator.identity(32))

    def test_state_fidelity_identical_ops(self, cross_model, cross_sector,
                                          cross_ground):
        _, gs = cross_ground
        coords = project_to_sector(cross_sector, gs.amps)
        w = exact_loop_operator(cross_model, cross_sector,
                                staircase_default())
        assert state_fidelity(coords, w, w) == pytest.approx(1.0, abs=1e-12)

    def test_state_fidelity_requires_normalized(self, cross_model,
                                                cross_sector):
        w = exact_loop_operator(cross_model, cross_sector,
                                staircase_default())
        with pytest.raises(ValueError):
            state_fidelity(np.ones(32), w, w)

    def test_pinned_nt9_values(self, cross_model, cross_sector, cross_ground):
        _, gs = cross_ground
        coords = project_to_sector(cross_sector, gs.amps)
        w_ex = exact_loop_operator(cross_model, cross_sector,
                                   staircase_default())
        w9 = trotterized_loop_operator(cross_model, cross_sector,
                                       staircase_default(), 9)
        assert state_fidelity(coords, w_ex, w9) == pytest.approx(
            GS_FIDELITY_NT9, abs=1e-10)
        assert operator_fidelity(w_ex, w9) == pytest.approx(
            OP_FIDELITY_NT9, abs=1e-10)


class TestFitPowerLaw:
    def test_exact_quartic(self):
        rows = [(n, float(n) ** -4) for n in (4, 8, 16, 32, 64)]
        fit = fit_power_law(rows)
        assert fit.exponent == pytest.approx(-4.0, abs=1e-12)
        assert fit.std_error < 1e-10
        assert fit.prefactor == pytest.approx(1.0, rel=1e-10)

    def test_prefactor(self):
        rows = [(n, 3.0 * n ** -2) for n in (2, 4, 8, 16)]
        fit = fit_power_law(rows)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-10)

    def test_floor_exclusion_warns(self):
        rows = [(2, 1e-2), (4, 1e-3), (8, 1e-4), (16, 1e-14)]
        with pytest.warns(UserWarning):
            fit = fit_power_law(rows)
        assert fit.exponent == pytest.approx(np.log(1e-4 / 1e-2)
                                             / np.log(8 / 2), rel=1e-6)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_power_law([(2, 0.1), (4, 0.01)])


class TestSweep:
    def test_lam0_all_ones(self, cross_lattice):
        m = Z2Model(cross_lattice, 0.0)
        sec = build_physical_sector(m)
        _, gs = ground_state(m, sec)
        rep = sweep(m, staircase_default(), gs, [1, 2, 4], sec)
        for _, fop, fgs in rep.rows:
            assert fop == pytest.approx(1.0, abs=1e-12)
            assert fgs == pytest.approx(1.0, abs=1e-12)

    def test_single_entry(self, cross_model, cross_sector, cross_ground):
        _, gs = cross_ground
        rep = sweep(cross_model, staircase_default(), gs, [9], cross_sector)
        assert len(rep.rows) == 1
        assert rep.rows[0][0] == 9
        assert rep.fit_op is None and rep.fit_gs is None

    def test_monotone_tail(self, cross_model, cross_sector, cross_ground):
        _, gs = cross_ground
        rep = sweep(cross_model, staircase_default(), gs,
                    [8, 16, 32, 64, 128], cross_sector)
        ops = [fop for _, fop, _ in rep.rows]
        gss = [fgs for _, _, fgs in rep.rows]
        assert all(b >= a for a, b in zip(ops[1:], ops[2:]))
        assert all(b >= a for a, b in zip(gss[1:], gss[2:]))

    def test_second_order_signature(self, cross_model, cross_sector,
                                    cross_ground):
        # infidelity * n_T**4 settles to a constant over the last decade
        _, gs = cross_ground
        rep = sweep(cross_model, staircase_default(), gs,
                    [16, 32, 64, 128], cross_sector)
        for series in ("op", "gs"):
            consts = [(1 - (fop if series == "op" else fgs)) * n ** 4
                      for n, fop, fgs in rep.rows[-3:]]
            for c in consts[1:]:
                assert c == pytest.approx(consts[0], rel=0.10)

    def test_rejects_non_increasing(self, cross_model, cross_sector,
                                    cross_ground):
        _, gs = cross_ground
        with pytest.raises(ValueError):
            sweep(cross_model, staircase_default(), gs, [8, 8], cross_sector)
        with pytest.raises(ValueError):
            sweep(cross_model, staircase_default(), gs, [], cross_sector)

    def test_csv_format(self, cross_model, cross_sector, cross_ground):
        _, gs = cross_ground
        rep = sweep(cross_model, staircase_default(), gs, [4, 8, 16],
                    cross_sector)
        text = report_to_csv(rep)
        lines = text.splitlines()
        assert lines[0] == "n_T,op_fidelity,gs_fidelity"
        assert len([l for l in lines if l.startswith("# fit")]) == 2
        n, fop, fgs = lines[1].split(",")
        assert int(n) == 4
        assert float(fop) == rep.rows[0][1]   # 17 digits round-trip
