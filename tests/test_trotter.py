"""Trotter evolution, fidelities, the n_T sweep, and the power-law fit.

The single-plaquette lattice gives a 16-dimensional dense brute-force
oracle: the full Hamiltonian, its exact exponential, and the literal
Trotter factor product are all assembled from Kronecker products here and
compared against the package's sector machinery.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (bit_identical, dense_pauli, expm_i_hermitian,
                      gather_loop_operator, one_plaquette, outcome)
import z2wilson.gauge as gauge_mod
from z2wilson.gauge import (ConvergenceError, GaugeError, SectorMoves,
                            Z2Model, _link_mask, build_physical_sector,
                            embed_sector_coords, evolve_vector,
                            exact_evolve_in_sector, ground_state,
                            moved_charges, project_to_sector,
                            sector_ground_state, spatial_loop_in_sector,
                            spectral_bound, unitarity_error)
from z2wilson.lattice import (build_cross, build_rect, lattice_from_text,
                              lattice_to_text, validate)
from z2wilson.programs import (LoopProgram, ProgramError, Spatial, Temporal,
                               program_from_text, staircase_default,
                               validate_program)
from z2wilson.statevec import (PauliString, StateVector, trotter_evolve,
                               trotterized_loop_operator_fullspace)
from z2wilson.trotter import (FidelityReport, exact_loop_operator,
                              exact_loop_vector, fit_power_law,
                              operator_fidelity, report_to_csv,
                              state_fidelity, sweep,
                              trotterized_loop_operator,
                              trotterized_loop_vector)
from z2wilson.wilson import trotter_strings

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
    def test_plan_rejects_zero_steps(self, cross_model):
        with pytest.raises(ValueError):
            trotter_strings(cross_model, 0, 1.0)

    def test_factor_structure(self, cross_model):
        gates = trotter_strings(cross_model, 3, 1.0)
        L = cross_model.lattice.n_links
        P = cross_model.lattice.n_plaquettes
        assert len(gates) == 4 * L + 3 * P
        # first electric factor carries half angles
        assert all(th == pytest.approx(1.0 / 6) for _, th in gates[:L])

    def test_modified_link_sign_flip(self, cross_model):
        gates = trotter_strings(cross_model, 2, 1.0,
                                modified_links={3})
        thetas = {next(iter(p.support)): th for p, th in gates[:16]}
        assert thetas[3] == -thetas[2]

    def test_factors_exact_rect11(self):
        # each Trotter factor equals its dense exponential: the only error
        # in the scheme is the electric/magnetic split
        lat = build_rect(1, 1)
        m = Z2Model(lat, 2.0)
        tau, n_T = 0.9, 3
        gates = trotter_strings(m, n_T, tau)
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
        want = embed_sector_coords(sec, exact @ c)
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
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_spatial_program_is_involutory(self, cross_model, cross_sector):
        prog = LoopProgram([Spatial(cross_model.lattice.plaquettes[0])])
        w = exact_loop_operator(cross_model, cross_sector, prog)
        assert np.max(np.abs(w @ w - np.eye(32))) < 1e-14

    def test_two_half_steps_equal_one(self, cross_model, cross_sector):
        mods = frozenset({1, 2})
        one = exact_loop_operator(cross_model, cross_sector,
                                  LoopProgram([Temporal(1.0, mods)]))
        two = exact_loop_operator(cross_model, cross_sector,
                                  LoopProgram([Temporal(0.5, mods),
                                               Temporal(0.5, mods)]))
        assert np.max(np.abs(one - two)) < 1e-11

    def test_open_chain_intermediate_steps(self, cross_model, cross_sector):
        # R x T rectangle: out along an open 2-link chain, free evolution in
        # the charged sector, back along the same chain; the composed
        # operator must equal the modified evolution with both links flipped
        lat = cross_model.lattice
        plaq = lat.plaquettes[2]
        chain = plaq[:2]                  # bottom, right: open corner path
        tau = 0.7
        prog = LoopProgram([Spatial(chain), Temporal(tau, ()),
                            Spatial(tuple(reversed(chain)))])
        w = exact_loop_operator(cross_model, cross_sector, prog)
        assert unitarity_error(w) < 1e-11
        band = exact_evolve_in_sector(cross_model, cross_sector, tau,
                                      frozenset(chain))
        assert np.max(np.abs(w - band)) < 1e-11
        wt = trotterized_loop_operator(cross_model, cross_sector, prog, 64)
        assert operator_fidelity(w, wt) > 0.999

    def test_link_repeated_within_one_step_cancels(self, cross_model,
                                                    cross_sector):
        # the bottom plaquette from its top-left corner, then the center
        # one from the same corner, as one closed walk; the shared link 4
        # is traversed twice and cancels (sigma_3**2 = I)
        lat = cross_model.lattice
        bottom, center = lat.plaquettes[0], lat.plaquettes[2]
        walk = bottom[3:] + bottom[:3] + center
        assert walk == (1, 0, 2, 4, 4, 8, 11, 7)
        prog = LoopProgram([Spatial(walk)])
        assert validate_program(lat, prog) == []
        two = exact_loop_operator(cross_model, cross_sector,
                                  LoopProgram([Spatial(bottom),
                                               Spatial(center)]))
        one = exact_loop_operator(cross_model, cross_sector, prog)
        assert np.max(np.abs(one - two)) == 0.0
        direct = spatial_loop_in_sector(cross_sector, walk)
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


# the vector oracles' inputs: the cross's staircase and an open chain,
# whose band runs in a charged sector; a plaquette of rect:4x2; a two-band
# staircase and an open chain on rect:3x3
VECTOR_PROGRAMS = {
    "cross-staircase": ("cross", None),
    "cross-chain": ("cross", "SPATIAL 4 8\nTEMPORAL 0.7 4 8\nSPATIAL 8 4\n"),
    "rect4x2": ("rect:4x2", "SPATIAL 1 6 10 5\nTEMPORAL 0.5 5 6\n"),
    "rect3x3-staircase": ("rect:3x3", "SPATIAL 8 12 15 11\n"
                          "TEMPORAL 0.5 11 12\nSPATIAL 1 5 8 4\n"
                          "TEMPORAL 0.4 4 5\n"),
    "rect3x3-chain": ("rect:3x3",
                      "SPATIAL 8 12\nTEMPORAL 0.6 8 12\nSPATIAL 12 8\n"),
}


def vector_case(spec, text, lam):
    """Model, sector, program and real ground state of one input."""
    lat = (build_cross() if spec == "cross"
           else build_rect(*map(int, spec[5:].split("x"))))
    model = Z2Model(lat, lam)
    sector = build_physical_sector(model)
    program = staircase_default() if text is None else program_from_text(text)
    return model, sector, program, sector_ground_state(model, sector)[1]


def max_diff(a, b):
    return float(np.max(np.abs(a - b)))


class TestVectorOracles:
    """W psi and W_nT psi without W or W_nT: the walk started from psi,
    each exact step a Krylov exponential.  The dense operators applied to
    psi are the oracle; psi is real, so an exponential run backwards in
    time would give the complex conjugate, with the same real part."""

    @pytest.mark.parametrize("lam", [2.0, 10.0])
    @pytest.mark.parametrize("name", sorted(VECTOR_PROGRAMS))
    def test_match_the_dense_operators(self, name, lam):
        model, sector, program, psi = vector_case(*VECTOR_PROGRAMS[name], lam)
        exact = exact_loop_operator(model, sector, program) @ psi
        assert max_diff(exact_loop_vector(model, sector, program, psi),
                        exact) <= 1e-13
        for n_T in (2, 9):
            trot = trotterized_loop_operator(model, sector, program, n_T) @ psi
            assert max_diff(trotterized_loop_vector(
                model, sector, program, n_T, psi), trot) <= 1e-13

    def test_long_step_runs_in_substeps(self):
        # tau * spectral_bound = 3 * (24 + 10 * 9) = 342 on rect:3x3: three
        # substeps, each converged on its own
        model, sector, program, psi = vector_case(
            "rect:3x3", "SPATIAL 8 12 15 11\nTEMPORAL 3.0 11 12\n", 10.0)
        assert gauge_mod._substeps(model, sector.dim, 3.0) == 3
        exact = exact_loop_operator(model, sector, program) @ psi
        assert max_diff(exact_loop_vector(model, sector, program, psi),
                        exact) <= 1e-13

    @pytest.mark.parametrize("tau", [0.8, -1.3])
    def test_complex_start(self, tau):
        # Re v and Im v are the two start vectors of one block basis
        model = Z2Model(build_rect(4, 2), 10.0)
        sector = build_physical_sector(model)
        rng = np.random.default_rng(7)
        v = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
        v /= np.linalg.norm(v)
        got = evolve_vector(model, sector, tau, {5, 6}, v)
        want = exact_evolve_in_sector(model, sector, tau, {5, 6}) @ v
        assert max_diff(got, want) <= 1e-13

    def test_zero_vector_evolves_to_exact_zeros(self):
        model = Z2Model(build_rect(4, 2), 10.0)
        sector = build_physical_sector(model)
        got = evolve_vector(model, sector, 0.8, {5, 6},
                            np.zeros(sector.dim, dtype=np.complex128))
        assert got.shape == (sector.dim,) and not got.any()

    def test_parallel_real_and_imaginary_parts(self, monkeypatch):
        # v = e^{i phi} psi: Re v and Im v are parallel, so the block keeps
        # one start vector, and start 1 has no basis vector of its own
        model = Z2Model(build_rect(4, 2), 10.0)
        sector = build_physical_sector(model)
        v = np.exp(0.7j) * sector_ground_state(model, sector)[1]
        lanczos, own = gauge_mod._lanczos, []

        def spy(apply_h, starts, tol):
            for basis, eig, below, r in lanczos(apply_h, starts, tol):
                own.append(r[1, 1])
                yield basis, eig, below, r

        monkeypatch.setattr(gauge_mod, "_lanczos", spy)
        got = evolve_vector(model, sector, 0.8, {5, 6}, v)
        want = exact_evolve_in_sector(model, sector, 0.8, {5, 6}) @ v
        assert own and not any(own)
        assert max_diff(got, want) <= 1e-13

    def test_small_sector_split_no_finer_than_its_basis(self):
        # dim 32 <= the basis size: one substep at any phase, whose basis
        # spans the sector
        model = Z2Model(build_cross(), 10.0)
        sector = build_physical_sector(model)
        assert gauge_mod._substeps(model, sector.dim, 1e306) == 1
        v = sector_ground_state(model, sector)[1]
        got = evolve_vector(model, sector, 50.0, {1, 3}, v)
        want = exact_evolve_in_sector(model, sector, 50.0, {1, 3}) @ v
        assert max_diff(got, want) <= 1e-11

    def test_too_many_substeps_refused_before_any_work(self, monkeypatch):
        model = Z2Model(build_rect(4, 3), 10.0)      # dim 4096
        sector = build_physical_sector(model)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        monkeypatch.setattr(gauge_mod, "electric_diag", refuse)
        tau = 1025 * gauge_mod._EXPM_PHASE / spectral_bound(model)
        with pytest.raises(GaugeError, match="needs 1025 Krylov substeps in "
                           "a sector of dimension 4096; the limit is 1024"):
            evolve_vector(model, sector, tau, set(), np.ones(sector.dim))

    def test_unconverged_exponential_raises(self, monkeypatch):
        model = Z2Model(build_rect(4, 2), 10.0)
        sector = build_physical_sector(model)
        monkeypatch.setattr(gauge_mod, "_KRYLOV_COLS", 16)
        with pytest.raises(ConvergenceError, match="Krylov exponential not "
                           "converged in 16 basis vectors"):
            evolve_vector(model, sector, 0.5, set(), np.ones(sector.dim))


def cross_with_repeated_plaquette():
    """The cross read from a lattice file that lists its center plaquette
    twice, the second time from another corner: six plaquettes, of which
    two are the same term."""
    lat = build_cross()
    text = lattice_to_text(lat).replace("p=5", "p=6")
    center = lat.plaquettes[2]
    text += "PLAQ 5 " + " ".join(str(li) for li in center[2:] + center[:2])
    out = lattice_from_text(text + "\n")
    assert validate(out) == [] and out.n_plaquettes == 6
    return out


class TestCycleCoordinates:
    """A sector's sorted rows are its cycle coordinates, where each
    plaquette is a reversed view; the sector Trotter loop runs there and
    must give the gather's bits."""

    @pytest.mark.parametrize("charged", [False, True])
    def test_plaquettes_are_index_flips(self, cross_model, charged):
        lat = cross_model.lattice
        charges = None
        if charged:
            charges = moved_charges(lat, (1,) * lat.n_vertices,
                                    _link_mask(lat.plaquettes[2][:2]))
        sec = build_physical_sector(cross_model, charges)
        lin = sec.masks
        idx = np.arange(sec.dim)
        # row i is masks[0] ^ XOR_j (bit j of i) (masks[2**j] ^ masks[0])
        span = np.full(sec.dim, lin[0])
        for j in range(sec.dim.bit_length() - 1):
            span[idx >> j & 1 == 1] ^= lin[1 << j] ^ lin[0]
        assert np.array_equal(span, lin)
        moves = SectorMoves(cross_model, sec)
        for plaq in lat.plaquettes:
            m = np.uint64(_link_mask(plaq))
            flip = int(np.flatnonzero(lin == lin[0] ^ m)[0])
            assert np.array_equal(lin[idx ^ flip], lin ^ m)
            dst, k = moves.flip(sec, int(m))
            assert dst is sec and k == flip

    @pytest.mark.parametrize("lam", [2.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("tau", [0.5, 1.0])
    def test_sweep_inputs_bit_identical_to_gather(self, cross_lattice, lam,
                                                  tau):
        model = Z2Model(cross_lattice, lam)
        sector = build_physical_sector(model)
        prog = staircase_default(tau)
        for n_T in (8, 1024):
            w = trotterized_loop_operator(model, sector, prog, n_T)
            assert bit_identical(
                w, gather_loop_operator(model, sector, prog, n_T))

    def test_rect11_bit_identical_to_gather(self):
        # one plaquette, a two-state sector: the cube has a single axis
        lat = build_rect(1, 1)
        model = Z2Model(lat, 1.3)
        sector = build_physical_sector(model)
        plaq = lat.plaquettes[0]
        prog = LoopProgram([Spatial(plaq[:2]), Temporal(0.7, plaq[:2]),
                            Spatial(plaq[2:]), Temporal(0.4, ())])
        for n_T in (1, 3):
            w = trotterized_loop_operator(model, sector, prog, n_T)
            assert bit_identical(
                w, gather_loop_operator(model, sector, prog, n_T))

    def test_repeated_plaquette_bit_identical_to_gather(self):
        lat = cross_with_repeated_plaquette()
        model = Z2Model(lat, 4.0)
        sector = build_physical_sector(model)
        lin = sector.masks
        flips = [int(np.flatnonzero(lin == lin[0] ^ np.uint64(
                 _link_mask(p)))[0]) for p in lat.plaquettes]
        assert flips[5] == flips[2]
        assert max(f.bit_count() for f in flips) > 1   # multi-axis views
        prog = staircase_default(0.8)
        for n_T in (1, 5):
            w = trotterized_loop_operator(model, sector, prog, n_T)
            assert bit_identical(
                w, gather_loop_operator(model, sector, prog, n_T))

    def test_peak_memory_independent_of_n_t(self):
        # rect:3x3: dim 512, a 4 MB matrix.  The loop holds the matrix and
        # one scratch copy (2.04 matrices); the gather form peaked at 3.01
        lat = build_rect(3, 3)
        model = Z2Model(lat, 2.0)
        sector = build_physical_sector(model)
        plaq = lat.plaquettes[4]
        prog = LoopProgram([Spatial(plaq), Temporal(0.5, plaq),
                            Spatial(plaq), Temporal(0.3, ())])
        matrix_bytes = sector.dim ** 2 * 16
        for n_T in (1, 6):
            tracemalloc.start()
            try:
                trotterized_loop_operator(model, sector, prog, n_T)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * matrix_bytes, (n_T, peak / matrix_bytes)


class TestFidelities:
    def test_self_fidelity(self, cross_model, cross_sector):
        w = exact_loop_operator(cross_model, cross_sector,
                                staircase_default())
        assert operator_fidelity(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self, cross_model, cross_sector):
        w = exact_loop_operator(cross_model, cross_sector,
                                staircase_default())
        w2 = np.exp(0.4j) * w
        assert operator_fidelity(w, w2) == pytest.approx(1.0, abs=1e-12)

    def test_traceless_loop_gives_zero(self):
        m = Z2Model(build_rect(1, 1), 1.0)
        sec = build_physical_sector(m)
        w_id = np.eye(2, dtype=complex)
        w_plq = spatial_loop_in_sector(sec, [0, 1, 2, 3])
        assert operator_fidelity(w_id, w_plq) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self, cross_model, cross_sector):
        with pytest.raises(ValueError):
            operator_fidelity(np.eye(2, dtype=complex),
                              np.eye(32, dtype=complex))

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

    def test_floor_is_1e_13(self):
        # a row between 1e-13 and 1e-11 is kept (without it fewer than
        # three rows remain); the row at exactly 1e-13 is dropped, alone
        # among the rows with a warning
        rows = [(10, 1e-4), (100, 1e-8), (1000, 1e-12), (10000, 1e-13)]
        with pytest.warns(UserWarning) as caught:
            fit = fit_power_law(rows)
        assert [str(w.message) for w in caught] == [
            "infidelity 1.000e-13 at n_T=10000 is below the numerical floor "
            "1e-13; row excluded from fit"]
        assert fit.exponent == pytest.approx(-4.0, abs=1e-9)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-8)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_power_law([(2, 0.1), (4, 0.01)])


class TestSweep:
    def test_lam0_all_ones(self, cross_lattice):
        m = Z2Model(cross_lattice, 0.0)
        sec = build_physical_sector(m)
        _, gs = ground_state(m, sec)
        rep = sweep(m, staircase_default(), project_to_sector(sec, gs),
                    [1, 2, 4], sec)
        for _, fop, fgs in rep.rows:
            assert fop == pytest.approx(1.0, abs=1e-12)
            assert fgs == pytest.approx(1.0, abs=1e-12)

    def test_single_entry(self, cross_model, cross_sector, cross_coords):
        rep = sweep(cross_model, staircase_default(), cross_coords, [9],
                    cross_sector)
        assert len(rep.rows) == 1
        assert rep.rows[0][0] == 9
        assert rep.fit_op is None and rep.fit_gs is None

    def test_monotone_tail(self, cross_model, cross_sector, cross_coords):
        rep = sweep(cross_model, staircase_default(), cross_coords,
                    [8, 16, 32, 64, 128], cross_sector)
        ops = [fop for _, fop, _ in rep.rows]
        gss = [fgs for _, _, fgs in rep.rows]
        assert all(b >= a for a, b in zip(ops[1:], ops[2:]))
        assert all(b >= a for a, b in zip(gss[1:], gss[2:]))

    def test_second_order_signature(self, cross_model, cross_sector,
                                    cross_coords):
        # infidelity * n_T**4 settles to a constant over the last decade
        rep = sweep(cross_model, staircase_default(), cross_coords,
                    [16, 32, 64, 128], cross_sector)
        for series in ("op", "gs"):
            consts = [(1 - (fop if series == "op" else fgs)) * n ** 4
                      for n, fop, fgs in rep.rows[-3:]]
            for c in consts[1:]:
                assert c == pytest.approx(consts[0], rel=0.10)

    def test_rejects_non_increasing(self, cross_model, cross_sector,
                                    cross_coords):
        with pytest.raises(ValueError):
            sweep(cross_model, staircase_default(), cross_coords, [8, 8],
                  cross_sector)
        with pytest.raises(ValueError):
            sweep(cross_model, staircase_default(), cross_coords, [],
                  cross_sector)

    def test_rows_above_their_bound_refused(self, cross_model, cross_sector,
                                            cross_coords):
        # the bound is sqrt(1 + d eps_W) sqrt(1 + d eps_nT) per row
        rep = sweep(cross_model, staircase_default(), cross_coords, [8, 16],
                    cross_sector)
        bound = rep.fidelity_bound(1)
        assert bound == np.sqrt(1 + 32 * rep.exact_unitarity_error) * np.sqrt(
            1 + 32 * rep.unitarity_errors[1])
        assert 1 < bound < 1 + 1e-12
        for excess in (bound + 1e-13, 1.5, float("nan")):
            for row in ((16, excess, 1.0), (16, 1.0, excess)):
                with pytest.raises(ValueError, match="fidelity outside"):
                    dataclasses.replace(rep, rows=(rep.rows[0], row))
        # a larger measured error admits the same row
        loose = dataclasses.replace(
            rep, rows=(rep.rows[0], (16, 1 + 1e-9, 1.0)),
            unitarity_errors=(0.0, 1e-10))
        assert loose.fidelity_bound(1) > 1 + 1e-9
        with pytest.raises(ValueError, match="one unitarity error per"):
            dataclasses.replace(rep, unitarity_errors=())

    def test_csv_format(self, cross_model, cross_sector, cross_coords):
        rep = sweep(cross_model, staircase_default(), cross_coords, [4, 8, 16],
                    cross_sector)
        text = report_to_csv(rep)
        lines = text.splitlines()
        assert lines[0] == "n_T,op_fidelity,gs_fidelity"
        assert len([l for l in lines if l.startswith("# fit")]) == 2
        n, fop, fgs = lines[1].split(",")
        assert int(n) == 4
        assert float(fop) == rep.rows[0][1]   # 17 digits round-trip


def _sweep_unnormalised():
    model, sector = one_plaquette()
    program = LoopProgram([Spatial(model.lattice.plaquettes[0])])
    return sweep(model, program, np.array([2.0, 0.0], dtype=complex), [8],
                 sector)


@pytest.mark.parametrize("call, expected", [
    (lambda: FidelityReport(((16, 1.0, 1.0), (8, 1.0, 1.0)), None, None,
                            (0.0, 0.0), 0.0, 1),
     "ValueError: report rows must be sorted by n_T"),
    (_sweep_unnormalised,
     "ValueError: psi is not a normalized physical-sector state"),
], ids=["report-unsorted", "sweep-unnormalised"])
def test_input_check(call, expected):
    assert outcome(call) == expected
