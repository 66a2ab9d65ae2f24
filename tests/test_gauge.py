"""Z(2) model: stars, physical sector, Hamiltonians, evolution, ground state.

The pinned lambda=10 cross ground energy is regression-locked against an
independent full-space power iteration (2**16 matvecs assembled from raw
bit operations, never through the sector machinery).
"""

import tracemalloc

import numpy as np
import pytest

from conftest import dense_pauli, expm_i_hermitian
from z2wilson.gauge import (DegenerateGroundStateWarning, GaugeError, Z2Model,
                            build_physical_sector, embed_sector_coords,
                            embed_state, exact_evolve_in_sector,
                            gauge_violation, ground_state,
                            hamiltonian_in_sector, project_to_sector,
                            sector_basis_dump, sector_gauge_violation,
                            sector_ground_state, sector_spectrum,
                            spatial_loop_in_sector, star_operator, xor_perm)
from z2wilson.lattice import build_cross, build_rect
from z2wilson.statevec import PauliString, StateVector, expect_pauli

CROSS_GROUND_ENERGY_LAM10 = -51.917375245849549   # pinned by the oracle below


def full_space_h_apply(lattice, lam):
    """Independent H matvec in the computational basis from raw bit ops."""
    L = lattice.n_links
    idx = np.arange(1 << L, dtype=np.uint64)
    mag = np.zeros(1 << L)
    for plaq in lattice.plaquettes:
        pmask = np.uint64(sum(1 << li for li in plaq))
        mag -= lam * (1.0 - 2.0 * ((np.bitwise_count(idx & pmask) & 1)
                                   .astype(float)))
    perms = [(idx ^ np.uint64(1 << li)).astype(np.intp) for li in range(L)]

    def apply(v):
        out = mag * v
        for perm in perms:
            out = out - v[perm]
        return out

    return apply


class TestStarOperator:
    def test_interior_weight_four(self):
        lat = build_rect(2, 2)
        m = Z2Model(lat, 1.0)
        interior = next(v for v in range(lat.n_vertices)
                        if len(lat.star(v)) == 4)
        assert star_operator(m, interior).weight == 4

    def test_corner_weight_two(self):
        lat = build_rect(1, 1)
        m = Z2Model(lat, 1.0)
        assert star_operator(m, 0).weight == 2

    def test_product_of_all_stars_is_identity(self):
        for lat in (build_cross(), build_rect(3, 2)):
            m = Z2Model(lat, 1.0)
            prod = PauliString({})
            for v in range(lat.n_vertices):
                prod = prod * star_operator(m, v)
            assert prod.is_identity()

    def test_invalid_vertex(self):
        m = Z2Model(build_rect(1, 1), 1.0)
        with pytest.raises(IndexError):
            star_operator(m, 99)


class TestPhysicalSector:
    def test_cross_dim_32(self, cross_sector):
        assert cross_sector.dim == 32

    def test_rect11_dim_2(self):
        sec = build_physical_sector(Z2Model(build_rect(1, 1), 1.0))
        assert sec.dim == 2

    @pytest.mark.parametrize("charged", [False, True],
                             ids=["neutral", "charged"])
    @pytest.mark.parametrize("lattice", [
        "cross", "rect:1x1", "rect:2x1", "rect:2x2", "rect:3x2"])
    def test_masks_match_brute_force(self, lattice, charged):
        lat = (build_cross() if lattice == "cross"
               else build_rect(*(int(n) for n in lattice[5:].split("x"))))
        charges = [1] * lat.n_vertices
        if charged:
            a, b = lat.links[0]
            charges[a] = charges[b] = -1
        sec = build_physical_sector(Z2Model(lat, 1.0), charges)
        assert sec.dim == 2 ** (lat.n_links - lat.n_vertices + 1)
        # brute force: every X-configuration against the star parities
        stars = [sum(1 << li for li in lat.star(v))
                 for v in range(lat.n_vertices)]
        want = [0 if q == 1 else 1 for q in charges]
        masks = [m for m in range(1 << lat.n_links)
                 if all(bin(m & s).count("1") % 2 == w
                        for s, w in zip(stars, want))]
        assert [int(x) for x in sec.masks] == masks

    def test_every_basis_state_satisfies_stars(self, cross_model,
                                               cross_sector):
        for k in range(cross_sector.dim):
            coords = np.zeros(cross_sector.dim, dtype=complex)
            coords[k] = 1.0
            sv = StateVector(16, embed_sector_coords(cross_sector, coords))
            for v in range(cross_model.lattice.n_vertices):
                val = expect_pauli(sv, star_operator(cross_model, v))
                assert abs(val - 1) < 1e-12

    def test_charged_sector_dim(self, cross_model):
        lat = cross_model.lattice
        a, b = lat.links[0]
        charges = [1] * lat.n_vertices
        charges[a] = charges[b] = -1
        sec = build_physical_sector(cross_model, charges)
        assert sec.dim == 32
        assert not sec.is_physical()

    def test_odd_charge_pattern_rejected(self, cross_model):
        charges = [1] * cross_model.lattice.n_vertices
        charges[0] = -1
        with pytest.raises(GaugeError):
            build_physical_sector(cross_model, charges)

    def test_basis_dump_format(self, cross_sector):
        lines = sector_basis_dump(cross_sector).splitlines()
        assert len(lines) == 32
        assert lines[0] == "BASIS 0 0"
        for k, line in enumerate(lines):
            kind, num, mask = line.split()
            assert kind == "BASIS" and int(num) == k
            assert int(mask, 16) == int(cross_sector.masks[k])


class TestEmbedding:
    def test_embed_project_round_trip(self, cross_sector):
        rng = np.random.default_rng(0)
        c = rng.normal(size=32) + 1j * rng.normal(size=32)
        c /= np.linalg.norm(c)
        back = project_to_sector(cross_sector,
                                 embed_sector_coords(cross_sector, c))
        assert np.max(np.abs(back - c)) < 1e-12

    def test_embedded_norm(self, cross_sector):
        c = np.zeros(32, dtype=complex)
        c[5] = 1.0
        amps = embed_sector_coords(cross_sector, c)
        assert abs(np.linalg.norm(amps) - 1) < 1e-12


class TestHamiltonian:
    def test_lam0_diagonal_ground(self, cross_lattice):
        m = Z2Model(cross_lattice, 0.0)
        sec = build_physical_sector(m)
        h = hamiltonian_in_sector(m, sec).matrix
        assert np.min(np.diag(h).real) == -16
        evals = np.linalg.eigvalsh(h)
        assert evals[0] == -16

    def test_lam0_one_modified_link(self, cross_lattice):
        m = Z2Model(cross_lattice, 0.0)
        sec = build_physical_sector(m)
        h = hamiltonian_in_sector(m, sec, {0}).matrix
        assert np.linalg.eigvalsh(h)[0] == -14

    def test_hermitian(self, cross_model, cross_sector):
        h = hamiltonian_in_sector(cross_model, cross_sector, {3, 7})
        assert h.hermiticity_error() < 1e-12

    def test_invalid_modified_link(self, cross_model, cross_sector):
        with pytest.raises(GaugeError):
            hamiltonian_in_sector(cross_model, cross_sector, {99})

    def test_spectrum_real_and_pinned(self, cross_model, cross_sector):
        evals = sector_spectrum(cross_model, cross_sector)
        assert np.all(np.isreal(evals))
        assert abs(evals[0] - CROSS_GROUND_ENERGY_LAM10) < 1e-10

    def test_projection_equals_brute_force_rect11(self):
        # full 16-dim H, projector from explicit star matrices: exact match
        lat = build_rect(1, 1)
        lam = 2.5
        m = Z2Model(lat, lam)
        sec = build_physical_sector(m)
        n = lat.n_links
        dim = 1 << n
        h_full = np.zeros((dim, dim), dtype=complex)
        for li in range(n):
            h_full -= dense_pauli(PauliString({li: "X"}), n)
        for plaq in lat.plaquettes:
            h_full -= lam * dense_pauli(PauliString({li: "Z" for li in plaq}),
                                        n)
        proj = np.eye(dim, dtype=complex)
        for v in range(lat.n_vertices):
            star = dense_pauli(PauliString({li: "X" for li in lat.star(v)}), n)
            proj = proj @ (np.eye(dim) + star) / 2
        cols = embed_sector_coords(sec, np.eye(sec.dim, dtype=complex))
        assert np.max(np.abs(proj @ cols - cols)) < 1e-12
        h_proj = cols.conj().T @ h_full @ cols
        h_sec = hamiltonian_in_sector(m, sec).matrix
        assert np.max(np.abs(h_proj - h_sec)) < 1e-12

    def test_projected_full_space_h_equals_sector_h_cross(self, cross_model,
                                                          cross_sector):
        apply = full_space_h_apply(cross_model.lattice, cross_model.lam)
        cols = embed_sector_coords(cross_sector,
                                   np.eye(cross_sector.dim, dtype=complex))
        hcols = np.empty_like(cols)
        for k in range(cross_sector.dim):
            hcols[:, k] = apply(cols[:, k].real) + 1j * apply(cols[:, k].imag)
        h_proj = project_to_sector(cross_sector, hcols)
        h_sec = hamiltonian_in_sector(cross_model, cross_sector).matrix
        assert np.max(np.abs(h_proj - h_sec)) < 1e-10


class TestGroundState:
    def test_lam0_electric_vacuum(self, cross_lattice):
        m = Z2Model(cross_lattice, 0.0)
        sec = build_physical_sector(m)
        energy, gs = ground_state(m, sec)
        assert energy == -16
        coords = project_to_sector(sec, gs.amps)
        assert abs(abs(coords[0]) - 1) < 1e-12   # pure all-plus X state

    def test_lam10_energy_vs_power_iteration(self, cross_model, cross_sector,
                                             cross_ground):
        energy, _ = cross_ground
        assert abs(energy - CROSS_GROUND_ENERGY_LAM10) < 1e-10
        apply = full_space_h_apply(cross_model.lattice, cross_model.lam)
        rng = np.random.default_rng(0)
        c = rng.normal(size=cross_sector.dim)
        c /= np.linalg.norm(c)
        v = embed_sector_coords(cross_sector, c.astype(complex)).real
        for _ in range(600):
            w = 70.0 * v - apply(v)
            v = w / np.linalg.norm(w)
        e_full = float(v @ apply(v))
        assert abs(e_full - energy) < 1e-8

    def test_stars_plus_one(self, cross_model, cross_ground):
        _, gs = cross_ground
        for v in range(cross_model.lattice.n_vertices):
            assert abs(expect_pauli(gs, star_operator(cross_model, v)) - 1) \
                < 1e-12

    def test_phase_convention_deterministic(self, cross_model, cross_sector):
        _, a = ground_state(cross_model, cross_sector)
        _, b = ground_state(cross_model, cross_sector)
        assert np.array_equal(a.amps, b.amps)
        k = int(np.argmax(np.abs(a.amps)))
        assert a.amps[k].real > 0 and abs(a.amps[k].imag) < 1e-12

    def test_degenerate_warning(self):
        # lam=0 on rect(1,1): spectrum {-4, +4}, not degenerate; force
        # degeneracy with lam -> infinity-like dominance instead: use the
        # electric-only model on a two-plaquette lattice where the first
        # excited state collides only if we zero both couplings and flip a
        # link term; simplest honest trigger: tolerance absurdly large.
        m = Z2Model(build_rect(1, 1), 1.0)
        sec = build_physical_sector(m)
        with pytest.warns(DegenerateGroundStateWarning):
            ground_state(m, sec, gap_tolerance=1e9)


    def test_sector_ground_state_matches_full_space_route(self, cross_model,
                                                          cross_sector):
        energy, coords = sector_ground_state(cross_model, cross_sector)
        full_energy, gs = ground_state(cross_model, cross_sector)
        assert energy == full_energy
        ref = project_to_sector(cross_sector, gs.amps)
        assert np.max(np.abs(coords - ref)) < 1e-12

    def test_sector_phase_rule(self, cross_model, cross_sector):
        _, coords = sector_ground_state(cross_model, cross_sector)
        k = int(np.argmax(np.abs(coords)))
        assert coords[k].imag == 0 and coords[k].real > 0


class TestEvolution:
    def test_tau0_identity(self, cross_model, cross_sector):
        u = exact_evolve_in_sector(cross_model, cross_sector, 0.0)
        assert np.max(np.abs(u.matrix - np.eye(32))) < 1e-14

    def test_unitarity(self, cross_model, cross_sector):
        u = exact_evolve_in_sector(cross_model, cross_sector, 1.7, {2})
        assert u.unitarity_error() < 1e-12

    def test_semigroup(self, cross_model, cross_sector):
        mods = frozenset({1, 4})
        u1 = exact_evolve_in_sector(cross_model, cross_sector, 0.6, mods)
        u2 = exact_evolve_in_sector(cross_model, cross_sector, 0.9, mods)
        u12 = exact_evolve_in_sector(cross_model, cross_sector, 1.5, mods)
        assert np.max(np.abs((u2 @ u1).matrix - u12.matrix)) < 1e-11

    def test_lam0_closed_form(self, cross_lattice):
        # electric-only evolution is diagonal in the sector basis with
        # phases from the product of single-link 2x2 exponentials
        m = Z2Model(cross_lattice, 0.0)
        sec = build_physical_sector(m)
        tau = 0.83
        mods = {5}
        u = exact_evolve_in_sector(m, sec, tau, mods).matrix
        L = cross_lattice.n_links
        for k, mask in enumerate(sec.masks):
            phase = 1.0 + 0j
            for li in range(L):
                s = 1.0 - 2.0 * ((int(mask) >> li) & 1)
                coeff = +1.0 if li in mods else -1.0
                phase *= np.exp(-1j * tau * coeff * s)
            assert abs(u[k, k] - phase) < 1e-12
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-14

    def test_matches_dense_oracle_rect11(self):
        lat = build_rect(1, 1)
        m = Z2Model(lat, 3.0)
        sec = build_physical_sector(m)
        tau = 1.1
        h_full = np.zeros((16, 16), dtype=complex)
        for li in range(4):
            h_full -= dense_pauli(PauliString({li: "X"}), 4)
        h_full -= m.lam * dense_pauli(PauliString({0: "Z", 1: "Z", 2: "Z",
                                                   3: "Z"}), 4)
        u_full = expm_i_hermitian(-tau * h_full)
        cols = embed_sector_coords(sec, np.eye(sec.dim, dtype=complex))
        u_proj = cols.conj().T @ u_full @ cols
        u_sec = exact_evolve_in_sector(m, sec, tau).matrix
        assert np.max(np.abs(u_proj - u_sec)) < 1e-11


class TestSpatialLoopInSector:
    def test_plaquette_traceless_on_rect11(self):
        m = Z2Model(build_rect(1, 1), 1.0)
        sec = build_physical_sector(m)
        w = spatial_loop_in_sector(sec, [0, 1, 2, 3])
        assert abs(np.trace(w.matrix)) < 1e-15
        assert np.max(np.abs(w.matrix - np.array([[0, 1], [1, 0]]))) < 1e-15

    def test_open_chain_rejected(self, cross_sector):
        with pytest.raises(GaugeError):
            spatial_loop_in_sector(cross_sector, [0])

    def test_involutory(self, cross_sector, cross_lattice):
        w = spatial_loop_in_sector(cross_sector, cross_lattice.plaquettes[2])
        assert np.max(np.abs((w @ w).matrix - np.eye(32))) < 1e-15


def dict_perm(src_masks, dst_masks, mask):
    """Reference: a Python dict from mask to index in the source basis."""
    index_of = {int(m): k for k, m in enumerate(src_masks)}
    return [index_of[int(m) ^ mask] for m in dst_masks]


def charged_at_ends(lattice, link):
    charges = [1] * lattice.n_vertices
    a, b = lattice.links[link]
    charges[a] = charges[b] = -1
    return charges


class TestXorPerm:
    @pytest.mark.parametrize("charged", [False, True],
                             ids=["neutral", "charged"])
    @pytest.mark.parametrize("lattice", ["cross", "rect:2x2"])
    def test_plaquettes_match_dict_reference(self, lattice, charged):
        lat = build_cross() if lattice == "cross" else build_rect(2, 2)
        charges = charged_at_ends(lat, 0) if charged else None
        sec = build_physical_sector(Z2Model(lat, 1.0), charges)
        masks = [sum(1 << li for li in p) for p in lat.plaquettes]
        masks.append(masks[0] ^ masks[-1])      # a two-plaquette cycle
        for mask in masks:
            perm = xor_perm(sec.masks, sec.masks, mask)
            assert perm.tolist() == dict_perm(sec.masks, sec.masks, mask)

    @pytest.mark.parametrize("lattice", ["cross", "rect:2x2"])
    def test_across_sectors_matches_dict_reference(self, lattice):
        lat = build_cross() if lattice == "cross" else build_rect(2, 2)
        model = Z2Model(lat, 1.0)
        neutral = build_physical_sector(model)
        for li in range(lat.n_links):
            charged = build_physical_sector(model, charged_at_ends(lat, li))
            for src, dst in ((neutral, charged), (charged, neutral)):
                perm = xor_perm(src.masks, dst.masks, 1 << li)
                assert perm.tolist() == dict_perm(src.masks, dst.masks,
                                                  1 << li)

    def test_open_chain_rejected(self, cross_sector, cross_lattice):
        chain = (1 << cross_lattice.plaquettes[0][0]
                 | 1 << cross_lattice.plaquettes[0][1])
        for mask in (1, chain):
            with pytest.raises(GaugeError):
                xor_perm(cross_sector.masks, cross_sector.masks, mask)

    def test_sector_build_at_enumeration_limit_is_masks_only(self):
        model = Z2Model(build_rect(5, 4), 1.0)       # dim 2**20
        build_physical_sector(model)                 # warm-up
        tracemalloc.start()
        try:
            sec = build_physical_sector(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sec.dim == 1 << 20
        assert peak < 32 * 2**20


class TestGaugeViolation:
    def test_ground_state_clean(self, cross_model, cross_ground):
        _, gs = cross_ground
        assert gauge_violation(gs, cross_model) < 1e-12

    def test_single_star_violation_is_two(self, cross_model):
        # X-basis state with one flipped link violates both endpoint stars
        sec = build_physical_sector(cross_model)
        coords = np.zeros(sec.dim, dtype=complex)
        coords[0] = 1.0
        amps = embed_sector_coords(sec, coords)
        sv = StateVector(16, amps)
        from z2wilson.statevec import apply_pauli
        apply_pauli(sv, PauliString({0: "Z"}))   # flips electric label
        assert abs(gauge_violation(sv, cross_model) - 2) < 1e-12

    def test_sector_check_matches_full_space_on_physical_states(
            self, cross_model, cross_sector):
        rng = np.random.default_rng(3)
        for _ in range(3):
            c = rng.normal(size=32) + 1j * rng.normal(size=32)
            c /= np.linalg.norm(c)
            got = sector_gauge_violation(cross_model, cross_sector, c)
            full = gauge_violation(embed_state(cross_sector, c), cross_model)
            assert got < 1e-12
            assert abs(got - full) < 1e-12

    def test_sector_check_matches_full_space_on_charged_states(
            self, cross_model):
        lat = cross_model.lattice
        charges = [1] * lat.n_vertices
        a, b = lat.links[3]
        charges[a] = charges[b] = -1
        sec = build_physical_sector(cross_model, charges)
        rng = np.random.default_rng(4)
        c = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
        c /= np.linalg.norm(c)
        got = sector_gauge_violation(cross_model, sec, c)
        full = gauge_violation(embed_state(sec, c), cross_model)
        assert abs(got - 2.0) < 1e-12
        assert abs(got - full) < 1e-12
