"""Statevector kernels against dense Kronecker-product oracles."""

import numpy as np
import pytest

from conftest import dense_pauli, expm_i_hermitian, random_state
from z2wilson import statevec
from z2wilson.circuits import ControlledPauliExp
from z2wilson.statevec import (PauliString, PauliStringError, StateVector,
                               apply_controlled_pauli_exp, apply_gates,
                               apply_pauli,
                               apply_pauli_exp, expect_pauli, init_basis,
                               inner, pauli_exp_inplace, qubit_purity,
                               reduced_qubit_density)


def random_terms(n, rng, allow_full=True):
    k = rng.integers(1, n + 1 if allow_full else n)
    qubits = rng.choice(n, size=k, replace=False)
    return {int(q): "XYZ"[rng.integers(3)] for q in qubits}


def random_string(n, rng, allow_full=True, signed=False):
    phase = int(rng.choice([1, -1])) if signed else 1
    return PauliString(random_terms(n, rng, allow_full), phase=phase)


class TestPauliString:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(PauliStringError):
            PauliString([(0, "X"), (0, "Z")])

    def test_bad_axis_rejected(self):
        with pytest.raises(PauliStringError):
            PauliString({0: "Q"})

    def test_bad_phase_rejected(self):
        # strings are Hermitian: +-i is refused like any other phase
        for phase in (2.0, 1j, -1j):
            with pytest.raises(PauliStringError):
                PauliString({0: "X"}, phase=phase)

    def test_masks_and_views_match_dense(self):
        # the masks read off the dense matrix: P|0> is a multiple of |x>,
        # and P|2**q> / P|0> is -1 exactly where bit q of z is set
        rng = np.random.default_rng(0)
        n = 5
        draws = [({}, 1), ({}, -1)] + [
            (random_terms(n, rng), int(rng.choice([1, -1])))
            for _ in range(40)]
        for terms, phase in draws:
            p = PauliString(terms, phase=phase)
            d = dense_pauli(p, n)
            x = int(np.flatnonzero(d[:, 0])[0])
            z = sum(1 << q for q in range(n)
                    if d[x ^ 1 << q, 1 << q] / d[x, 0] == -1)
            assert (p.x, p.z) == (x, z)
            assert p.masks() == (x, z, bin(x & z).count("1"))
            assert d[x, 0] == phase * 1j ** bin(x & z).count("1")
            assert p.terms == tuple(sorted(terms.items()))
            assert p.support == frozenset(terms)
            assert p.weight == len(terms)
            assert p.max_qubit() == max(terms, default=-1)
            body = " ".join(f"{q}:{ax}" for q, ax in sorted(terms.items()))
            assert str(p) == f"{'+' if phase == 1 else '-'}[{body or 'I'}]"

    def test_commutes_matches_dense(self):
        rng = np.random.default_rng(2)
        n = 4
        for _ in range(25):
            a, b = random_string(n, rng), random_string(n, rng)
            da, db = dense_pauli(a, n), dense_pauli(b, n)
            comm = np.max(np.abs(da @ db - db @ da)) < 1e-12
            assert a.commutes_with(b) == comm


class TestInitBasis:
    def test_all_zeros(self):
        sv = init_basis(2, "00")
        assert sv.amps[0] == 1

    def test_bit_order(self):
        sv = init_basis(2, "10")       # qubit 1 set
        assert sv.amps[2] == 1

    def test_norm_16(self):
        sv = init_basis(16, "0" * 16)
        assert len(sv.amps) == 1 << 16
        assert sv.norm_error() < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            init_basis(3, "01")


class TestApplyPauli:
    def test_z_on_one(self):
        sv = init_basis(1, "1")
        apply_pauli(sv, PauliString({0: "Z"}))
        assert sv.amps[1] == -1

    def test_x_flips(self):
        sv = init_basis(1, "0")
        apply_pauli(sv, PauliString({0: "X"}))
        assert sv.amps[1] == 1

    def test_zz_on_01(self):
        sv = init_basis(2, "01")
        apply_pauli(sv, PauliString({0: "Z", 1: "Z"}))
        assert sv.amps[1] == -1

    def test_random_strings_vs_dense(self):
        rng = np.random.default_rng(3)
        n = 5
        for _ in range(30):
            p = random_string(n, rng, signed=True)
            v = random_state(n, rng)
            sv = StateVector(n, v.copy())
            apply_pauli(sv, p)
            assert np.max(np.abs(sv.amps - dense_pauli(p, n) @ v)) < 1e-13

    def test_out_of_range_qubit(self):
        sv = init_basis(2, "00")
        with pytest.raises(PauliStringError):
            apply_pauli(sv, PauliString({5: "X"}))


class TestApplyPauliExp:
    def test_theta_zero_identity(self):
        rng = np.random.default_rng(4)
        v = random_state(3, rng)
        sv = StateVector(3, v.copy())
        apply_pauli_exp(sv, PauliString({1: "Y"}), 0.0)
        assert np.max(np.abs(sv.amps - v)) < 1e-15

    def test_x_half_pi(self):
        sv = init_basis(1, "0")
        apply_pauli_exp(sv, PauliString({0: "X"}), np.pi / 2)
        assert abs(sv.amps[1] - 1j) < 1e-15

    def test_inverse(self):
        rng = np.random.default_rng(5)
        v = random_state(4, rng)
        sv = StateVector(4, v.copy())
        p = PauliString({0: "X", 2: "Z", 3: "Y"})
        apply_pauli_exp(sv, p, 0.837)
        apply_pauli_exp(sv, p, -0.837)
        assert np.max(np.abs(sv.amps - v)) < 1e-12

    def test_random_vs_dense_expm(self):
        rng = np.random.default_rng(6)
        n = 5
        for _ in range(30):
            p = random_string(n, rng)
            th = float(rng.normal())
            v = random_state(n, rng)
            sv = StateVector(n, v.copy())
            apply_pauli_exp(sv, p, th)
            ref = expm_i_hermitian(th * dense_pauli(p, n)) @ v
            assert np.max(np.abs(sv.amps - ref)) < 1e-12
        # every axis at every qubit of an 8-qubit register (plus one signed
        # diagonal string), on one vector and on a stack of three columns
        n = 8
        strings = [PauliString({q: ax}) for q in range(n) for ax in "XYZ"]
        strings.append(PauliString({1: "Z", 4: "Z", 7: "Z"}, phase=-1))
        for p in strings:
            th = float(rng.normal())
            u = expm_i_hermitian(th * dense_pauli(p, n))
            v = random_state(n, rng)
            sv = StateVector(n, v.copy())
            apply_pauli_exp(sv, p, th)
            assert np.max(np.abs(sv.amps - u @ v)) < 1e-12, p
            cols = np.stack([random_state(n, rng) for _ in range(3)], axis=1)
            got = cols.copy()
            pauli_exp_inplace(got, p, th, n)
            assert np.max(np.abs(got - u @ cols)) < 1e-12, p

    def test_composition(self):
        rng = np.random.default_rng(7)
        p = PauliString({0: "Z", 1: "X"})
        v = random_state(3, rng)
        a = StateVector(3, v.copy())
        apply_pauli_exp(a, p, 0.3)
        apply_pauli_exp(a, p, 0.5)
        b = StateVector(3, v.copy())
        apply_pauli_exp(b, p, 0.8)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12

    def test_pauli_equals_exp_half_pi_times_minus_i(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_string(4, rng)
            v = random_state(4, rng)
            a = StateVector(4, v.copy())
            apply_pauli(a, p)
            b = StateVector(4, v.copy())
            apply_pauli_exp(b, p, np.pi / 2)
            assert np.max(np.abs(a.amps - (-1j) * b.amps)) < 1e-12

    def test_imaginary_phase_rejected(self):
        sv = init_basis(2, "00")
        with pytest.raises(PauliStringError):
            apply_pauli_exp(sv, PauliString({0: "X"}, phase=1j), 0.1)


class TestControlled:
    def test_control_off_z(self):
        rng = np.random.default_rng(9)
        v = random_state(3, rng)
        sv = StateVector(3, v.copy())
        # control qubit 2 spin-down: zero out spin-up block first
        sv.amps[: 1 << 2] = 0
        sv.amps /= np.linalg.norm(sv.amps)
        before = sv.amps.copy()
        apply_controlled_pauli_exp(sv, 2, "z", PauliString({0: "X"}), 1.3)
        assert np.max(np.abs(sv.amps - before)) < 1e-14

    def test_control_off_x_minus(self):
        # |+> control never fires
        sv = init_basis(2, "00")
        apply_pauli_exp(sv, PauliString({1: "Y"}), -np.pi / 4)   # |+> on q1
        before = sv.amps.copy()
        apply_controlled_pauli_exp(sv, 1, "x-", PauliString({0: "Z"}), 0.7)
        assert np.max(np.abs(sv.amps - before)) < 1e-14

    def test_v_gate_squared_is_controlled_identity(self):
        # V^2 = I on both branches since sigma_3^2 = 1 (up to the exp phase)
        rng = np.random.default_rng(10)
        v = random_state(3, rng)
        sv = StateVector(3, v.copy())
        p = PauliString({0: "Z"})
        apply_controlled_pauli_exp(sv, 2, "x-", p, np.pi / 2)
        apply_controlled_pauli_exp(sv, 2, "x-", p, np.pi / 2)
        # e^{i pi P} = -1 on the |-> branch: controlled phase flip only
        minus = (np.eye(8) - dense_pauli(PauliString({2: "X"}), 3)) / 2
        ref = (np.eye(8) - 2 * minus) @ v
        assert np.max(np.abs(sv.amps - ref)) < 1e-12

    def test_random_controlled_vs_dense(self):
        rng = np.random.default_rng(11)
        n = 5
        for basis in ("z", "x-"):
            for _ in range(15):
                p = random_string(n - 1, rng)   # keep qubit n-1 free
                th = float(rng.normal())
                v = random_state(n, rng)
                sv = StateVector(n, v.copy())
                apply_controlled_pauli_exp(sv, n - 1, basis, p, th)
                if basis == "z":
                    proj = (np.eye(1 << n)
                            + dense_pauli(PauliString({n - 1: "Z"}), n)) / 2
                else:
                    proj = (np.eye(1 << n)
                            - dense_pauli(PauliString({n - 1: "X"}), n)) / 2
                u = (proj @ expm_i_hermitian(th * dense_pauli(p, n))
                     + (np.eye(1 << n) - proj))
                assert np.max(np.abs(sv.amps - u @ v)) < 1e-12

    def test_control_in_support_rejected(self):
        sv = init_basis(2, "00")
        with pytest.raises(PauliStringError):
            apply_controlled_pauli_exp(sv, 0, "z", PauliString({0: "Z"}), 0.1)

    def test_block_structure_bitwise(self):
        # control-off sub-vector is untouched, element for element
        rng = np.random.default_rng(12)
        v = random_state(4, rng)
        sv = StateVector(4, v.copy())
        apply_controlled_pauli_exp(sv, 3, "z", PauliString({0: "Y", 1: "Z"}),
                                   0.9)
        off = np.arange(16) >= 8           # control bit 1 = spin-down
        assert np.array_equal(sv.amps[off], v[off])


def half_slice_exp(amps, qubit, axis, theta, n):
    """Reference single-qubit rotation: the whole-half-slice formula that
    the kernel must reproduce bit for bit."""
    v = amps.reshape((1 << (n - 1 - qubit), 2, 1 << qubit) + amps.shape[1:])
    if axis == "Z":
        v[:, 0] *= np.exp(1j * theta)
        v[:, 1] *= np.exp(-1j * theta)
        return
    c, s = np.cos(theta), np.sin(theta)
    mix = 1j * s if axis == "X" else s
    a0, a1 = v[:, 0], v[:, 1]
    t0, t1 = a1 * mix, a0 * mix
    a0 *= c
    a0 += t0
    a1 *= c
    if axis == "X":
        a1 += t1
    else:
        a1 -= t1


def same_bits(got, want):
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


LAYOUT_THETAS = (0.3, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2)


class TestKernelLayouts:
    # every qubit position of 16, from runs of one amplitude to one
    # half-register, on a 1-D state and on a stack of columns
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("axis", "XYZ")
    def test_rotation_bit_identical_to_half_slice_formula(self, axis,
                                                          stacked):
        n = 16
        rng = np.random.default_rng(13)
        if stacked:
            v = np.stack([random_state(n, rng) for _ in range(3)], axis=1)
        else:
            v = random_state(n, rng)
        for q in range(n):
            for th in LAYOUT_THETAS:
                got, want = v.copy(), v.copy()
                pauli_exp_inplace(got, PauliString({q: axis}), th, n)
                half_slice_exp(want, q, axis, th, n)
                assert same_bits(got, want), (q, th)

    @pytest.mark.parametrize("control, basis", [(12, "z"), (15, "x-")])
    def test_controlled_group_bit_identical(self, control, basis):
        # the copied branch of a middle ("z", control 12) and of the top
        # control, each with rotations at short and long runs
        n = 16
        terms = list(zip((0, 1, 5, 11, 13, 14, 3), "XYZXYZY",
                         LAYOUT_THETAS + (0.7, -1.2)))
        gates = [ControlledPauliExp(control, basis, PauliString({q: ax}), th)
                 for q, ax, th in terms]
        v = random_state(n, np.random.default_rng(14))
        got = v.copy()
        apply_gates(got, gates, n)
        want = v.copy()
        if basis == "x-":
            half_slice_exp(want, control, "Y", -np.pi / 4, n)
        blocks = want.reshape(1 << (n - 1 - control), 2, 1 << control)
        branch = blocks[:, 0].reshape(-1)
        for q, ax, th in terms:
            half_slice_exp(branch, q if q < control else q - 1, ax, th, n - 1)
        blocks[:, 0] = branch.reshape(blocks[:, 0].shape)
        if basis == "x-":
            half_slice_exp(want, control, "Y", np.pi / 4, n)
        assert same_bits(got, want)


def gather_action(v, p, n):
    """P v by an explicit index gather: (P v)[j] = c(j ^ x) v[j ^ x]."""
    xm, zm, ny = p.masks()
    src = np.arange(1 << n) ^ xm
    odd = np.array([bin(int(s) & zm).count("1") % 2 for s in src])
    c = p.phase * 1j ** ny * np.where(odd == 1, -1.0, 1.0)
    return (c if v.ndim == 1 else c[:, None]) * v[src]


class TestMultiQubitFormula:
    # every string of weight 2-4, diagonal or not, is cos(theta) a +
    # i sin(theta) (P a) bit for bit, on a 1-D state and a stack of columns
    @pytest.mark.parametrize("stacked", [False, True])
    def test_bit_identical_to_gather_formula(self, stacked):
        n = 7
        rng = np.random.default_rng(21)
        if stacked:
            v = np.stack([random_state(n, rng) for _ in range(3)], axis=1)
        else:
            v = random_state(n, rng)
        strings = [PauliString({0: "Z", 6: "Z"}),
                   PauliString({1: "X", 2: "X", 5: "X"}, phase=-1),
                   PauliString({0: "Y", 3: "Y", 4: "Y", 6: "Y"}),
                   PauliString({2: "Z", 3: "X", 4: "Y"}, phase=-1)]
        for _ in range(40):
            qs = rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
            strings.append(PauliString(
                {int(q): "XYZ"[rng.integers(3)] for q in qs},
                phase=int(rng.choice([1, -1]))))
        for p in strings:
            for th in LAYOUT_THETAS:
                got = v.copy()
                pauli_exp_inplace(got, p, th, n)
                want = np.cos(th) * v + (1j * np.sin(th)) * gather_action(
                    v, p, n)
                assert same_bits(got, want), (str(p), th)


def random_z_chain(n, control, rng):
    """1-6 Z strings of weight 1-4 off the control, theta +-pi/2, phase +-1."""
    others = [q for q in range(n) if q != control]
    terms = []
    for _ in range(rng.integers(1, 7)):
        qs = rng.choice(others, size=rng.integers(1, min(4, len(others)) + 1),
                        replace=False)
        terms.append((PauliString({int(q): "Z" for q in qs},
                                  phase=int(rng.choice([1, -1]))),
                      float(rng.choice([np.pi / 2, -np.pi / 2]))))
    return terms


def chain_phase(terms):
    """prod of i sign(theta) phase: the scalar in prod_j e^{i theta_j P_j}."""
    phi = 1
    for p, th in terms:
        phi *= 1j * np.sign(th) * p.phase
    return phi


def x_minus_oracle(v, control, terms, n):
    """Dense P+ (x) I + P- (x) prod_j e^{i theta_j P_j} applied to v."""
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for p, th in terms:
        u = (np.cos(th) * np.eye(dim)
             + 1j * np.sin(th) * dense_pauli(p, n)) @ u
    minus = (np.eye(dim) - dense_pauli(PauliString({control: "X"}), n)) / 2
    return (minus @ u + np.eye(dim) - minus) @ v


class TestCliffordGroups:
    # an "x-" chain of +-pi/2 Z strings is a parity-controlled NOT when its
    # product phase is real; the full-space kernels run it, and an odd
    # chain, by the same basis rotation and rounding as any "x-" group
    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_dense_oracle(self, stacked):
        rng = np.random.default_rng(16)
        seen = set()
        for _ in range(80):
            n = int(rng.integers(3, 8))
            control = int(rng.integers(n))
            terms = random_z_chain(n, control, rng)
            if stacked:
                v = np.stack([random_state(n, rng) for _ in range(3)], axis=1)
            else:
                v = random_state(n, rng)
            got = v.copy()
            statevec._controlled_exps(got, control, "x-", terms, n)
            seen.add(chain_phase(terms).imag == 0)
            err = np.max(np.abs(got - x_minus_oracle(v, control, terms, n)))
            assert err < 1e-13, (n, control, terms)
        assert seen == {True, False}

    def test_odd_chain_takes_rotation_route(self, monkeypatch):
        # phi = i: the group is not a permutation, so the basis change runs
        calls = []
        real_exp = statevec._single_qubit_exp
        monkeypatch.setattr(statevec, "_single_qubit_exp",
                            lambda *a: calls.append(a[2]) or real_exp(*a))
        n = 5
        v = random_state(n, np.random.default_rng(18))
        terms = [(PauliString({q: "Z"}), np.pi / 2) for q in (0, 1, 2)]
        got = v.copy()
        statevec._controlled_exps(got, 4, "x-", terms, n)
        assert calls.count("Y") == 2
        assert np.max(np.abs(got - x_minus_oracle(v, 4, terms, n))) < 1e-13

    def test_string_outside_register_rejected(self):
        # refused before the basis change touches the state
        terms = [(PauliString({5: "Z"}), np.pi / 2),
                 (PauliString({0: "Z"}), np.pi / 2)]
        v = random_state(3, np.random.default_rng(0))
        got = v.copy()
        with pytest.raises(PauliStringError):
            statevec._controlled_exps(got, 2, "x-", terms, 3)
        assert np.array_equal(got, v)


class TestInnerExpect:
    def test_self_inner(self):
        rng = np.random.default_rng(13)
        sv = StateVector(4, random_state(4, rng))
        assert abs(inner(sv, sv) - 1) < 1e-12

    def test_orthogonal_basis(self):
        assert inner(init_basis(1, "0"), init_basis(1, "1")) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            inner(init_basis(1, "0"), init_basis(2, "00"))

    def test_exp_expectation_vs_dense(self):
        # <+| e^{i pi Z} |+> = -1, checked against the dense 2x2 product
        plus = StateVector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
        rot = plus.copy()
        apply_pauli_exp(rot, PauliString({0: "Z"}), np.pi)
        val = inner(plus, rot)
        dense = expm_i_hermitian(np.pi * dense_pauli(PauliString({0: "Z"}), 1))
        want = np.conj(plus.amps) @ dense @ plus.amps
        assert abs(val - want) < 1e-14
        assert abs(val + 1) < 1e-14

    def test_expect_z_up(self):
        assert expect_pauli(init_basis(1, "0"), PauliString({0: "Z"})) == 1.0

    def test_expect_x_plus(self):
        plus = StateVector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
        assert abs(expect_pauli(plus, PauliString({0: "X"})) - 1) < 1e-14

    def test_expect_x_zero(self):
        assert abs(expect_pauli(init_basis(1, "0"), PauliString({0: "X"}))) \
            < 1e-15

    def test_non_hermitian_rejected(self):
        with pytest.raises(PauliStringError):
            expect_pauli(init_basis(1, "0"), PauliString({0: "X"}, phase=1j))


class TestNormPreservation:
    def test_long_random_sequence(self):
        rng = np.random.default_rng(14)
        n = 6
        sv = StateVector(n, random_state(n, rng))
        for _ in range(2000):
            p = random_string(n - 1, rng)
            kind = rng.integers(3)
            if kind == 0:
                apply_pauli(sv, p)
            elif kind == 1:
                apply_pauli_exp(sv, p, float(rng.normal()))
            else:
                apply_controlled_pauli_exp(sv, n - 1, "z", p,
                                           float(rng.normal()))
        assert sv.norm_error() < 1e-10

    def test_hundred_thousand_gates(self):
        # the stated drift bound for gate sequences up to 1e5
        rng = np.random.default_rng(15)
        n = 4
        sv = StateVector(n, random_state(n, rng))
        strings = [random_string(n, rng) for _ in range(64)]
        thetas = rng.normal(size=100_000)
        for k in range(100_000):
            apply_pauli_exp(sv, strings[k % 64], float(thetas[k]))
        assert sv.norm_error() < 1e-10


class TestReducedDensity:
    def test_product_state_pure(self):
        sv = init_basis(3, "010")
        for q in range(3):
            assert qubit_purity(sv, q) > 1 - 1e-14

    def test_bell_pair_mixed(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        sv = StateVector(2, amps)
        assert abs(qubit_purity(sv, 0) - 0.5) < 1e-14
        rho = reduced_qubit_density(sv, 1)
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-14
