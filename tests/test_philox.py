"""The package's Philox against numpy's ``Generator(Philox(seed))``.

numpy is the oracle here only: the package draws every shot from its own
``z2wilson.philox``, which must give the same numbers bit for bit.
"""

import random

import numpy as np
import pytest

from z2wilson.circuits import Measure, PauliExp, PauliString, run_blocks
from z2wilson.gauge import Z2Model, build_physical_sector, sector_ground_state
from z2wilson.lattice import build_cross, build_rect
from z2wilson.philox import Philox
from z2wilson.programs import staircase_default
from z2wilson.wilson import (hadamard_test, rect_loop_link_circuit,
                             sample_p_plus)

SEEDS = [0, 1, 2**32 + 5, 2**200 + 12345]
N_MAX = (1 << 63) - 1


def numpy_generator(seed):
    return np.random.Generator(np.random.Philox(seed))


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32+5", "2^200+"])
def test_raw_stream(seed):
    # 13 words cross three counter blocks
    want = [int(w) for w in np.random.Philox(seed).random_raw(13)]
    ours = Philox(seed)
    assert [ours.random_raw() for _ in range(13)] == want


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32+5", "2^200+"])
def test_random(seed):
    want = numpy_generator(seed)
    ours = Philox(seed)
    for _ in range(9):
        assert ours.random() == want.random()


# (n, p): inversion (n * min(p, 1 - p) <= 30) and BTPE on both sides of the
# threshold, the p > 0.5 mirror of each, p in {0, 1}, n in {0, 1, 2**63 - 1}
BINOMIAL_GRID = [
    (0, 0.3), (1, 0.0), (1, 0.5), (1, 1.0), (30, 1.0), (7, 0.2),
    (60, 0.5), (61, 0.5), (100, 0.3), (101, 0.3), (1000, 0.03),
    (1000, 0.031), (1000, 0.97), (1000, 0.969), (10**6, 0.2), (10**6, 0.8),
    (10**9, 2.9e-8), (10**9, 3.1e-8), (10**18, 0.49), (10**18, 0.51),
    # n above 2**53 with n * p in the hundreds: BTPE's final bound, whose
    # z and w numpy forms in doubles, decides most draws
    (10**16 + 1, 6e-14), (10**16 + 1, 1 - 6e-14),
    (N_MAX, 0.0), (N_MAX, 1.0), (N_MAX, 0.5), (N_MAX, 2e-18),
    (N_MAX, 31 / 2**63), (N_MAX, 1 - 31 / 2**63), (N_MAX, 1e-10),
    (N_MAX, 5e-324),
]


@pytest.mark.parametrize("n, p", BINOMIAL_GRID)
def test_binomial_draws_in_a_row(n, p):
    for seed in range(12):
        want = numpy_generator(seed)
        ours = Philox(seed)
        assert ([ours.binomial(n, p) for _ in range(24)]
                == [int(want.binomial(n, p)) for _ in range(24)]), seed


def test_binomial_on_a_seeded_grid():
    draw = random.Random(24)
    for _ in range(600):
        seed = draw.randrange(1 << draw.choice((31, 64, 200)))
        n = int(10 ** draw.uniform(0, 18.9))
        p = draw.random() if draw.random() < 0.5 else 10 ** draw.uniform(-19,
                                                                          0)
        want = numpy_generator(seed)
        ours = Philox(seed)
        assert ([ours.binomial(n, p) for _ in range(3)]
                == [int(want.binomial(n, p)) for _ in range(3)]), (seed, n, p)


def test_binomial_left_tail_rejected():
    # BTPE's left exponential tail proposes y < 0 on the 40th draw, which
    # is rejected and drawn again, as numpy does
    want = numpy_generator(378).binomial(100, 0.31, size=40)
    ours = Philox(378)
    assert ([ours.binomial(100, 0.31) for _ in range(40)]
            == [int(w) for w in want])


@pytest.mark.parametrize("n, p", [(-1, 0.5), (1 << 63, 0.5), (5, -0.1),
                                  (5, 1.5), (5, float("nan"))])
def test_binomial_refuses_what_numpy_refuses(n, p):
    with pytest.raises(ValueError):
        Philox(0).binomial(n, p)


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="seed"):
        Philox(-1)


@pytest.fixture(scope="module")
def measure_cross_p_plus():
    """p_plus_exact of every coupling the measure-cross benchmark draws
    (the cross, n_T = 9)."""
    p_plus = {}
    for lam in (2.0, 5.0, 10.0, 20.0):
        model = Z2Model(build_cross(), lam)
        sector = build_physical_sector(model)
        _, coords = sector_ground_state(model, sector)
        p_plus[lam] = hadamard_test(model, sector, coords,
                                    staircase_default(), 9)
    return p_plus


@pytest.mark.parametrize("shots", [1000, 10000])
def test_measure_cross_shots(measure_cross_p_plus, shots):
    draw = random.Random(shots)
    for lam, p in measure_cross_p_plus.items():
        for seed in [draw.randrange(1 << 31) for _ in range(24)]:
            assert (sample_p_plus(p, shots, Philox(seed))
                    == sample_p_plus(p, shots, numpy_generator(seed))), (
                        lam, seed)


class _Counting(Philox):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_run_blocks_reads_the_same_outcomes():
    # the link-loop circuit ends by measuring its mediator, which a closed
    # loop returns to a definite bit; rotated first, the read draws
    lattice = build_rect(2, 2)
    model = Z2Model(lattice, 1.0)
    sector = build_physical_sector(model)
    circuit = rect_loop_link_circuit(lattice)
    mediator = circuit.gates[-1].qubit
    assert circuit.gates[-1] == Measure(mediator)
    circuit.gates.insert(-1, PauliExp(PauliString({mediator: "X"}), 0.6))
    rng = np.random.default_rng(3)
    drawn = 0
    for seed in range(8):
        coords = (rng.normal(size=sector.dim)
                  + 1j * rng.normal(size=sector.dim))
        coords /= np.linalg.norm(coords)
        ours = _Counting(seed)
        got, got_outcomes = run_blocks(circuit, model, sector, coords, ours)
        want, want_outcomes = run_blocks(circuit, model, sector, coords,
                                         numpy_generator(seed))
        assert got_outcomes == want_outcomes, seed
        assert got.keys() == want.keys()
        for charges, block in got.items():
            np.testing.assert_array_equal(block, want[charges])
        drawn += ours.draws
    assert drawn > 0
