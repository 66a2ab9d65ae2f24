"""Workloads: seeded generators of z2wilson CLI requests.

A workload turns a seed into an endless, reproducible sequence of requests.
The seed draws only the inputs that do not change how much work a request
does (couplings, times, shot counts, shot RNG seeds); the input size that
sets the cost is fixed per workload, so runs on different seeds measure the
same amount of work.  Every value a generator can draw has a recorded
reference in ``references.json`` (see ``record_references.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``out`` requests an output file (sweep, ground-state)."""

    command: str                  # sweep | measure | ground-state
    lattice: str
    lam: float
    tau: float | None = None
    nt: tuple[int, ...] = ()
    shots: int = 0
    shot_seed: int = 0
    out: bool = False

    def argv(self, out_path: str | None = None) -> list[str]:
        args = [self.command, "--lattice", self.lattice,
                "--lambda", repr(self.lam)]
        if self.tau is not None:
            args += ["--tau", repr(self.tau)]
        if self.nt:
            args += ["--nt", ",".join(str(n) for n in self.nt)]
        if self.shots:
            args += ["--shots", str(self.shots), "--seed", str(self.shot_seed)]
        if self.out:
            if out_path is None:
                raise ValueError(f"{self.command} request needs an output path")
            args += ["--out", out_path]
        return args

    def ref_key(self) -> str:
        """Reference-table key: every input that changes the exact output."""
        parts = [self.command, self.lattice, f"lam={self.lam!r}"]
        if self.tau is not None:
            parts.append(f"tau={self.tau!r}")
        if self.nt:
            parts.append("nt=" + ",".join(str(n) for n in self.nt))
        return "|".join(parts)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_links: int
    n_vertices: int
    draw: Callable[[random.Random], Request]
    all_inputs: Callable[[], list[Request]]   # one per reference entry
    peak_rss_mb: float = 0.0                  # measured peak of one request

    def requests(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield self.draw(rng)


SWEEP_NT = (8, 16, 32, 64, 128, 256, 512, 1024)
SWEEP_LAMBDAS = (2.0, 5.0, 10.0, 20.0)
SWEEP_TAUS = (0.5, 1.0)

# n_T is held at 9: the Hadamard-test cost grows about linearly with n_T
# (8.6 s at 9, 16 s at 16), and a run holds only a few requests, so drawing
# n_T per request would make the run's cost depend on the seed.
MEASURE_NT = 9
MEASURE_LAMBDAS = (2.0, 5.0, 10.0, 20.0)
MEASURE_SHOTS = (1000, 10000)

GROUND_LATTICE = "rect:4x2"
GROUND_LAMBDAS = (0.5, 1.0, 2.0, 5.0, 10.0)


def _sweep(lattice: str, nt: tuple[int, ...], lams, taus):
    def draw(rng: random.Random) -> Request:
        return Request("sweep", lattice, rng.choice(lams),
                       tau=rng.choice(taus), nt=nt, out=True)

    def all_inputs() -> list[Request]:
        return [Request("sweep", lattice, lam, tau=tau, nt=nt, out=True)
                for lam in lams for tau in taus]
    return draw, all_inputs


def _measure(lattice: str, n_T: int, lams, shots):
    def draw(rng: random.Random) -> Request:
        return Request("measure", lattice, rng.choice(lams), nt=(n_T,),
                       shots=rng.choice(shots),
                       shot_seed=rng.randrange(1 << 31))

    def all_inputs() -> list[Request]:
        return [Request("measure", lattice, lam, nt=(n_T,)) for lam in lams]
    return draw, all_inputs


def _ground(lattice: str, lams):
    def draw(rng: random.Random) -> Request:
        return Request("ground-state", lattice, rng.choice(lams), out=True)

    def all_inputs() -> list[Request]:
        return [Request("ground-state", lattice, lam, out=True) for lam in lams]
    return draw, all_inputs


def _make(name, why, n_links, n_vertices, pair, peak_rss_mb=0.0) -> Workload:
    draw, all_inputs = pair
    return Workload(name, why, n_links, n_vertices, draw, all_inputs,
                    peak_rss_mb)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    _make("sweep-cross",
          "the paper's flagship n_T^-4 sweep on the 16-link cross; "
          "exercises trotter and CLI start-up",
          16, 12, _sweep("cross", SWEEP_NT, SWEEP_LAMBDAS, SWEEP_TAUS)),
    _make("measure-cross",
          "Hadamard test with shots: 18-qubit gate route through statevec, "
          "circuits and wilson",
          16, 12, _measure("cross", MEASURE_NT, MEASURE_LAMBDAS, MEASURE_SHOTS)),
    _make("ground-rect4x2",
          "large-sector ground state: a few memory-bound passes over 2^22 "
          "amplitudes in gauge and statevec",
          22, 15, _ground(GROUND_LATTICE, GROUND_LAMBDAS), peak_rss_mb=780.0),
)}

# Tiny configurations for the self-test: same code paths, seconds to run.
TINY_WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    _make("tiny-sweep", "self-test: three-entry sweep",
          16, 12, _sweep("cross", (64, 128, 256), (10.0,), (1.0,))),
    _make("tiny-measure", "self-test: small-n_T Hadamard test",
          16, 12, _measure("cross", 2, (10.0,), (1000,))),
    _make("tiny-ground", "self-test: rect:2x2 ground state",
          12, 9, _ground("rect:2x2", (1.0, 2.0))),
)}

ALL_WORKLOADS = {**WORKLOADS, **TINY_WORKLOADS}
