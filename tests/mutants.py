"""Mutation catalogue: one-line faults that the Tier-1 suite must catch.

Each entry replaces one exact text, which must occur exactly once in its
file, in a temporary copy of ``src``, ``tests`` and ``pyproject.toml``,
and runs the Tier-1 suite there with ``-x``.  An entry may name a test
file that kills it, which runs first: the full suite runs only if that
file passes.  A mutant is killed when either run fails; the first failing
test is reported, or for a run that a signal ended, the test it crashed
in, read from the faulthandler dump pytest writes to stderr.  A survivor
fails the run unless its entry is marked equivalent, with the reason.
Each run's address space is capped at ``MEMORY_CAP`` (``RLIMIT_AS``, set
in the child before it starts): a mutant that makes the suite allocate
without bound ends that run, with a ``MemoryError`` or a crash inside
numpy, and counts as killed, instead of taking the machine's memory.

    python3 tests/mutants.py

Exit status: 0 when every mutant is killed or marked equivalent, 1 when
one survives, 2 when an entry's text does not occur exactly once or its
first test file is missing (the catalogue no longer matches the code).
Standard library only.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
MEMORY_CAP = 2 << 30        # bytes of address space per test run


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str               # relative to the repository root
    old: str
    new: str
    why: str
    first: str = ""         # test file run before the full suite
    equivalent: str = ""    # reason the change cannot alter behaviour


CATALOGUE = [
    Mutant("trotter-theta-sign", "src/z2wilson/trotter.py",
           "theta = model.lam * step.tau / n_T",
           "theta = -model.lam * step.tau / n_T",
           "the sector Trotter band's plaquette angle with the wrong sign",
           first="tests/test_acceptance.py"),
    Mutant("strang-last-half-full", "src/z2wilson/trotter.py",
           "np.multiply(half if k == n_T - 1 else full, w, w)",
           "np.multiply(full, w, w)",
           "the closing electric half-step of the Strang product made a "
           "full step",
           first="tests/test_acceptance.py"),
    Mutant("gate-list-magnetic-sign", "src/z2wilson/wilson.py",
           "mag = model.lam * tau / n_T",
           "mag = -model.lam * tau / n_T",
           "the gate list's plaquette angle with the wrong sign: the "
           "circuit route no longer runs the sector route's product",
           first="tests/test_acceptance.py"),
    Mutant("gs-fidelity-real-part", "src/z2wilson/trotter.py",
           "return float(abs(np.vdot(w_exact @ psi, w_trot @ psi)))",
           "return float(np.vdot(w_exact @ psi, w_trot @ psi).real)",
           "the state fidelity as a real part, not the paper's modulus",
           first="tests/test_acceptance.py"),
    Mutant("op-fidelity-real-part", "src/z2wilson/trotter.py",
           "return float(abs(np.trace(w_exact.conj().T @ w_trot)) "
           "/ len(w_exact))",
           "return float(np.trace(w_exact.conj().T @ w_trot).real "
           "/ len(w_exact))",
           "the operator fidelity as a real part, not the paper's modulus",
           first="tests/test_cli.py"),
    Mutant("fit-stderr-dof", "src/z2wilson/trotter.py",
           "s2 = float(np.sum(resid ** 2) / max(m - 2, 1))",
           "s2 = float(np.sum(resid ** 2) / m)",
           "the fit's standard error with m degrees of freedom, not m - 2; "
           "only the sweep golden digests pin it",
           first="tests/test_cli.py"),
    Mutant("fit-min-rows", "src/z2wilson/trotter.py",
           "if len(kept) < 3:",
           "if len(kept) < 2:",
           "a power law fitted through two rows, which leaves no residual",
           first="tests/test_trotter.py"),
    Mutant("fit-floor-1e-11", "src/z2wilson/trotter.py",
           "INFIDELITY_FLOOR = 1e-13",
           "INFIDELITY_FLOOR = 1e-11",
           "a fit floor that drops rows the n_T^-4 law still holds for",
           first="tests/test_trotter.py"),
    Mutant("fit-floor-1e-15", "src/z2wilson/trotter.py",
           "INFIDELITY_FLOOR = 1e-13",
           "INFIDELITY_FLOOR = 1e-15",
           "a fit floor that keeps rows at the rounding level",
           first="tests/test_trotter.py"),
    Mutant("moved-charges-parity", "src/z2wilson/gauge.py",
           "return tuple(-q if (mask & star).bit_count() & 1 else q",
           "return tuple(q if (mask & star).bit_count() & 1 else -q",
           "sigma_3 moves to the charge sector of the opposite star parity",
           first="tests/test_acceptance.py"),
    Mutant("gf2-pivot-highest-bit", "src/z2wilson/gauge.py",
           "p = (row & -row).bit_length() - 1",
           "p = row.bit_length() - 1",
           "echelon rows keyed by their highest bit: the sector masks are "
           "no longer listed in increasing order, so a row is no longer "
           "its cycle coordinate and sigma_3 is no longer the flip i ^ k",
           first="tests/test_acceptance.py"),
    Mutant("row-of-unchecked", "src/z2wilson/gauge.py",
           "if i == sector.dim or sector.masks[i] != mask:",
           "if i == sector.dim:",
           "a mask missing from the sector read as the row it would sort "
           "into: an open string passes as a closed cycle",
           first="tests/test_gauge.py"),
    Mutant("band-drops-plaquette", "src/z2wilson/trotter.py",
           "views = [flipped(w, k) for k in _plaquette_rows(model, sec)]",
           "views = [flipped(w, k) for k in _plaquette_rows(model, sec)[1:]]",
           "the sector Trotter band skips one plaquette's exponential",
           first="tests/test_acceptance.py"),
    Mutant("boundary-walk-reversed", "src/z2wilson/lattice.py",
           "start, v = lattice.links[walk[0]]",
           "v, start = lattice.links[walk[0]]",
           "the boundary walked clockwise, from the other endpoint of its "
           "first link: the link-loop export changes order",
           first="tests/test_cli.py"),
    Mutant("x-group-inexact-v", "src/z2wilson/circuits.py",
           "if not z and abs(g.theta) == np.pi / 2:",
           "if False and abs(g.theta) == np.pi / 2:",
           "an \"x-\" gate at +-pi/2 run on cos and sin, not as the exact "
           "+-i P: a box's V-chain leaves cos(pi/2) residue, and its reset "
           "finds the other half of the box ancilla nonzero",
           first="tests/test_circuits.py"),
    Mutant("x-group-recombine-sign", "src/z2wilson/circuits.py",
           "(_mix(rest, fire, 0.5, 0.5), _mix(rest, fire, 0.5, -0.5))",
           "(_mix(rest, fire, 0.5, -0.5), _mix(rest, fire, 0.5, 0.5))",
           "an \"x-\" group puts its fired component back with the wrong "
           "sign: the group fires on |+> and flips the control",
           first="tests/test_circuits.py"),
    Mutant("z-group-fires-on-hi", "src/z2wilson/circuits.py",
           "fire = {key: b[:, lo] if z else",
           "fire = {key: b[:, hi] if z else",
           "a \"z\" group evolves the columns where its control bit is set "
           "and writes them over the spin-up half",
           first="tests/test_circuits.py"),
    Mutant("cli-seed-out-everywhere", "src/z2wilson/cli.py",
           "unread = sorted(set(flags) - READS[key])",
           "unread = sorted(set(flags) - READS[key] - {\"seed\", \"out\"})",
           "--seed and --out accepted by every command again: measure "
           "--out writes no file and exits 0",
           first="tests/test_cli.py"),
    Mutant("gate-list-extra-step", "src/z2wilson/wilson.py",
           "* (n_T - 1)",
           "* n_T",
           "the gate list runs n_T + 1 Strang steps of time tau / n_T: the "
           "circuit route no longer runs the sector route's product",
           first="tests/test_wilson.py"),
    Mutant("gate-list-inner-half", "src/z2wilson/wilson.py",
           "inner = [(s, sign * (2 * half)) for s, sign in xs]",
           "inner = [(s, sign * half) for s, sign in xs]",
           "the electric steps between the gate list's plaquette layers "
           "run at the half angle of its two ends: the circuit route "
           "evolves for less time than the sector route",
           first="tests/test_wilson.py"),
    Mutant("philox-word-order", "src/z2wilson/philox.py",
           "self._buffer = [c3, c2, c1, c0]",
           "self._buffer = [c0, c1, c2, c3]",
           "each Philox block's four words handed out last first: every "
           "shot draw leaves numpy's stream",
           first="tests/test_philox.py"),
    Mutant("philox-left-tail-kept", "src/z2wilson/philox.py",
           "                if y < 0:\n                    continue\n",
           "",
           "a BTPE proposal from the left exponential tail below 0 is "
           "accepted, not drawn again: the draw leaves numpy's stream",
           first="tests/test_philox.py"),
    Mutant("lattice-one-component-unchecked", "src/z2wilson/lattice.py",
           "if len(reached) < nv:",
           "if False and len(reached) < nv:",
           "a lattice file of two disconnected graphs passes validate, and "
           "the sector layer refuses it further in",
           first="tests/test_lattice.py"),
    Mutant("gate-walk-keeps-empty-spatial", "src/z2wilson/wilson.py",
           "elif (s := _spatial_string(step.links)).weight:",
           "elif (s := _spatial_string(step.links)).weight or True:",
           "a spatial step whose links cancel still emits its identity "
           "string at pi/2: the exported and controlled gate lists gain "
           "gates the sigma_3 product does not have",
           first="tests/test_cli.py"),
    Mutant("cli-nt-floor-zero", "src/z2wilson/cli.py",
           "if any(v < 1 for v in values):",
           "if any(v < 0 for v in values):",
           "n_T = 0 accepted: sweep reaches its eigensolve and fails there, "
           "not with one error line before any work",
           first="tests/test_cli.py"),
    Mutant("cli-read-not-found-only", "src/z2wilson/cli.py",
           "except OSError as exc:",
           "except FileNotFoundError as exc:",
           "an input path that names a directory ends in a traceback, not "
           "in one error line and exit 2",
           first="tests/test_cli.py"),
    Mutant("plaquette-order-right-left", "src/z2wilson/lattice.py",
           '''lid[("v", x + 1, y)],  # right
                      lid[("h", x, y + 1)],  # top
                      lid[("v", x, y)]))     # left''',
           '''lid[("v", x, y)],      # left
                      lid[("h", x, y + 1)],  # top
                      lid[("v", x + 1, y)]))  # right''',
           "each cell's links listed bottom, left, top, right: the same "
           "plaquette strings, but position 1 of a plaquette is now its "
           "left link, so the plaquette-loop export changes order and the "
           "numbering no longer matches one built from cell coordinates",
           first="tests/test_symmetry.py"),
    Mutant("gate-walk-unchecked", "src/z2wilson/wilson.py",
           "    _check_program(model.lattice, program)\n",
           "",
           "the gate walk runs a program the sector walk refuses: the "
           "exported circuit and the Hadamard test return numbers for an "
           "off-lattice modified link or an open chain",
           first="tests/test_wilson.py"),
    Mutant("link-loop-odd-unchecked", "src/z2wilson/wilson.py",
           "if len(path) % 2:",
           "if False:",
           "a closed loop of odd length (a triangle) gets a link-loop "
           "circuit, whose ping-pong matter registers cannot close it",
           first="tests/test_wilson.py"),
    Mutant("vertex-walk-start", "src/z2wilson/lattice.py",
           "verts = [b if len(links) > 1 and a in lattice.links[links[1]] "
           "else a]",
           "verts = [a]",
           "a link path always walked from its first link's first "
           "endpoint: a path whose second link leaves from there is "
           "refused as not contiguous",
           first="tests/test_acceptance.py"),
    Mutant("cells-horizontal-reversed", "src/z2wilson/lattice.py",
           "for x in sorted(ex for ex, ey in h_edges if ey == y):",
           "for x in sorted((ex for ex, ey in h_edges if ey == y), "
           "reverse=True):",
           "each row's horizontal links numbered right to left: the same "
           "graph under other link ids, so every link named by number "
           "(programs, goldens) lands elsewhere",
           first="tests/test_lattice.py"),
    Mutant("staircase-far-modified-link", "src/z2wilson/programs.py",
           "Temporal(tau, {bottom[1], bottom[3]}),",
           "Temporal(tau, {bottom[1], 15}),",
           "the builtin staircase's first band cuts link 15, which shares "
           "no vertex with the bottom plaquette, in place of its left "
           "link: still gauge invariant, but no longer the paper's loop",
           first="tests/test_acceptance.py"),
    Mutant("spatial-step-first-two", "src/z2wilson/programs.py",
           "walk = _link_walk(lattice, step.links)\n"
           "            if step.links and len(walk) <= len(step.links):",
           "walk = _link_walk(lattice, step.links[:2])\n"
           "            if step.links and len(walk) <= len(step.links[:2]):",
           "a spatial step checked only on its first two links: the T "
           "junction 4, 8, 5 on the cross passes as a chain",
           first="tests/test_programs.py"),
    Mutant("plaquette-touches-four", "src/z2wilson/lattice.py",
           "if len(walk) != 5 or walk[0] != walk[4] or len(set(walk)) != 4:",
           "if len({v for li in plaq for v in lattice.links[li]}) != 4:",
           "a plaquette accepted when its links touch four vertices, "
           "whether or not they walk a cycle: the link-loop and "
           "plaquette-loop exports run a plaquette that is no loop",
           first="tests/test_lattice.py"),
    Mutant("boundary-walk-past-start", "src/z2wilson/lattice.py",
           "while v != start and len(walk) < len(edge):",
           "while len(walk) < len(edge):",
           "the boundary walk goes on past its start until it has as many "
           "links as the boundary: two disjoint squares return one square "
           "walked twice",
           first="tests/test_lattice.py"),
    Mutant("hamiltonian-plaquette-sign", "src/z2wilson/gauge.py",
           "h[rows ^ k, rows] += -model.lam",
           "h[rows ^ k, rows] += model.lam",
           "the sector Hamiltonian's plaquette entries +lam: H is no "
           "longer stoquastic and its ground state no longer positive",
           first="tests/test_gauge.py"),
    Mutant("ground-state-unpinned", "src/z2wilson/gauge.py",
           "hamiltonian_in_sector(model, sector).astype(np.complex128))",
           "hamiltonian_in_sector(model, sector))",
           "sweep's ground state from the real solver: its rounding, which "
           "the recorded sweep references pin, moves",
           first="tests/test_gauge.py"),
    Mutant("evolve-unpinned", "src/z2wilson/gauge.py",
           "hamiltonian_in_sector(model, sector, modified_links\n"
           "                              ).astype(np.complex128))",
           "hamiltonian_in_sector(model, sector, modified_links))",
           "the exact evolution from the real solver: the rounding of "
           "sweep's exact W, which the sweep references pin, moves",
           first="tests/test_gauge.py"),
    Mutant("lanczos-single-start", "src/z2wilson/gauge.py",
           "apply_h, (np.ones(sector.dim), weyl), tol):",
           "apply_h, (np.ones(sector.dim),), tol):",
           "a Lanczos block of one start vector: its Krylov space holds one "
           "vector of a degenerate ground level, so a real degeneracy "
           "reads as a gap and ground-state exits 0",
           first="tests/test_gauge.py"),
    Mutant("lanczos-plaquette-sign", "src/z2wilson/gauge.py",
           "return diag * v - model.lam * flips",
           "return diag * v + model.lam * flips",
           "the matrix-free H v with +lam plaquette terms: on a planar "
           "lattice the spectrum is the same, but the ground state is no "
           "longer the positive vector",
           first="tests/test_gauge.py"),
    Mutant("lanczos-loose-tol", "src/z2wilson/gauge.py",
           "_LANCZOS_TOL = 1e-15",
           "_LANCZOS_TOL = 1e-8",
           "a Lanczos solve that stops at a loose residual: the energy "
           "still agrees to rounding, the amplitudes no longer do",
           first="tests/test_gauge.py"),
    Mutant("lanczos-loose-tol-1e-12", "src/z2wilson/gauge.py",
           "_LANCZOS_TOL = 1e-15",
           "_LANCZOS_TOL = 1e-12",
           "the ground pair's stop 1000 times looser: its residual, which "
           "alone sets the stop, exceeds the oracle comparison's bound",
           first="tests/test_gauge.py"),
    Mutant("evolve-vector-tau-sign", "src/z2wilson/gauge.py",
           "f(tau / n * evals)",
           "f(-tau / n * evals)",
           "the Krylov exponential run backwards in time: on a real ground "
           "state W psi becomes its complex conjugate, so measure's "
           "re_wilson_loop_exact keeps its value and only W psi shows it",
           first="tests/test_trotter.py"),
    Mutant("evolve-vector-drop-imag", "src/z2wilson/gauge.py",
           "_lanczos(apply_h, (re, im), tol)",
           "_lanczos(apply_h, (re, 0 * im), tol)",
           "the exponential's block started from Re v alone: the "
           "evolution of a complex v drops Im v",
           first="tests/test_trotter.py"),
    Mutant("evolve-vector-loose-tol", "src/z2wilson/gauge.py",
           "_EXPM_TOL = 1e-15",
           "_EXPM_TOL = 1e-8",
           "a Krylov exponential that stops at an error estimate of 1e-8: "
           "W psi moves by up to 6e-12 from the dense W applied to psi",
           first="tests/test_trotter.py"),
]

_FIRST_FAILURE = re.compile(r"^(FAILED|ERROR) (\S+)", re.MULTILINE)
# a test function's frame in a faulthandler dump, which lists the innermost
# frame first
_CRASH_FRAME = re.compile(
    r'File "(?:[^"]*/)?(tests/test_\w+\.py)", line \d+ in (test\w*)')


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _killer(proc: subprocess.CompletedProcess) -> str:
    """The report of a failing run: "by" its first failing test, or for a
    run that a signal ended, "crashed" and the test it crashed in."""
    if proc.returncode < 0:
        crash = f"crashed (signal {-proc.returncode})"
        frame = _CRASH_FRAME.search(proc.stderr)
        return f"{crash} in {frame[1]}::{frame[2]}" if frame else crash
    found = _FIRST_FAILURE.search(proc.stdout)
    return f"by {found[2] if found else 'a failing run'}"


def run_mutant(copy: str, mutant: Mutant) -> tuple[bool, str, float]:
    """(killed, what failed the run, seconds) of one mutant in ``copy``,
    whose file is restored afterwards."""
    path = os.path.join(copy, mutant.path)
    with open(path) as fh:
        original = fh.read()
    with open(path, "w") as fh:
        fh.write(original.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    runs = [TIER1 + [mutant.first]] if mutant.first else []
    start = time.monotonic()
    try:
        for argv in runs + [TIER1]:
            proc = subprocess.run(argv, cwd=copy, env=env,
                                  capture_output=True, text=True,
                                  preexec_fn=_cap_memory)
            if proc.returncode:
                break
    finally:
        with open(path, "w") as fh:
            fh.write(original)
    return proc.returncode != 0, _killer(proc), time.monotonic() - start


def main() -> int:
    stale = []
    for m in CATALOGUE:
        with open(os.path.join(ROOT, m.path)) as fh:
            count = fh.read().count(m.old)
        if count != 1:
            stale.append(f"{m.name}: {m.path} holds its text {count} times")
        if m.first and not os.path.isfile(os.path.join(ROOT, m.first)):
            stale.append(f"{m.name}: no test file {m.first}")
    if stale:
        print("catalogue does not match the code:\n  " + "\n  ".join(stale))
        return 2
    survivors = []
    with tempfile.TemporaryDirectory(prefix="z2w-mutants-") as copy:
        _copy_tree(copy)
        for m in CATALOGUE:
            killed, killer, seconds = run_mutant(copy, m)
            if killed:
                print(f"killed    {m.name} ({seconds:.1f} s) {killer}",
                      flush=True)
            elif m.equivalent:
                print(f"survived  {m.name} ({seconds:.1f} s), equivalent: "
                      f"{m.equivalent}", flush=True)
            else:
                print(f"SURVIVED  {m.name} ({seconds:.1f} s): {m.why}",
                      flush=True)
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(CATALOGUE)} mutants killed or equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
