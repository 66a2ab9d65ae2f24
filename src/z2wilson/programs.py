"""Space-time loop programs: ordered spatial and temporal steps.

A program is the stroboscopic recipe for one space-time Wilson loop:

* ``Spatial(links)``      -- product of sigma_3 over a chain of links,
* ``Temporal(tau, mods)`` -- e^{-i tau (H + sum_{e in mods} 2 sigma_1(e))},
  the minimal temporal-loop band whose cross-section cuts the listed links;
  with no links, the free evolution e^{-i tau H} (an ``EVOLVE`` record).

Steps are listed in application order (the first step hits the state
first).  Gauge invariance of the whole program requires the symmetric
difference of all Spatial links to be an even-degree subgraph; that is a
hard validation error.  A link listed twice cancels (sigma_3**2 = I),
within one step as across steps.  Temporal steps whose modified set does
not match the running frontier (symmetric difference of Spatial links seen
so far) still compose to gauge-invariant operators, so that mismatch, or a
free evolution with an open frontier, is reported as a note, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import Lattice, _odd_links, build_cross


class ProgramError(ValueError):
    pass


def _finite_tau(tau, step: str) -> float:
    tau = float(tau)
    if not math.isfinite(tau):
        raise ProgramError(f"{step} tau must be finite, got {tau}")
    return tau


@dataclass(frozen=True)
class Spatial:
    links: tuple[int, ...]

    def __init__(self, links):
        object.__setattr__(self, "links", tuple(links))


@dataclass(frozen=True)
class Temporal:
    tau: float
    modified_links: frozenset[int]

    def __init__(self, tau, modified_links):
        mods = frozenset(modified_links)
        object.__setattr__(self, "tau", _finite_tau(
            tau, "temporal step" if mods else "free evolution"))
        object.__setattr__(self, "modified_links", mods)


Step = Spatial | Temporal


@dataclass(frozen=True)
class LoopProgram:
    steps: tuple[Step, ...]

    def __init__(self, steps):
        object.__setattr__(self, "steps", tuple(steps))

    def n_temporal(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, Temporal))


def _is_even_subgraph(lattice: Lattice, links: set[int]) -> bool:
    mask = sum(1 << li for li in links)
    return not any((mask & star).bit_count() & 1
                   for star in lattice.star_masks)


def _is_contiguous_chain(lattice: Lattice, links: tuple[int, ...]) -> bool:
    for k in range(len(links) - 1):
        a1, b1 = lattice.links[links[k]]
        a2, b2 = lattice.links[links[k + 1]]
        if not ({a1, b1} & {a2, b2}):
            return False
    return True


def validate_program(lattice: Lattice, program: LoopProgram) -> list[str]:
    """Diagnostics: "error:" entries block composition, "note:" ones do not."""
    out: list[str] = []
    frontier: set[int] = set()
    spatial_total: set[int] = set()
    for k, step in enumerate(program.steps):
        if isinstance(step, Spatial):
            bad = [li for li in step.links
                   if not 0 <= li < lattice.n_links]
            if bad:
                out.append(f"error: step {k}: links {bad} not on lattice")
                continue
            if not _is_contiguous_chain(lattice, step.links):
                out.append(f"error: step {k}: spatial links are not a "
                           f"contiguous chain")
            frontier ^= _odd_links(step.links)
            spatial_total ^= _odd_links(step.links)
        elif isinstance(step, Temporal):
            bad = [li for li in step.modified_links
                   if not 0 <= li < lattice.n_links]
            if bad:
                out.append(f"error: step {k}: modified links {bad} not on "
                           f"lattice")
                continue
            if not step.modified_links and frontier:
                out.append(f"note: step {k}: free evolution with open spatial "
                           f"frontier {sorted(frontier)}")
            elif step.modified_links and step.modified_links != frontier:
                out.append(f"note: step {k}: modified set "
                           f"{sorted(step.modified_links)} differs from the "
                           f"spatial frontier {sorted(frontier)}")
        else:
            out.append(f"error: step {k}: unknown step type {type(step)}")
    if not _is_even_subgraph(lattice, spatial_total):
        out.append(
            "error: spatial traversals do not close (odd-traversal links "
            f"{sorted(spatial_total)} are not an even-degree subgraph); the "
            "composed operator is not gauge invariant"
        )
    return out


def program_errors(lattice: Lattice, program: LoopProgram) -> list[str]:
    """The "error:" diagnostics of :func:`validate_program`, unprefixed."""
    return [d.removeprefix("error: ")
            for d in validate_program(lattice, program)
            if d.startswith("error:")]


def _check_program(lattice: Lattice, program: LoopProgram) -> None:
    """Refuse a program with any error of :func:`program_errors`: the one
    check at the top of each walk, in ``trotter`` and in ``wilson``."""
    errs = program_errors(lattice, program)
    if errs:
        raise ProgramError("; ".join(errs))


def staircase_default(tau: float = 1.0) -> LoopProgram:
    """Two-slice staircase on the central column of the cross.

    Slice one traverses the bottom-center plaquette, then a temporal band
    whose cross-section cuts that plaquette's two side links; slice two
    repeats one cell up (the center plaquette).  Each temporal band lasts
    ``tau``.
    """
    lat = build_cross()
    # cross cells (1,0) and (1,1) are plaquettes 0 and 2 in row-major order
    bottom = lat.plaquettes[0]
    center = lat.plaquettes[2]
    # plaquette link order is (bottom, right, top, left)
    return LoopProgram([
        Spatial(bottom),
        Temporal(tau, {bottom[1], bottom[3]}),
        Spatial(center),
        Temporal(tau, {center[1], center[3]}),
    ])


BUILTIN_PROGRAMS = {"staircase-default": staircase_default}


# ---------------------------------------------------------------------------
# line-oriented program files
# ---------------------------------------------------------------------------

def program_to_text(program: LoopProgram) -> str:
    lines = []
    for step in program.steps:
        if isinstance(step, Spatial):
            lines.append("SPATIAL " + " ".join(str(li) for li in step.links))
        elif step.modified_links:
            mods = " ".join(str(li) for li in sorted(step.modified_links))
            lines.append(f"TEMPORAL {step.tau:.17g} {mods}")
        else:
            lines.append(f"EVOLVE {step.tau:.17g}")
    return "\n".join(lines) + "\n"


def program_from_text(text: str) -> LoopProgram:
    steps: list[Step] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        if kind == "SPATIAL":
            if len(parts) < 2:
                raise ProgramError("SPATIAL needs at least one link")
            steps.append(Spatial(int(p) for p in parts[1:]))
        elif kind == "TEMPORAL":
            if len(parts) < 3:
                raise ProgramError("TEMPORAL needs a tau and at least one link")
            steps.append(Temporal(float(parts[1]),
                                  {int(p) for p in parts[2:]}))
        elif kind == "EVOLVE":
            if len(parts) != 2:
                raise ProgramError("EVOLVE takes exactly one tau")
            steps.append(Temporal(float(parts[1]), ()))
        else:
            raise ProgramError(f"unknown program record {kind!r}")
    return LoopProgram(steps)
