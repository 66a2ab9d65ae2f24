"""Batch front end: ground states, fidelity sweeps, loop measurement, export.

Commands: ``ground-state``, ``sweep``, ``measure``, ``export-circuit``,
``validate``.  Configuration comes from a flat ``key=value`` file plus
command-line overrides; every output file starts with a provenance header
(artifact version, config hash, seed) and is written atomically.  Exit
codes: 0 success, 2 configuration error, 3 degenerate ground state,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .circuits import circuit_to_text
from .gauge import (DegenerateGroundStateWarning, GaugeError,
                    PhysicalSector, Z2Model, build_physical_sector,
                    embed_state, ground_state, sector_basis_dump,
                    sector_gauge_violation, sector_ground_state)
from .lattice import (Lattice, build_cross, build_rect, lattice_from_text,
                      validate)
from .programs import (BUILTIN_PROGRAMS, LoopProgram, ProgramError,
                       program_errors, program_from_text, validate_program)
from .trotter import (exact_loop_operator, report_to_csv, sweep,
                      trotterized_loop_operator)
from .wilson import (hadamard_test, rect_loop_link_circuit,
                     rect_loop_plaquette_circuit, sample_p_plus,
                     trotterized_program_circuit)

UNITARITY_TOLERANCE = 1e-8

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


@dataclass
class RunConfig:
    lattice: str = "cross"
    lam: float = 10.0
    program: str = "staircase-default"
    nt: tuple[int, ...] = (8, 16, 32, 64, 128)
    shots: int = 0               # 0 = exact only
    seed: int = 20210803
    threshold: float = 0.95
    out: str = ""
    kind: str = "program"        # export-circuit construction
    tau: float = 1.0

    def as_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            if f.name == "out":      # destination is not part of the experiment
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, float):
                v = f"{v:.17g}"
            out.append(f"{f.name}={v}")
        return out

    def config_hash(self) -> str:
        text = "\n".join(self.as_lines())
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_nt(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError as exc:
        raise ConfigError(f"bad n_T list {text!r}") from exc
    if not values:
        raise ConfigError("empty n_T list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"n_T list must be strictly increasing: {values}")
    if any(v < 1 for v in values):
        raise ConfigError("n_T values must be >= 1")
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    entries: dict[str, str] = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file {path!r} does not exist")
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    entries.update({k: v for k, v in overrides.items() if v is not None})
    valid = {f.name for f in fields(RunConfig)}
    cfg._explicit = set(entries)
    for key, value in entries.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "nt":
            cfg.nt = _parse_nt(value) if isinstance(value, str) else tuple(value)
        elif key in ("lam", "threshold", "tau"):
            try:
                setattr(cfg, key, float(value))
            except ValueError as exc:
                raise ConfigError(f"bad float for {key}: {value!r}") from exc
        elif key in ("shots", "seed"):
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise ConfigError(f"bad integer for {key}: {value!r}") from exc
        else:
            setattr(cfg, key, str(value))
    return cfg


def resolve_lattice(cfg: RunConfig) -> Lattice:
    spec = cfg.lattice
    if spec == "cross":
        return build_cross()
    if spec.startswith("rect:"):
        try:
            w, h = spec[5:].lower().split("x")
            return build_rect(int(w), int(h))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad rect spec {spec!r}; use rect:WxH") from exc
    if os.path.exists(spec):
        with open(spec) as fh:
            lat = lattice_from_text(fh.read())
        problems = validate(lat)
        if problems:
            raise ConfigError(f"lattice file {spec!r} invalid: {problems[0]}")
        return lat
    raise ConfigError(f"lattice {spec!r} is neither cross, rect:WxH, nor a file")


def resolve_program(cfg: RunConfig) -> LoopProgram:
    spec = cfg.program
    if spec in BUILTIN_PROGRAMS:
        return BUILTIN_PROGRAMS[spec](cfg.tau)
    if os.path.exists(spec):
        with open(spec) as fh:
            return program_from_text(fh.read())
    raise ConfigError(f"program {spec!r} is neither a builtin "
                      f"({', '.join(BUILTIN_PROGRAMS)}) nor a file")


def provenance_header(cfg: RunConfig) -> str:
    return (f"# z2wilson {__version__}\n"
            f"# config_hash {cfg.config_hash()}\n"
            f"# seed {cfg.seed} rng philox\n")


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".z2w-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str, text: str) -> None:
    if path:
        atomic_write(path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _setup(cfg: RunConfig, with_program: bool = True
           ) -> tuple[Z2Model, LoopProgram | None, PhysicalSector]:
    """Model, program and physical sector of a run.

    A program with validation errors is refused here, before any output.
    """
    model = Z2Model(resolve_lattice(cfg), cfg.lam)
    program = None
    if with_program:
        program = resolve_program(cfg)
        errs = program_errors(model.lattice, program)
        if errs:
            raise ConfigError(errs[0])
    return model, program, build_physical_sector(model)


def _solve(solver, model: Z2Model, sector) -> tuple[tuple, bool]:
    """Run a ground-state solver; also report whether it warned that the
    ground state is degenerate.  Other warnings pass through."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateGroundStateWarning)
        result = solver(model, sector)
    degenerate = False
    for w in caught:
        if issubclass(w.category, DegenerateGroundStateWarning):
            degenerate = True
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result, degenerate


def _report_degenerate() -> int:
    print("degenerate_ground_state true")
    return EXIT_DEGENERATE


def cmd_ground_state(cfg: RunConfig) -> int:
    model, _, sector = _setup(cfg, with_program=False)
    (energy, coords), degenerate = _solve(sector_ground_state, model, sector)
    violation = sector_gauge_violation(model, sector, coords)
    print(f"sector_dim {sector.dim}")
    print(f"ground_energy {energy:.17g}")
    print(f"gauge_violation {violation:.17g}")
    if degenerate:
        return _report_degenerate()
    if cfg.out:
        lines = [provenance_header(cfg).rstrip("\n"),
                 f"# ground_energy {energy:.17g}"]
        lines.append(sector_basis_dump(sector).rstrip("\n"))
        for k, c in enumerate(coords):
            lines.append(f"AMP {k} {c.real:.17g} {c.imag:.17g}")
        atomic_write(cfg.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    model, program, sector = _setup(cfg)
    # the full-space state: recorded sweep references pin it (ROADMAP item 2)
    (_, gs), degenerate = _solve(ground_state, model, sector)
    if degenerate:
        return _report_degenerate()
    report = sweep(model, program, gs, list(cfg.nt), sector)
    for (n_T, _, _), err in zip(report.rows, report.unitarity_errors):
        if err > UNITARITY_TOLERANCE:
            raise NumericalFailure(
                f"Trotterized operator at n_T={n_T} drifted from unitarity "
                f"by {err:.3e}")
    text = provenance_header(cfg) + report_to_csv(report)
    reached = [n for n, _, fgs in report.rows if fgs >= cfg.threshold]
    text += (f"# min_n_T_at_threshold {cfg.threshold:.17g}: "
             f"{reached[0] if reached else 'none'}\n")
    _emit(cfg.out, text)
    return EXIT_OK


def cmd_measure(cfg: RunConfig) -> int:
    model, program, sector = _setup(cfg)
    (_, coords), degenerate = _solve(sector_ground_state, model, sector)
    if degenerate:
        return _report_degenerate()
    # the gate circuit is the one route that needs the full space; the
    # embedding refuses more than 26 links before anything is printed
    gs = embed_state(sector, coords)
    n_T = cfg.nt[0]
    print(f"n_T {n_T}")
    p_exact = hadamard_test(gs, model, program, n_T)
    print(f"p_plus_exact {p_exact:.17g}")
    print(f"re_wilson_loop {2 * p_exact - 1:.17g}")
    if cfg.shots:
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        p_sampled = sample_p_plus(p_exact, cfg.shots, rng)
        stderr = float(np.sqrt(max(p_exact * (1 - p_exact), 0.0)
                               / cfg.shots))
        print(f"p_plus_sampled {p_sampled:.17g}")
        print(f"binomial_std_error {stderr:.17g}")
    # sector-oracle cross-checks of the same quantities
    w_nt = trotterized_loop_operator(model, sector, program, n_T)
    p_oracle = (2 + 2 * np.real(np.vdot(coords, w_nt.matrix @ coords))) / 4
    print(f"p_plus_oracle {p_oracle:.17g}")
    w = exact_loop_operator(model, sector, program)
    wl = complex(np.vdot(coords, w.matrix @ coords))
    print(f"re_wilson_loop_exact {wl.real:.17g}")
    return EXIT_OK


def cmd_export_circuit(cfg: RunConfig) -> int:
    lat = resolve_lattice(cfg)
    model = Z2Model(lat, cfg.lam)
    if cfg.kind == "program":
        program = resolve_program(cfg)
        circuit = trotterized_program_circuit(model, program, cfg.nt[0])
    elif cfg.kind == "plaquette-loop":
        if not cfg.lattice.startswith("rect:"):
            raise ConfigError("plaquette-loop export needs a rect:WxH lattice")
        w, h = (int(p) for p in cfg.lattice[5:].lower().split("x"))
        circuit = rect_loop_plaquette_circuit(lat, w, h)
    elif cfg.kind == "link-loop":
        if not cfg.lattice.startswith("rect:"):
            raise ConfigError("link-loop export needs a rect:WxH lattice")
        w, h = (int(p) for p in cfg.lattice[5:].lower().split("x"))
        circuit = rect_loop_link_circuit(lat, w, h)
    else:
        raise ConfigError(f"unknown circuit kind {cfg.kind!r}")
    text = provenance_header(cfg) + circuit_to_text(circuit)
    _emit(cfg.out, text)
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    lat = resolve_lattice(cfg)
    problems = validate(lat)
    for p in problems:
        print(f"lattice: {p}")
    program_errs: list[str] = []
    if "program" in getattr(cfg, "_explicit", set()):
        program = resolve_program(cfg)
        diags = validate_program(lat, program)
        for d in diags:
            print(f"program: {d}")
        program_errs = [d for d in diags if d.startswith("error:")]
    if problems or program_errs:
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


COMMANDS = {
    "ground-state": cmd_ground_state,
    "sweep": cmd_sweep,
    "measure": cmd_measure,
    "export-circuit": cmd_export_circuit,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2wilson",
        description="Space-time Wilson loops in pure Z(2) lattice gauge theory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--lattice", help="cross | rect:WxH | lattice file")
    parser.add_argument("--lambda", dest="lam", help="coupling constant")
    parser.add_argument("--program",
                        help="loop-program file or builtin name")
    parser.add_argument("--nt", help="comma-separated Trotter step list")
    parser.add_argument("--tau", help="time per temporal step for builtins")
    parser.add_argument("--shots", help="Hadamard-test shot count (0 = exact)")
    parser.add_argument("--seed", help="RNG seed (philox)")
    parser.add_argument("--threshold",
                        help="fidelity threshold for the minimum-n_T readout")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--kind",
                        help="export-circuit construction: program | "
                             "plaquette-loop | link-loop")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "lattice": args.lattice,
        "lam": args.lam,
        "program": args.program,
        "nt": args.nt,
        "tau": args.tau,
        "shots": args.shots,
        "seed": args.seed,
        "threshold": args.threshold,
        "out": args.out,
        "kind": args.kind,
    }
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except (ConfigError, ProgramError, GaugeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
