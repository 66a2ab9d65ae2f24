"""Batch front end: ground states, fidelity sweeps, loop measurement, export.

Commands: ``ground-state``, ``sweep``, ``measure``, ``export-circuit``,
``validate``.  Configuration comes from a flat ``key=value`` file plus
command-line overrides; every output file starts with a provenance header
(artifact version, config hash, seed) and is written atomically.  A
command-line flag that the command does not read (:data:`READS`; ``--out``
only where it writes, ``--tau`` only for a builtin program), an output
path that names a directory or lies in a missing one, and an input file
that cannot be read are refused before any output.  Exit codes: 0
success, 2 configuration error, 3 degenerate ground state, 4 numerical
failure, 141 stdout closed early (128 + SIGPIPE, as a shell reports a
process that a closed pipe ended; nothing is printed).

Each command imports the layers it runs when it runs, so a request
loads only those: ``validate`` needs no numpy, ``ground-state`` only
the sector layer, and no command loads the full-space ``statevec``.
``measure --shots`` draws from the package's own :class:`Philox`, so
no command loads ``numpy.random`` or maps OpenSSL's libcrypto.  The
``# seed N rng philox`` header line names that stream: Philox4x64-10
keyed by numpy's ``SeedSequence(N)``, with numpy's binomial sampler,
pinned in the package.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from . import __version__
from .lattice import (Lattice, build_cross, build_rect, lattice_from_text,
                      validate)

if TYPE_CHECKING:
    from .gauge import PhysicalSector, Z2Model
    from .programs import LoopProgram

UNITARITY_TOLERANCE = 1e-8
MAX_SHOTS = (1 << 63) - 1          # the binomial sampler's int64 n
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141


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
        # CPython's own SHA-256 module: hashlib would map OpenSSL's
        # libcrypto into the process for these 16 hex digits
        try:
            from _sha2 import sha256            # CPython 3.12+
        except ImportError:
            try:
                from _sha256 import sha256      # CPython 3.10-3.11
            except ImportError:
                from hashlib import sha256
        text = "\n".join(self.as_lines())
        return sha256(text.encode()).hexdigest()[:16]


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


def _read(what: str, path: str) -> str:
    """An input file's text; one that cannot be read is refused."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc.strerror}"
                          ) from None


def load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    entries: dict[str, str] = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file {path!r} does not exist")
        for raw in _read("config file", path).split("\n"):
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
            if key == "threshold" and not math.isfinite(cfg.threshold):
                raise ConfigError(f"threshold must be finite, "
                                  f"got {cfg.threshold}")
        elif key in ("shots", "seed"):
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise ConfigError(f"bad integer for {key}: {value!r}") from exc
            if getattr(cfg, key) < 0:
                raise ConfigError(f"{key} must be >= 0, "
                                  f"got {getattr(cfg, key)}")
            if key == "shots" and cfg.shots > MAX_SHOTS:
                raise ConfigError(f"shots must be <= 2**63 - 1, "
                                  f"got {cfg.shots}")
        else:
            setattr(cfg, key, str(value))
    return cfg


def resolve_lattice(cfg: RunConfig) -> Lattice:
    spec = cfg.lattice
    if spec == "cross":
        return build_cross()
    if spec.startswith("rect:"):
        try:
            w, h = (int(p) for p in spec[5:].lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"bad rect spec {spec!r}; use rect:WxH") from exc
        return build_rect(w, h)
    if os.path.exists(spec):
        text = _read("lattice file", spec)
        try:
            lat = lattice_from_text(text)
        except ValueError as exc:
            raise ConfigError(f"lattice file {spec!r}: {exc}") from None
        problems = validate(lat)
        if problems:
            raise ConfigError(f"lattice file {spec!r} invalid: {problems[0]}")
        return lat
    raise ConfigError(f"lattice {spec!r} is neither cross, rect:WxH, nor a file")


def resolve_program(cfg: RunConfig) -> LoopProgram:
    from .programs import BUILTIN_PROGRAMS, program_from_text
    spec = cfg.program
    if spec in BUILTIN_PROGRAMS:
        return BUILTIN_PROGRAMS[spec](cfg.tau)
    if os.path.exists(spec):
        return program_from_text(_read("program file", spec))
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
    from .gauge import Z2Model, build_physical_sector
    model = Z2Model(resolve_lattice(cfg), cfg.lam)
    program = _checked_program(cfg, model.lattice) if with_program else None
    _check_overflow(model, program)
    return model, program, build_physical_sector(model)


def _program_refusal(cfg: RunConfig, error: str) -> ConfigError:
    """The refusal of a program whose first validation error is ``error``.

    Builtins are written in the cross's link numbers, so on another
    lattice the refusal says so and asks for a program file.
    """
    from .programs import BUILTIN_PROGRAMS
    if cfg.program not in BUILTIN_PROGRAMS:
        return ConfigError(error)
    return ConfigError(
        f"builtin program {cfg.program!r} holds the cross's link numbers "
        f"and does not fit lattice {cfg.lattice!r} ({error}); give a "
        "loop program for this lattice with --program FILE")


def _checked_program(cfg: RunConfig, lattice: Lattice) -> LoopProgram:
    """The run's program; one with validation errors is refused here."""
    from .programs import program_errors
    program = resolve_program(cfg)
    errs = program_errors(lattice, program)
    if errs:
        raise _program_refusal(cfg, errs[0])
    return program


def _check_overflow(model: Z2Model, program: LoopProgram | None) -> None:
    """Refuse a coupling whose energies, or a step whose phases, overflow.

    Every energy is at most the Gershgorin bound of
    :func:`spectral_bound`, and every phase of an evolution step, exact or
    Trotterized, at most |tau| times it.  A finite tau and lambda can
    still make either inf, and the run would then print inf or nan, or
    fail part-way through its output.
    """
    from .gauge import spectral_bound
    bound = spectral_bound(model)
    if not math.isfinite(bound):
        raise ConfigError(
            f"energies must be finite, got n_links + |lambda| * n_plaq = "
            f"{bound} at lambda={model.lam}")
    if program is None:
        return
    from .programs import Temporal
    for step in (s for s in program.steps if isinstance(s, Temporal)):
        kind = "temporal step" if step.modified_links else "free evolution"
        phase = abs(step.tau) * bound
        if not math.isfinite(phase):
            raise ConfigError(
                f"{kind} phases must be finite, got |tau| * (n_links + "
                f"|lambda| * n_plaq) = {phase} at tau={step.tau}, "
                f"lambda={model.lam}")


def _solve(solver, model: Z2Model, sector) -> tuple[tuple, bool]:
    """Run a ground-state solver; also report whether it warned that the
    ground state is degenerate.  Other warnings pass through.  A Lanczos
    solve that does not converge is a numerical failure."""
    from .gauge import ConvergenceError, DegenerateGroundStateWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateGroundStateWarning)
        try:
            result = solver(model, sector)
        except ConvergenceError as exc:
            raise NumericalFailure(str(exc)) from None
    degenerate = False
    for w in caught:
        if issubclass(w.category, DegenerateGroundStateWarning):
            degenerate = True
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result, degenerate


def _single_nt(cfg: RunConfig, command: str) -> int:
    """The one n_T a command runs; a list of several given by ``--nt`` or
    the config file is refused, not cut to its first value."""
    if "nt" in getattr(cfg, "_explicit", set()) and len(cfg.nt) > 1:
        raise ConfigError(
            f"{command} runs one n_T, got nt={','.join(map(str, cfg.nt))}; "
            "give a single value")
    return cfg.nt[0]


def _report_degenerate() -> int:
    print("degenerate_ground_state true")
    return EXIT_DEGENERATE


def cmd_ground_state(cfg: RunConfig) -> int:
    from .gauge import (sector_basis_dump, sector_gauge_violation,
                        sector_ground_state)
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
    from .gauge import pinned_ground_state
    from .trotter import report_to_csv, sweep
    model, program, sector = _setup(cfg)
    # the full-space state, projected back: recorded sweep references pin
    # its rounding (ROADMAP item 1)
    (_, coords), degenerate = _solve(pinned_ground_state, model, sector)
    if degenerate:
        return _report_degenerate()
    report = sweep(model, program, coords, list(cfg.nt), sector)
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
    import numpy as np

    from .gauge import ConvergenceError, _substeps, sector_ground_state
    from .philox import Philox
    from .programs import Temporal
    from .trotter import exact_loop_vector, trotterized_loop_vector
    from .wilson import hadamard_test, sample_p_plus
    n_T = _single_nt(cfg, "measure")
    model, program, sector = _setup(cfg)
    for step in program.steps:      # W psi's exponentials, refused up front
        if isinstance(step, Temporal):
            _substeps(model, sector.dim, step.tau)
    (_, coords), degenerate = _solve(sector_ground_state, model, sector)
    if degenerate:
        return _report_degenerate()
    p_exact = hadamard_test(model, sector, coords, program, n_T)
    # sector-oracle cross-checks of the same quantities, from W_nT psi and
    # W psi: no dim x dim operator is built.  psi is real, so Re <psi|x>
    # is psi . Re x
    psi = coords.real
    try:
        wl = psi @ exact_loop_vector(model, sector, program, coords).real
    except ConvergenceError as exc:
        raise NumericalFailure(str(exc)) from None
    p_oracle = (2 + 2 * (psi @ trotterized_loop_vector(
        model, sector, program, n_T, coords).real)) / 4
    print(f"n_T {n_T}")
    print(f"p_plus_exact {p_exact:.17g}")
    print(f"re_wilson_loop {2 * p_exact - 1:.17g}")
    if cfg.shots:
        p_sampled = sample_p_plus(p_exact, cfg.shots, Philox(cfg.seed))
        stderr = float(np.sqrt(max(p_exact * (1 - p_exact), 0.0)
                               / cfg.shots))
        print(f"p_plus_sampled {p_sampled:.17g}")
        print(f"binomial_std_error {stderr:.17g}")
    print(f"p_plus_oracle {p_oracle:.17g}")
    print(f"re_wilson_loop_exact {wl:.17g}")
    return EXIT_OK


def cmd_export_circuit(cfg: RunConfig) -> int:
    from .circuits import circuit_to_text
    from .wilson import (rect_loop_link_circuit, rect_loop_plaquette_circuit,
                         trotterized_program_circuit)
    lat = resolve_lattice(cfg)
    if cfg.kind == "program":
        from .gauge import Z2Model
        model = Z2Model(lat, cfg.lam)
        n_T = _single_nt(cfg, "export-circuit")
        program = _checked_program(cfg, lat)
        _check_overflow(model, program)
        circuit = trotterized_program_circuit(model, program, n_T)
    else:                           # a loop kind: main refuses any other
        build = (rect_loop_plaquette_circuit if cfg.kind == "plaquette-loop"
                 else rect_loop_link_circuit)
        circuit = build(lat)
    text = provenance_header(cfg) + circuit_to_text(circuit)
    _emit(cfg.out, text)
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    lat = resolve_lattice(cfg)      # refuses an invalid lattice file
    explicit = getattr(cfg, "_explicit", set())
    # energies and phases overflow through lambda and the program's taus
    if {"program", "tau", "lam"} & explicit:
        from .gauge import Z2Model
        program = resolve_program(cfg)
        _check_overflow(Z2Model(lat, cfg.lam), program)
    # --tau is a parameter of the builtin programs, so it is checked too
    if {"program", "tau"} & explicit:
        from .programs import BUILTIN_PROGRAMS, validate_program
        diags = validate_program(lat, program)
        errs = [d for d in diags if d.startswith("error:")]
        if errs and cfg.program in BUILTIN_PROGRAMS:
            raise _program_refusal(cfg, errs[0].removeprefix("error: "))
        for d in diags:
            print(f"program: {d}")
        if errs:
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


# The RunConfig fields each command reads; export-circuit's depend on its
# kind.  A command-line flag outside its entry is refused: --out and the
# header's --seed go with the writing commands, --seed also with measure.
# A config file may hold any key: one file may serve several commands.
READS = {
    "validate": {"lattice", "lam", "program", "tau"},
    "ground-state": {"lattice", "lam", "seed", "out"},
    "sweep": {"lattice", "lam", "program", "tau", "nt", "threshold", "seed",
              "out"},
    "measure": {"lattice", "lam", "program", "tau", "nt", "shots", "seed"},
    "export-circuit --kind program": {"kind", "lattice", "lam", "program",
                                      "tau", "nt", "seed", "out"},
    "export-circuit --kind plaquette-loop": {"kind", "lattice", "seed", "out"},
    "export-circuit --kind link-loop": {"kind", "lattice", "seed", "out"},
}


def _check_flags(key: str, cfg: RunConfig, flags) -> None:
    """Refuse command-line ``flags`` (RunConfig field names) outside
    ``READS[key]``, and ``--tau`` beside a program file."""
    unread = sorted(set(flags) - READS[key])
    if unread:
        names = ", ".join("--lambda" if f == "lam" else f"--{f}"
                          for f in unread)
        raise ConfigError(f"{key} does not read {names}")
    if "tau" in flags:
        from .programs import BUILTIN_PROGRAMS
        if cfg.program not in BUILTIN_PROGRAMS:
            raise ConfigError(f"{key} reads --tau only for a builtin "
                              f"program, not {cfg.program!r}")


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


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--opt -1e-3`` as ``--opt=-1e-3``: argparse takes a token that
    starts with '-' for an option unless it is a plain negative number like
    -1 or -0.5, so -1e-3, -1e308 or -inf would leave --opt without a value."""
    out: list[str] = []
    for tok in argv:
        if (_NEGATIVE_NUMBER.match(tok) and out and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    try:
        cfg = load_config(args.config, overrides)
        key = (f"{args.command} --kind {cfg.kind}"
               if args.command == "export-circuit" else args.command)
        if key not in READS:
            raise ConfigError(f"unknown circuit kind {cfg.kind!r}")
        _check_flags(key, cfg,
                     [k for k, v in overrides.items() if v is not None])
        if "out" in READS[key] and cfg.out and (os.path.isdir(cfg.out) or
                not os.path.isdir(os.path.dirname(os.path.abspath(cfg.out)))):
            raise ConfigError(f"cannot write --out {cfg.out!r}: not a file "
                              "in an existing directory")
        code = COMMANDS[args.command](cfg)
        sys.stdout.flush()
        return code
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader left: what is still buffered has nowhere to go, and the
        # interpreter's own flush at exit would raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
