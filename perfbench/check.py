"""Correctness gate: parse z2wilson CLI outputs and check them.

Each check compares against references recorded at the seed commit
(``references.json``) within the tolerances below and tests invariants
that hold for every correct output.  A check returns a list of problems;
an empty list means the response is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import Request

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

FIDELITY_TOL = 1e-9        # absolute, per CSV fidelity
EXPONENT_TOL = 1e-6        # absolute, per fit exponent
EXPONENT_RANGE = (-4.5, -3.5)
PROBABILITY_TOL = 1e-9     # absolute, p_plus_exact / p_plus_oracle vs reference
ROUTE_AGREEMENT = 1e-10    # |p_plus_exact - p_plus_oracle|
SHOT_SIGMAS = 5.0          # sampled p_plus within this many binomial std errors
ENERGY_TOL = 1e-9          # absolute, ground energy
AMPLITUDE_TOL = 1e-8       # absolute, per sector amplitude component
GAUGE_TOL = 1e-10          # gauge_violation ceiling


def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def key_values(text: str) -> dict[str, str]:
    """``key value`` lines of measure / ground-state stdout."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            out[parts[0]] = parts[1]
    return out


def parse_sweep_csv(text: str) -> dict:
    """Rows by column name (extra columns ignored) plus fit exponents."""
    rows, header, fits = [], None, {}
    for line in text.splitlines():
        if line.startswith("# fit "):
            name, _, rest = line[len("# fit "):].partition(":")
            fields = dict(f.split("=", 1) for f in rest.split())
            fits[name] = float(fields["exponent"])
        elif line.startswith("#") or not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    for col in ("n_T", "op_fidelity", "gs_fidelity"):
        if header is None or col not in header:
            raise ValueError(f"sweep CSV lacks column {col!r}")
    return {"n_T": [int(r["n_T"]) for r in rows],
            "op_fidelity": [float(r["op_fidelity"]) for r in rows],
            "gs_fidelity": [float(r["gs_fidelity"]) for r in rows],
            "fits": fits}


def parse_ground_out(text: str) -> dict:
    basis, amps = [], []
    for line in text.splitlines():
        if line.startswith("BASIS "):
            basis.append(line)
        elif line.startswith("AMP "):
            _, _, re, im = line.split()
            amps.append((float(re), float(im)))
    digest = hashlib.sha256("\n".join(basis).encode()).hexdigest()
    return {"basis_sha256": digest, "amps": amps}


def summarize(req: Request, stdout: str, out_text: str | None) -> dict:
    """The reference-relevant values of one response."""
    if req.command == "sweep":
        return parse_sweep_csv(out_text or "")
    kv = key_values(stdout)
    if req.command == "measure":
        return {k: float(kv[k]) for k in
                ("p_plus_exact", "p_plus_oracle", "re_wilson_loop_exact")}
    summary = {"sector_dim": int(kv["sector_dim"]),
               "ground_energy": float(kv["ground_energy"])}
    summary.update(parse_ground_out(out_text or ""))
    return summary


def _close(problems, what, got, want, tol):
    if not (abs(got - want) <= tol):
        problems.append(f"{what}: {got!r} differs from reference {want!r} "
                        f"by more than {tol:g}")


def check_sweep(req: Request, stdout: str, out_text: str | None,
                ref: dict) -> list[str]:
    problems: list[str] = []
    got = parse_sweep_csv(out_text or "")
    if got["n_T"] != list(req.nt):
        return [f"n_T column {got['n_T']} != requested {list(req.nt)}"]
    for col in ("op_fidelity", "gs_fidelity"):
        for n, g, w in zip(req.nt, got[col], ref[col]):
            _close(problems, f"{col} at n_T={n}", g, w, FIDELITY_TOL)
    lo, hi = EXPONENT_RANGE
    for name in ("op", "gs"):
        if name not in got["fits"]:
            problems.append(f"missing {name} fit")
            continue
        exp = got["fits"][name]
        if not lo <= exp <= hi:
            problems.append(f"{name} exponent {exp} outside [{lo}, {hi}]")
        _close(problems, f"{name} exponent", exp, ref["fits"][name],
               EXPONENT_TOL)
    return problems


def check_measure(req: Request, stdout: str, out_text: str | None,
                  ref: dict) -> list[str]:
    problems: list[str] = []
    kv = key_values(stdout)
    if kv.get("n_T") != str(req.nt[0]):
        return [f"n_T echo {kv.get('n_T')!r} != requested {req.nt[0]}"]
    try:
        exact = float(kv["p_plus_exact"])
        oracle = float(kv["p_plus_oracle"])
        wl_exact = float(kv["re_wilson_loop_exact"])
        sampled = float(kv["p_plus_sampled"])
    except KeyError as exc:
        return [f"measure output lacks {exc.args[0]}"]
    _close(problems, "p_plus_exact", exact, ref["p_plus_exact"],
           PROBABILITY_TOL)
    _close(problems, "p_plus_oracle", oracle, ref["p_plus_oracle"],
           PROBABILITY_TOL)
    _close(problems, "re_wilson_loop_exact", wl_exact,
           ref["re_wilson_loop_exact"], PROBABILITY_TOL)
    if abs(exact - oracle) > ROUTE_AGREEMENT:
        problems.append(f"gate route {exact} and sector route {oracle} differ "
                        f"by more than {ROUTE_AGREEMENT:g}")
    stderr = math.sqrt(max(exact * (1 - exact), 0.0) / req.shots)
    if abs(sampled - exact) > SHOT_SIGMAS * stderr + 1e-12:
        problems.append(f"sampled p_plus {sampled} is more than {SHOT_SIGMAS:g} "
                        f"binomial std errors ({stderr:.3g}) from {exact}")
    return problems


def check_ground(req: Request, stdout: str, out_text: str | None,
                 ref: dict, n_links: int, n_vertices: int) -> list[str]:
    problems: list[str] = []
    kv = key_values(stdout)
    if "degenerate_ground_state" in kv:
        return ["ground state reported degenerate"]
    try:
        dim = int(kv["sector_dim"])
        energy = float(kv["ground_energy"])
        violation = float(kv["gauge_violation"])
    except KeyError as exc:
        return [f"ground-state output lacks {exc.args[0]}"]
    expected_dim = 1 << (n_links - n_vertices + 1)
    if dim != expected_dim:
        problems.append(f"sector_dim {dim} != 2^(L-V+1) = {expected_dim}")
    _close(problems, "ground_energy", energy, ref["ground_energy"], ENERGY_TOL)
    if not violation <= GAUGE_TOL:
        problems.append(f"gauge_violation {violation} > {GAUGE_TOL:g}")
    got = parse_ground_out(out_text or "")
    if got["basis_sha256"] != ref["basis_sha256"]:
        problems.append("sector basis dump differs from reference")
    if len(got["amps"]) != expected_dim:
        return problems + [f"{len(got['amps'])} amplitudes, want {expected_dim}"]
    norm = sum(re * re + im * im for re, im in got["amps"])
    if abs(norm - 1.0) > 1e-10:
        problems.append(f"sector state norm {norm} != 1")
    worst = max(max(abs(a - c), abs(b - d))
                for (a, b), (c, d) in zip(got["amps"], ref["amps"]))
    if worst > AMPLITUDE_TOL:
        problems.append(f"amplitudes differ from reference by {worst:.3g}")
    return problems


def check_response(workload, req: Request, returncode: int, stdout: str,
                   out_text: str | None, references: dict) -> list[str]:
    """All problems with one response; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    ref = references.get(req.ref_key())
    if ref is None:
        return [f"no reference recorded for {req.ref_key()}"]
    try:
        if req.command == "sweep":
            return check_sweep(req, stdout, out_text, ref)
        if req.command == "measure":
            return check_measure(req, stdout, out_text, ref)
        return check_ground(req, stdout, out_text, ref,
                            workload.n_links, workload.n_vertices)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
