"""Traced in-process z2wilson run, and the statevec kernel probes.

Run as a child process with the repository's ``src`` on PYTHONPATH:

    python3 perfbench/trace.py request SPANS.json -- <z2wilson CLI args>
    python3 perfbench/trace.py probe PROBES.json

``request`` wraps the public functions of each layer (in every z2wilson
module namespace that binds them), runs ``z2wilson.cli.main(argv)`` with
stdout untouched, and writes the recorded spans and counts as JSON.
``probe`` times single public kernel calls on a 2^18-amplitude state.
Spans are kept in memory and written once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter

# layer -> public functions wrapped; a name a module no longer defines is
# skipped and shows up as zero calls
TARGETS = {
    "statevec": ("pauli_exp_inplace", "controlled_pauli_exp_inplace",
                 "pauli_action", "expect_pauli"),
    "gauge": ("build_physical_sector", "ground_state", "fwht",
              "embed_sector_coords", "project_to_sector", "gauge_violation",
              "hamiltonian_in_sector", "exact_evolve_in_sector"),
    "trotter": ("trotterized_loop_operator", "exact_loop_operator", "sweep"),
    "circuits": ("run_circuit",),
    "wilson": ("hadamard_test", "controlled_loop"),
    "cli": ("main", "cmd_sweep", "cmd_measure", "cmd_ground_state"),
}

# Computed bytes moved: amplitude-array bytes a top-level statevec kernel
# call must at least read plus write (in-place update or out-of-place
# action: read once, write once; expectation: read once).
KERNEL_TRAFFIC = {"pauli_exp_inplace": 2, "controlled_pauli_exp_inplace": 2,
                  "pauli_action": 2, "expect_pauli": 1}


class Tracer:
    """Span recorder: [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()   # span name -> open depth
        self.kernel_depth = 0

    def wrap(self, name: str, fn, traffic: int = 0, hook=None):
        spans, stack, active = self.spans, self.stack, self.active

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            active[name] += 1
            if traffic:
                if self.kernel_depth == 0:
                    arr = getattr(args[0], "amps", args[0])
                    self.counts["kernel_bytes"] += traffic * getattr(
                        arr, "nbytes", 0)
                self.kernel_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if traffic:
                    self.kernel_depth -= 1
                active[name] -= 1
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if hook is not None:
                hook(inspect.signature(fn).bind(*args, **kwargs).arguments,
                     result)
            return result

        return traced


def _hooks(tracer: Tracer, circuits) -> dict:
    """Count hooks, keyed by qualified name, run after the wrapped call
    with its bound arguments and its result."""
    counts = tracer.counts

    def n_evolutions(program) -> int:
        if hasattr(program, "n_temporal"):
            return program.n_temporal()
        return sum(1 for s in program.steps if hasattr(s, "tau"))

    def on_trotterized(a, result):
        counts["plaquette_updates"] += (
            a["n_T"] * a["model"].lattice.n_plaquettes
            * n_evolutions(a["program"]))

    def on_run_circuit(a, result):
        circuit = a["circuit"]
        stats = getattr(circuits, "circuit_stats", None)
        counts["gates_executed"] += (stats(circuit)["total"] if stats
                                     else len(circuit.gates))
        counts["register_qubits"] = max(counts["register_qubits"],
                                        circuit.n_qubits)

    def on_sector(a, result):
        counts["sector_states"] += result.dim

    return {"trotter.trotterized_loop_operator": on_trotterized,
            "circuits.run_circuit": on_run_circuit,
            "gauge.build_physical_sector": on_sector}


class _CountingNumpy:
    """numpy stand-in for the gauge module that counts index-range sizes
    created while the sector is being enumerated."""

    def __init__(self, np, tracer: Tracer):
        self._np = np
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._np, name)

    def arange(self, *args, **kwargs):
        out = self._np.arange(*args, **kwargs)
        if self._tracer.active["gauge.build_physical_sector"]:
            self._tracer.counts["indices_enumerated"] += out.size
        return out


def install(tracer: Tracer) -> None:
    """Replace each target function wherever a z2wilson namespace binds it."""
    modules = {layer: importlib.import_module(f"z2wilson.{layer}")
               for layer in TARGETS}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "z2wilson" or name.startswith("z2wilson.")]
    hooks = _hooks(tracer, modules["circuits"])
    for layer, names in TARGETS.items():
        for fname in names:
            original = getattr(modules[layer], fname, None)
            if original is None:
                continue
            qual = f"{layer}.{fname}"
            wrapped = tracer.wrap(qual, original,
                                  KERNEL_TRAFFIC.get(fname, 0)
                                  if layer == "statevec" else 0,
                                  hooks.get(qual))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapped
    gauge = modules["gauge"]
    if hasattr(gauge, "np"):
        gauge.np = _CountingNumpy(gauge.np, tracer)


def run_request(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    import z2wilson.cli as cli
    try:
        code = cli.main(argv)
    except SystemExit as exc:      # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return code


PROBE_QUBITS = 18
PROBE_REPEATS = 15


def run_probes(out_path: str) -> int:
    import numpy as np

    from z2wilson.statevec import (PauliString, StateVector,
                                   apply_controlled_pauli_exp, apply_pauli_exp)

    rng = np.random.default_rng(12345)
    amps = rng.normal(size=1 << PROBE_QUBITS) + 1j * rng.normal(
        size=1 << PROBE_QUBITS)
    sv = StateVector(PROBE_QUBITS, amps / np.linalg.norm(amps))
    probes = {
        "x_q0_s": lambda: apply_pauli_exp(sv, PauliString({0: "X"}), 0.1),
        "x_q9_s": lambda: apply_pauli_exp(sv, PauliString({9: "X"}), 0.1),
        "x_q17_s": lambda: apply_pauli_exp(sv, PauliString({17: "X"}), 0.1),
        "zzzz_s": lambda: apply_pauli_exp(
            sv, PauliString({3: "Z", 4: "Z", 5: "Z", 6: "Z"}), 0.1),
        "cz_group_s": lambda: apply_controlled_pauli_exp(
            sv, 17, "z", PauliString({0: "Z"}), 0.1),
    }
    result = {}
    for name, call in probes.items():
        call()                     # first call fills the kernel caches
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        result[name] = statistics.median(times)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "request" and argv[2] == "--":
        return run_request(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "probe":
        return run_probes(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
