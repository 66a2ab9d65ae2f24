"""Per-layer metrics from the spans and counts of traced requests.

Self time is a span's duration minus the durations of its direct child
spans.  Every metric is computed per request and reported as the median
over the run's requests; counts and ratios must repeat exactly from request
to request and from run to run, and any that do not are flagged.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# (metric, unit, counted exactly?)
PER_LAYER = [
    ("gauge.build_physical_sector.self_s", "s", False),
    ("gauge.sector_yield", "ratio", True),
    ("gauge.ground_state.self_s", "s", False),
    ("gauge.fwht.calls", "count", True),
    ("gauge.fwht.self_s", "s", False),
    ("gauge.embed_sector_coords.self_s", "s", False),
    ("gauge.project_to_sector.self_s", "s", False),
    ("gauge.gauge_violation.self_s", "s", False),
    ("gauge.hamiltonian_in_sector.self_s", "s", False),
    ("gauge.exact_evolve_in_sector.calls", "count", True),
    ("gauge.exact_evolve_in_sector.self_s", "s", False),
    ("trotter.trotterized_loop_operator.calls", "count", True),
    ("trotter.trotterized_loop_operator.self_s", "s", False),
    ("trotter.exact_loop_operator.self_s", "s", False),
    ("trotter.sweep.self_s", "s", False),
    ("trotter.plaquette_updates", "count", True),
    ("trotter.w_nt_builds_per_nt", "ratio", True),
    ("statevec.pauli_exp_inplace.calls", "count", True),
    ("statevec.pauli_exp_inplace.self_s", "s", False),
    ("statevec.controlled_pauli_exp_inplace.calls", "count", True),
    ("statevec.controlled_pauli_exp_inplace.self_s", "s", False),
    ("statevec.pauli_action.calls", "count", True),
    ("statevec.pauli_action.self_s", "s", False),
    ("statevec.expect_pauli.self_s", "s", False),
    ("statevec.bytes_moved_computed", "B", True),
    ("statevec.probe.x_q0_s", "s", False),
    ("statevec.probe.x_q9_s", "s", False),
    ("statevec.probe.x_q17_s", "s", False),
    ("statevec.probe.zzzz_s", "s", False),
    ("statevec.probe.cz_group_s", "s", False),
    ("circuits.run_circuit.calls", "count", True),
    ("circuits.run_circuit.self_s", "s", False),
    ("circuits.gates_executed", "count", True),
    ("circuits.register_qubits", "count", True),
    ("circuits.runs_per_request", "ratio", True),
    ("wilson.hadamard_test.calls", "count", True),
    ("wilson.hadamard_test.self_s", "s", False),
    ("wilson.controlled_loop.self_s", "s", False),
    ("cli.main.self_s", "s", False),
    ("cli.sweep.self_s", "s", False),
    ("cli.measure.self_s", "s", False),
    ("cli.ground-state.self_s", "s", False),
    ("trace.overhead_frac", "ratio", False),
    ("trace.output_mismatches", "count", False),
    ("counts.unsteady", "count", False),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}
EXACT = [name for name, _, exact in PER_LAYER if exact]


def _metric_name(span_name: str) -> str:
    """``cli.cmd_ground_state`` -> ``cli.ground-state``; others unchanged."""
    layer, _, fn = span_name.partition(".")
    if layer == "cli" and fn.startswith("cmd_"):
        return f"cli.{fn[4:].replace('_', '-')}"
    return span_name


def request_metrics(trace: dict, n_nt: int) -> dict[str, float]:
    """Layer metrics of one traced request (spans + counts from trace.py)."""
    spans, counts = trace["spans"], trace["counts"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), inner in zip(spans, child_time):
        metric = _metric_name(name)
        self_s[metric] += (end - start) - inner
        calls[metric] += 1
    out: dict[str, float] = {}
    for name in UNITS:
        base, _, kind = name.rpartition(".")
        if kind == "self_s" and not name.startswith("statevec.probe."):
            out[name] = self_s.get(base, 0.0)
        elif kind == "calls":
            out[name] = calls.get(base, 0)
    states = counts.get("sector_states", 0)
    enumerated = counts.get("indices_enumerated", 0) or states
    out["gauge.sector_yield"] = states / enumerated if enumerated else 0.0
    out["trotter.plaquette_updates"] = counts.get("plaquette_updates", 0)
    builds = calls.get("trotter.trotterized_loop_operator", 0)
    out["trotter.w_nt_builds_per_nt"] = builds / n_nt if n_nt else 0.0
    out["statevec.bytes_moved_computed"] = counts.get("kernel_bytes", 0)
    out["circuits.gates_executed"] = counts.get("gates_executed", 0)
    out["circuits.register_qubits"] = counts.get("register_qubits", 0)
    out["circuits.runs_per_request"] = calls.get("circuits.run_circuit", 0)
    return out


def aggregate(per_request: list[dict[str, float]]) -> tuple[dict, list[str]]:
    """Median of each metric over requests, and the counts that varied."""
    medians = {name: statistics.median(r[name] for r in per_request)
               for name in per_request[0]}
    unsteady = [name for name in EXACT
                if len({r[name] for r in per_request}) > 1]
    return medians, unsteady


def compare_counts(now: dict[str, float], before: dict[str, float]
                   ) -> list[str]:
    """Counts whose value differs from a previous run of the workload."""
    return [name for name in EXACT
            if name in before and before[name] != now.get(name)]
