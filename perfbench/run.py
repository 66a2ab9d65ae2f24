"""z2wilson benchmark: closed loop, one client, one CLI process at a time.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-cross --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each request is a ``python3 -m z2wilson.cli`` subprocess;
every response is checked (see check.py) and the end-to-end metrics are
printed by name with units and sample counts.  With ``--trace 1`` every
request runs twice, untraced as a subprocess and traced in-process through
``z2wilson.cli.main`` (see trace.py); the outputs must be byte-identical and
the per-layer metrics are printed.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

BLAS thread settings are recorded as found and never overridden.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import check
import layers
from workloads import ALL_WORKLOADS, Request, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

SETUP_CALLS = 11           # timed no-work CLI calls per run (plus one warm-up)
SETUP_ARGV = ["validate", "--lattice", "cross"]
RUN_BUDGET_S = 170.0       # whole run, set-up included, stays below this
MIN_TRACED_REQUESTS = 2    # so that counts can be seen to repeat
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

# Gated end-to-end metrics.  Request cost is gated on the child's CPU time,
# not on its wall time: on the shared 2-core VM the benchmark was built on,
# wall time drifts with other tenants' load in spells of seconds to minutes,
# and across runs its median spread more than the 25% a bound may allow,
# while CPU time stayed within a third of that.  Wall-time latency, its tail,
# throughput and the failure fraction are printed with sample counts.
END_TO_END = [("cpu_s_per_req", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

EXIT_SETUP = 2             # checkout lacks the program or references
EXIT_PREFLIGHT = 3         # not enough free memory for the workload


@dataclass
class Response:
    returncode: int
    stdout: bytes
    out_bytes: bytes | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


class Runner:
    """Starts one child at a time and reaps it with ``os.wait4``."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.serial = 0

    def new_path(self, suffix: str) -> str:
        self.serial += 1
        return os.path.join(self.work, f"{self.serial:05d}{suffix}")

    def run(self, cmd: list[str], out_path: str | None = None) -> Response:
        stdout_path = self.new_path(".stdout")
        timeout = max(self.deadline - time.monotonic(), 1.0)
        timed_out = threading.Event()
        with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        out_bytes = None
        if out_path and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                out_bytes = fh.read()
        return Response(proc.returncode, stdout, out_bytes, wall,
                        usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, timed_out.is_set())

    def cli(self, argv: list[str], out_path: str | None = None) -> Response:
        return self.run([sys.executable, "-m", "z2wilson.cli", *argv],
                        out_path)

    def request(self, req: Request, traced: bool = False
                ) -> tuple[Response, dict | None]:
        out_path = self.new_path(".out") if req.out else None
        if not traced:
            return self.cli(req.argv(out_path), out_path), None
        spans_path = self.new_path(".spans.json")
        resp = self.run([sys.executable, os.path.join(HERE, "trace.py"),
                         "request", spans_path, "--", *req.argv(out_path)],
                        out_path)
        trace = None
        if resp.returncode == 0 and os.path.exists(spans_path):
            with open(spans_path) as fh:
                trace = json.load(fh)
        return resp, trace


def problems_of(workload: Workload, req: Request, resp: Response,
                references: dict) -> list[str]:
    if resp.timed_out:
        return ["timed out"]
    out_text = (resp.out_bytes.decode() if resp.out_bytes is not None
                else None)
    return check.check_response(workload, req, resp.returncode,
                                resp.stdout.decode(errors="replace"),
                                out_text, references)


# ---------------------------------------------------------------------------
# provenance and pre-flight
# ---------------------------------------------------------------------------

def free_memory_mb() -> float:
    return (os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
            / (1 << 20))


def git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (no git)"


def numpy_version() -> str:
    from importlib import metadata
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "not installed"


def provenance(root: str, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(root), "numpy": numpy_version(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "free_memory_mb": round(free_memory_mb(), 1),
    }


def preflight(workload: Workload, free_mb: float) -> str | None:
    """Reason to refuse the workload, or None."""
    need = 2.0 * workload.peak_rss_mb
    if need and free_mb < need:
        return (f"refusing {workload.name}: {free_mb:.0f} MB free, it needs "
                f"{need:.0f} MB (twice its measured {workload.peak_rss_mb:.0f}"
                " MB peak)")
    return None


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def tail_latency(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    k = n - 11                              # 10 samples lie above index k
    return 100.0 * (k + 1) / n, ordered[k]


def untraced_run(runner: Runner, workload: Workload, args, references,
                 report) -> dict:
    setup: list[float] = []
    setup_failures = 0

    def setup_call() -> None:
        nonlocal setup_failures
        resp = runner.cli(SETUP_ARGV)
        if resp.returncode != 0 or resp.stdout != b"ok\n":
            setup_failures += 1
            report(f"setup call failed: exit {resp.returncode}")
        setup.append(resp.wall_s)

    setup_call()                             # warm-up, not reported
    setup.clear()
    # set-up calls are spread over the run, so a passing slow spell of the
    # machine moves the median less; their time is not request time
    requests = workload.requests(args.seed)
    done: list[tuple[Request, Response]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(setup) < SETUP_CALLS * min(elapsed / args.seconds, 1.0):
            setup_call()
        req = next(requests)
        resp, _ = runner.request(req)
        done.append((req, resp))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for _, r in done)
        if (elapsed + typical > args.seconds
                or time.monotonic() + typical > runner.deadline):
            break
    while len(setup) < SETUP_CALLS:
        setup_call()
    loop_s = sum(r.wall_s for _, r in done)

    failed = 0
    for req, resp in done:
        problems = problems_of(workload, req, resp, references)
        if problems:
            failed += 1
            report(f"request {req.argv('OUT')} failed: {problems[0]}")
    responses = [r for _, r in done]
    walls = [r.wall_s for r in responses]
    cpus = [r.cpu_s for r in responses]
    n = len(done)
    metrics = {
        "cpu_s_per_req": statistics.median(cpus),
        "peak_rss_mb": max(r.rss_mb for r in responses),
        "setup_s": statistics.median(setup),
    }
    shown = [
        ("latency_p50_s", statistics.median(walls), "s", f"n={n}"),
        ("req_per_s", (n - failed) / loop_s, "1/s", f"n={n}"),
        ("cpu_s_per_req", metrics["cpu_s_per_req"], "s", f"median, n={n}"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", f"max, n={n}"),
        ("setup_s", metrics["setup_s"], "s", f"median, n={len(setup)}"),
        ("fail_frac", failed / n, "1", f"{failed}/{n}"),
    ]
    tail = tail_latency(walls)
    if tail:
        shown.insert(1, ("latency_tail_s", tail[1], "s",
                         f"p{tail[0]:.4g}, n={n}"))
    for name, value, unit, note in shown:
        report(f"{name:<16} {value:>14.6g} {unit:<4} ({note})")
    if not tail:
        report(f"{'latency_tail_s':<16} {'-':>14} s    (n={n}: fewer than 11 "
               "requests, no percentile has ten beyond it)")
    return {"correct": failed == 0 and setup_failures == 0, "attempted": n,
            "failed": failed, "metrics": metrics, "units": dict(END_TO_END),
            "shown": shown, "latencies_s": walls, "cpu_s": cpus,
            "setup_latencies_s": setup}


def traced_run(runner: Runner, workload: Workload, args, references,
               report) -> dict:
    requests = workload.requests(args.seed)
    pairs = []
    start = time.perf_counter()
    while True:
        req = next(requests)
        plain, _ = runner.request(req)
        traced, trace = runner.request(req, traced=True)
        pairs.append((req, plain, traced, trace))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s + t.wall_s
                                    for _, p, t, _ in pairs)
        if len(pairs) >= MIN_TRACED_REQUESTS and (
                elapsed + typical > args.seconds
                or time.monotonic() + typical > runner.deadline):
            break
    probe_path = runner.new_path(".probe.json")
    probe_resp = runner.run([sys.executable, os.path.join(HERE, "trace.py"),
                             "probe", probe_path])
    probes = {}
    if probe_resp.returncode == 0:
        with open(probe_path) as fh:
            probes = json.load(fh)

    failed = mismatches = 0
    per_request = []
    for req, plain, traced, trace in pairs:
        problems = (problems_of(workload, req, plain, references)
                    + problems_of(workload, req, traced, references))
        if (plain.stdout, plain.out_bytes) != (traced.stdout, traced.out_bytes):
            mismatches += 1
            problems.append("traced output differs from untraced output")
        if trace is None:
            problems.append("traced run left no spans")
        if problems:
            failed += 1
            report(f"request {req.argv('OUT')} failed: {problems[0]}")
        else:
            per_request.append(layers.request_metrics(trace, len(req.nt)))
    if not per_request:
        return {"correct": False, "attempted": len(pairs), "failed": failed,
                "metrics": {}, "units": layers.UNITS}

    metrics, unsteady = layers.aggregate(per_request)
    counts_path = os.path.join(OUT_DIR, f"counts-{workload.name}.json")
    if os.path.exists(counts_path):
        with open(counts_path) as fh:
            unsteady += layers.compare_counts(metrics, json.load(fh))
    with open(counts_path, "w") as fh:
        json.dump({k: metrics[k] for k in layers.EXACT}, fh, indent=1)
    for name in sorted(set(unsteady)):
        report(f"FLAG count {name} did not repeat exactly")
    for name in ("x_q0_s", "x_q9_s", "x_q17_s", "zzzz_s", "cz_group_s"):
        metrics[f"statevec.probe.{name}"] = probes.get(name, 0.0)
    plain_wall = statistics.median(p.wall_s for _, p, _, _ in pairs)
    traced_wall = statistics.median(t.wall_s for _, _, t, _ in pairs)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["trace.output_mismatches"] = mismatches
    metrics["counts.unsteady"] = len(set(unsteady))

    with open(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}"
                                    ".jsonl"), "w") as fh:
        for rid, (_, _, _, trace) in enumerate(pairs):
            for name, t0, t1, parent in (trace or {}).get("spans", []):
                fh.write(json.dumps({"request": rid, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
    n = len(per_request)
    for name, unit, _ in layers.PER_LAYER:
        report(f"{name:<46} {metrics[name]:>14.6g} {unit:<5} (n={n})")
    report(f"tracing overhead: traced {traced_wall:.4g} s vs untraced "
           f"{plain_wall:.4g} s per request "
           f"({100 * metrics['trace.overhead_frac']:+.1f}%)")
    return {"correct": failed == 0 and probe_resp.returncode == 0,
            "attempted": len(pairs), "failed": failed, "metrics": metrics,
            "units": layers.UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "z2wilson", "cli.py")):
        print(f"error: no z2wilson sources under {root}/src; run from the "
              "repository root", file=sys.stderr)
        return EXIT_SETUP
    try:
        references = check.load_references()
    except OSError as exc:
        print(f"error: cannot read references: {exc}", file=sys.stderr)
        return EXIT_SETUP
    workload = ALL_WORKLOADS[args.workload]
    prov = provenance(root, args)
    refusal = preflight(workload, prov["free_memory_mb"])
    if refusal:
        print(refusal, file=sys.stderr)
        return EXIT_PREFLIGHT

    def report(line: str) -> None:
        print(line, flush=True)

    report(f"# perfbench {workload.name}: {workload.why}")
    report("# closed loop, 1 client, one z2wilson process at a time")
    for key, value in prov.items():
        report(f"# {key} {value}")
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    runner = Runner(root, work, time.monotonic() + RUN_BUDGET_S)
    try:
        run = traced_run if args.trace else untraced_run
        result = run(runner, workload, args, references, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = dict(provenance=prov, **result)
    with open(os.path.join(OUT_DIR, f"run-{workload.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    names = (layers.PER_LAYER if args.trace else END_TO_END)
    metrics = {name[0]: {"value": result["metrics"][name[0]],
                         "unit": result["units"][name[0]]}
               for name in names if name[0] in result["metrics"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
