"""Self-test of the benchmark on tiny configurations (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py

Covers request generation, output parsing, the correctness gate, exact
counting, tracing, the result line, and the refusal to run without sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import ALL_WORKLOADS, TINY_WORKLOADS, WORKLOADS  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


class Generation(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in ALL_WORKLOADS.values():
            a, b = w.requests(7), w.requests(7)
            self.assertEqual([next(a) for _ in range(20)],
                             [next(b) for _ in range(20)])

    def test_every_drawable_input_has_a_reference(self):
        refs = check.load_references()
        for w in ALL_WORKLOADS.values():
            keys = {r.ref_key() for r in w.all_inputs()}
            self.assertLessEqual(keys, set(refs), w.name)
            for seed in range(30):
                gen = w.requests(seed)
                for _ in range(10):
                    self.assertIn(next(gen).ref_key(), keys)

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS))
        self.assertEqual({(m["name"], m["unit"]) for m in spec["end_to_end"]},
                         set(run.END_TO_END))
        self.assertEqual({(m["name"], m["unit"]) for m in spec["per_layer"]},
                         set(layers.UNITS.items()))


class Gate(unittest.TestCase):
    def setUp(self):
        self.refs = check.load_references()

    def _ref(self, req):
        return self.refs[req.ref_key()]

    def test_sweep_csv_by_column_name(self):
        req = TINY_WORKLOADS["tiny-sweep"].all_inputs()[0]
        ref = self._ref(req)
        rows = zip(req.nt, ref["op_fidelity"], ref["gs_fidelity"])
        csv = ("# z2wilson\nextra,gs_fidelity,n_T,op_fidelity\n"
               + "".join(f"x,{g!r},{n},{o!r}\n" for n, o, g in rows)
               + "".join(f"# fit {k}: exponent={v!r} stderr=0 prefactor=1\n"
                         for k, v in ref["fits"].items()))
        self.assertEqual(check.check_sweep(req, "", csv, ref), [])
        bad = csv.replace(f"{ref['fits']['op']!r}", "-3.2")
        self.assertTrue(check.check_sweep(req, "", bad, ref))

    def test_measure_invariants(self):
        req = TINY_WORKLOADS["tiny-measure"].all_inputs()[0]
        ref = self._ref(req)
        p = ref["p_plus_exact"]
        good = (f"n_T {req.nt[0]}\np_plus_exact {p!r}\n"
                f"p_plus_sampled {p!r}\np_plus_oracle {ref['p_plus_oracle']!r}\n"
                f"re_wilson_loop_exact {ref['re_wilson_loop_exact']!r}\n")
        req = dataclasses.replace(req, shots=1000)
        self.assertEqual(check.check_measure(req, good, None, ref), [])
        far = good.replace(f"p_plus_sampled {p!r}", f"p_plus_sampled {p + 0.2}")
        self.assertTrue(check.check_measure(req, far, None, ref))
        split = good.replace(f"p_plus_oracle {ref['p_plus_oracle']!r}",
                             f"p_plus_oracle {ref['p_plus_oracle'] + 1e-9}")
        self.assertTrue(check.check_measure(req, split, None, ref))

    def test_nonzero_exit_fails(self):
        w = TINY_WORKLOADS["tiny-ground"]
        req = w.all_inputs()[0]
        self.assertEqual(check.check_response(w, req, 4, "", None, self.refs),
                         ["exit code 4"])

    def test_tail_latency(self):
        self.assertIsNone(run.tail_latency([1.0] * 10))
        pct, value = run.tail_latency([float(i) for i in range(40)])
        self.assertEqual((pct, value), (75.0, 29.0))


class EndToEnd(unittest.TestCase):
    def _result(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_tiny_workloads_untraced(self):
        for name in TINY_WORKLOADS:
            res = self._result(bench("--workload", name, "--seed", "3",
                                     "--seconds", "1", "--trace", "0"))
            self.assertTrue(res["correct"], name)
            self.assertEqual(res["failed"], 0)
            self.assertEqual(set(res["metrics"]),
                             {n for n, _ in run.END_TO_END})

    def test_tiny_workloads_traced(self):
        expect = {"tiny-sweep": ("trotter.w_nt_builds_per_nt", 2.0),
                  "tiny-measure": ("circuits.runs_per_request", 2.0),
                  "tiny-ground": ("gauge.sector_yield", 16 / 4096)}
        for name, (metric, value) in expect.items():
            res = self._result(bench("--workload", name, "--seed", "3",
                                     "--seconds", "1", "--trace", "1"))
            self.assertTrue(res["correct"], name)
            self.assertEqual(set(res["metrics"]), set(layers.UNITS))
            m = res["metrics"]
            self.assertEqual(m[metric]["value"], value, name)
            self.assertEqual(m["trace.output_mismatches"]["value"], 0)
            self.assertEqual(m["counts.unsteady"]["value"], 0)
            self.assertGreater(m["cli.main.self_s"]["value"], 0)

    def test_refuses_without_sources(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.OUT_DIR)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sweep-cross", "--seed", "1", "--seconds", "1"],
                capture_output=True, text=True, cwd=bare, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
