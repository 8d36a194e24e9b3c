"""Tests of the benchmark itself.  Run from the repository root:

    python3 bench/selftest.py

They cover the request generators (deterministic per seed, every shape,
ring, M2 kind and outcome present, each input of the class it claims),
the self-time arithmetic, the correctness gate (a wrong output or exit
code raises the failure count), the traced counts (repeatable, and the
t3_case_sweep(Z2^2) key-product count of the ROADMAP baseline), and the
refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import arith  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _run_requests(requests, trace=False):
    deadline = time.monotonic() + 120
    return run.run_pass(requests, False, trace, run.worker_env(), deadline)


class GeneratorTests(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a = [r.argv for r in w.build(workloads.DEFAULT_SEED)]
                self.assertEqual(a, [r.argv for r in w.build(workloads.DEFAULT_SEED)])
                if name != "oracle-sweep":
                    self.assertNotEqual(a, [r.argv for r in w.build(workloads.HELD_OUT_SEED)])

    def test_decompose_mix_coverage(self):
        reqs = workloads.decompose_mix(3)
        self.assertGreaterEqual(len(reqs), 3000)
        decomposed = {r.shape for r in reqs if r.verb == "decompose" and r.expect == "verified"}
        self.assertEqual(decomposed, set(workloads.SHAPE_MASKS))
        self.assertEqual({r.ring for r in reqs if "series" not in r.ring}, set(workloads.DECOMPOSE_RINGS))
        m2_kinds = {r.kind for r in reqs if r.verb == "decompose" and r.shape == "M2" and r.expect != "exit2"}
        self.assertEqual(m2_kinds, set(workloads.M2_KINDS) | {workloads.OBSTRUCTED})
        self.assertEqual({r.kind for r in reqs if r.verb == "classify-m2" and r.expect == "kind"},
                         m2_kinds)
        self.assertTrue(any(r.ring.startswith("series(") for r in reqs))
        self.assertEqual({r.fmt for r in reqs}, {"text", "json"})
        self.assertEqual({r.case for r in reqs if r.shape == "T3" and r.expect == "verified"},
                         set(range(1, 9)))
        bad = sum(r.expect == "exit2" for r in reqs) / len(reqs)
        self.assertTrue(0.04 < bad < 0.06, bad)

    def test_series_lift_coverage(self):
        reqs = workloads.series_lift(3)
        cells = {(r.verb, r.ring, r.kind) for r in reqs}
        for base in workloads.SERIES_BASES:
            for m in workloads.SERIES_PRECISIONS:
                for kind in workloads._kinds_for(base):
                    for verb in ("decompose", "lift"):
                        self.assertIn((verb, f"series({base},{m})", kind), cells)

    def test_m2_kinds_hold_by_trace_and_determinant(self):
        rng = random.Random(0)
        for spelling in workloads.DECOMPOSE_RINGS:
            ring = arith.parse_ring(spelling)
            for kind in workloads._kinds_for(spelling):
                for _ in range(50):
                    a = workloads.m2_of_kind(ring, kind, rng)
                    tr, det = arith.trace(ring, a), arith.det2(ring, a)
                    unit_det, unit_tr = ring.is_unit(det), ring.is_unit(tr)
                    want = {"invertible": (True, None), "quasinilpotent": (False, False),
                            "split": (False, True), workloads.OBSTRUCTED: (False, True)}[kind]
                    self.assertEqual(unit_det, want[0], (spelling, kind, a))
                    if want[1] is not None:
                        self.assertEqual(unit_tr, want[1], (spelling, kind, a))
                    if kind == workloads.OBSTRUCTED:
                        self.assertLess(tr * tr - 4 * det, 0)


class SelfTimeTests(unittest.TestCase):
    def test_fold_subtracts_direct_children_only(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 3.0, 0, 0),
            ("b", 4.0, 8.0, 0, 0),
            ("a", 5.0, 6.0, 2, 0),
        ]
        folded = tracing.fold(spans)
        self.assertEqual(folded["root"], [1, 4.0])
        self.assertEqual(folded["b"], [1, 3.0])
        self.assertEqual(folded["a"], [2, 3.0])
        total = sum(secs for _, secs in folded.values())
        self.assertAlmostEqual(total, 10.0)

    def test_layer_metrics_ratios_and_merge(self):
        raw = {"spans": {"oracle.commutant_keys": [4, 1.0], "witnesses.quasipolar_checks": [6, 0.5]},
               "counts": {"oracle.commutant_hits": 3, "witnesses.returned": 2}, "span_count": 10}
        merged = tracing.merge([raw, raw])
        m = tracing.layer_metrics(merged)
        self.assertEqual(m["oracle.commutant.calls"], (8, "count"))
        self.assertEqual(m["oracle.commutant.hit_ratio"], (0.75, "ratio"))
        self.assertEqual(m["witnesses.checks_per_witness"], (3.0, "ratio"))
        self.assertEqual(m["oracle.commutant.s"], (2.0, "s"))


class GateTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        reqs = [r for r in workloads.decompose_mix(5) if r.shape in ("T3", "M2")]
        pick = {}
        for r in reqs:
            pick.setdefault((r.verb, r.shape, r.fmt, r.expect, r.kind), r)
        cls.requests = list(pick.values())
        cls.records, _ = _run_requests(cls.requests)

    def _judge(self, records):
        ledger = run.Ledger()
        run.judge(self.requests, [records], None, ledger)
        return ledger

    def test_clean_outputs_pass(self):
        ledger = self._judge(self.records)
        self.assertEqual(ledger.failed, 0, ledger.reasons)
        self.assertEqual(ledger.attempted, len(self.requests))

    def test_wrong_output_counts_as_failure(self):
        for i, req in enumerate(self.requests):
            if req.expect != "verified" or req.shape != "T3":
                continue
            with self.subTest(fmt=req.fmt):
                records = [dict(r) for r in self.records]
                out = records[i]["out"]
                if req.fmt == "json":
                    doc = json.loads(out)
                    row = doc["witness"]["u"]["rows"][0]
                    row[0] = str(int(row[0].split("/")[0]) + 1)
                    records[i]["out"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
                else:
                    bump = lambda m: f"\nu: [{int(m.group(1)) + 1}"  # noqa: E731
                    records[i]["out"] = re.sub(r"\nu: \[(-?\d+)", bump, out, count=1)
                self.assertNotEqual(records[i]["out"], out)
                ledger = self._judge(records)
                self.assertGreater(ledger.failed / ledger.attempted, 0)

    def test_wrong_exit_code_counts_as_failure(self):
        for i, req in enumerate(self.requests):
            records = [dict(r) for r in self.records]
            records[i]["rc"] = 0 if req.expect == "exit2" else 1
            ledger = self._judge(records)
            self.assertGreater(ledger.failed, 0, req.argv)

    def test_wrong_class_is_caught(self):
        for i, req in enumerate(self.requests):
            if req.verb == "classify-m2" and req.fmt == "json" and req.expect == "kind":
                doc = json.loads(self.records[i]["out"])
                doc["kind"] = "invertible" if doc["kind"] != "invertible" else "split"
                reason = verify.check(req, 0, json.dumps(doc), "")
                self.assertIsNotNone(reason)

    def test_changed_digest_counts_as_failure(self):
        ledger = run.Ledger()
        run.judge(self.requests, [self.records], "0" * 64, ledger)
        self.assertEqual(ledger.failed, ledger.attempted)


class TraceTests(unittest.TestCase):
    def test_counts_repeat_and_match_roadmap_baseline(self):
        req = workloads.oracle_sweep(0)[0]
        self.assertEqual(req.argv[:3], ["verify-t3", "--ring", "Z2^2"])
        raws = []
        for _ in range(2):
            records, summaries = _run_requests([req], trace=True)
            self.assertIsNone(verify.check(req, records[0]["rc"], records[0]["out"], records[0]["err"]))
            raws.append(summaries[0]["trace"])
        self.assertEqual(tracing.deterministic(raws[0]), tracing.deterministic(raws[1]))
        # Baseline of the commit that introduced the benchmark.
        self.assertEqual(raws[0]["counts"]["sweeps.t3_case_sweep.key_products"], 2344960)


class ManifestTests(unittest.TestCase):
    def test_benchmark_json_names_what_runs_report(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            manifest = json.load(fh)
        self.assertEqual({w["name"]: w["why"] for w in manifest["workloads"]},
                         {w.name: w.why for w in workloads.WORKLOADS.values()})
        empty = {"spans": {}, "counts": {}, "span_count": 0}
        layers = {name: unit for name, (_, unit) in tracing.layer_metrics(empty).items()}
        layers["trace.overhead_s"] = "s"
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]}, layers)
        records = [{"rc": 0, "s": 0.001, "out": "", "err": ""}]
        e2e = run.end_to_end_metrics(workloads.oracle_sweep(0)[:1], [records], [{"rss_kb": 1}], [0.1])
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]},
                         {name: unit for name, (_, unit, _) in e2e.items()})


class RefusalTests(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
            copy = os.path.join(tmp, "bench")
            shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            got = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "decompose-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(got.returncode, 0)
        self.assertNotIn('"correct"', got.stdout)


if __name__ == "__main__":
    unittest.main()
