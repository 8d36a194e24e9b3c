"""The qpolar benchmark: one workload per run, end to end or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload decompose-mix --seed 1 --seconds 30 --trace 0

Workloads (``bench/workloads.py`` says why each exists):

* ``oracle-sweep``: the five exhaustive verbs, each in a fresh worker
  process, as a cold ``qp`` call runs them.  An op is one (sweep, key)
  check, summed from the pinned reports' ``total``.
* ``decompose-mix``: 3,054 seeded ``decompose``/``classify-m2`` requests
  over every shape and six rings, text and json, 5% malformed.
* ``series-lift``: 208 seeded M2 ``decompose``/``lift`` requests over
  ``series(B,m)`` for m in 8, 16 and 32.

Every run is single-process, single-thread and closed loop: one worker
calls ``qpolar.cli.main(argv)`` for one request after another, with
``QP_THREADS`` removed from its environment.  A pass sends the whole
request list once; passes repeat until ``--seconds`` have elapsed (at
least three).  The first pass's outputs are each re-checked (see
``verify.py``); every later pass must reproduce them byte for byte.  For
``DEFAULT_SEED`` the SHA-256 of a pass's concatenated stdout must equal
the one pinned in ``bench/digests.json``.

With ``--trace 0`` the run reports the end-to-end metrics, each request
timed as its median over the passes:

    ops_per_s    ops per second of time spent in ``main``
    p50_ms       median op latency
    p95_ms       95th percentile op latency (the tail to read for series-lift)
    p99_ms       99th percentile op latency (the tail to read for decompose-mix)
    setup_s      median wall time of fresh interpreters importing qpolar.cli,
                 three before each pass
    peak_rss_mb  largest peak RSS of any worker

An op is one request, except in oracle-sweep, where each verb's keys
share its time; percentiles use nearest rank.

With ``--trace 1`` it runs one untraced pass, then at least two traced
passes (``tracing.py`` wraps the program's layers from outside) and
reports the per-layer metrics of one traced pass (times: median over
traced passes).  The traced passes' call counts must repeat exactly,
and ``trace.overhead_s`` is traced minus untraced time in ``main``.

Output: human-readable lines (machine facts, every metric with its unit
and sample count, ``fail_frac``), then as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
ops whose request crashed, exited unexpectedly, printed a wrong output
or a mismatching report, or belonged to a pass whose digest differs.
The exit code is 0 whenever a result is printed; it is 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_STARTS = 3  # before each pass, so set-up is sampled across the run
MIN_PASSES = 3  # untraced; each request's latency is its median over passes
MIN_TRACED_PASSES = 2
RUN_BUDGET_S = 150  # worker time allowed per run; the whole run must end within 180 s

sys.path[:0] = [BENCH, SRC]
import tracing  # noqa: E402
import workloads  # noqa: E402


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QP_THREADS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env) -> list:
    """Wall time of fresh interpreters that import qpolar.cli and exit."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qpolar.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_worker(argvs, trace: bool, env, deadline: float):
    """(records, summary) of one worker process; records are per request."""
    config = json.dumps({"requests": argvs, "trace": trace})
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py")],
            input=config, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return [], {"error": "worker timed out"}
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if proc.returncode != 0 or not lines or "summary" not in lines[-1]:
        return lines, {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return lines[:-1], lines[-1]["summary"]


def run_pass(requests, cold: bool, trace: bool, env, deadline: float):
    """One pass over the request list: (records, summaries)."""
    batches = [[r] for r in requests] if cold else [requests]
    records, summaries = [], []
    for batch in batches:
        got, summary = run_worker([r.argv for r in batch], trace, env, deadline)
        got += [{"rc": None, "s": 0.0, "out": "", "err": summary.get("error", "")}] * (len(batch) - len(got))
        records += got
        summaries.append(summary)
    return records, summaries


def ops_of(req) -> int:
    return sum(r["total"] for r in req.reports) if req.reports else 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(records) -> str:
    return hashlib.sha256("".join(r["out"] for r in records).encode()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return got.stdout.strip() or None


def pinned_digest(name: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH, "digests.json")) as fh:
        return json.load(fh)[name]


class Ledger:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = []

    def add(self, ops: int, reason):
        self.attempted += ops
        if reason is not None:
            self.failed += ops
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def judge(requests, passes, pinned, ledger: Ledger) -> str:
    """Check pass 1 against the expectations and later passes against pass 1."""
    import verify

    first = passes[0]
    pass_digest = digest(first)
    digest_bad = pinned is not None and pass_digest != pinned
    for req, rec in zip(requests, first):
        reason = verify.check(req, rec["rc"], rec["out"], rec["err"])
        if reason is None and digest_bad:
            reason = f"stdout digest {pass_digest[:12]} != pinned {pinned[:12]}"
        ledger.add(ops_of(req), reason and f"{' '.join(req.argv[:3])}: {reason}")
    for later in passes[1:]:
        for req, rec, ref in zip(requests, later, first):
            same = (rec["rc"], rec["out"], rec["err"]) == (ref["rc"], ref["out"], ref["err"])
            ledger.add(ops_of(req), None if same else f"{' '.join(req.argv[:3])}: output changed between passes")
    return pass_digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qpolar", "cli.py")):
        print(f"error: the program's sources are missing under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "worker_env": "QP_THREADS removed" + (" (was set)" if "QP_THREADS" in os.environ else " (was unset)"),
        "load_before": list(os.getloadavg()),
    }
    print(f"workload {workload.name}: {workload.why}")
    env = worker_env()
    setup = []
    requests = workload.build(args.seed)

    untraced, traced, summaries = [], [], []
    while not untraced or (not args.trace and (len(untraced) < MIN_PASSES or time.monotonic() - started < args.seconds)):
        setup += setup_seconds(env)
        records, sums = run_pass(requests, workload.cold, False, env, deadline)
        untraced.append(records)
        summaries += sums
    traced_raws = []
    while args.trace and (len(traced) < MIN_TRACED_PASSES or time.monotonic() - started < args.seconds):
        records, sums = run_pass(requests, workload.cold, True, env, deadline)
        traced.append(records)
        traced_raws.append([s.get("trace") for s in sums])
        summaries += sums

    ledger = Ledger()
    pass_digest = judge(requests, untraced + traced, pinned_digest(workload.name, args.seed), ledger)
    facts["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    facts["load_after"] = list(os.getloadavg())
    facts["stdout_sha256"] = pass_digest
    print("run " + json.dumps(facts, sort_keys=True))

    if args.trace:
        metrics = traced_metrics(workload, requests, untraced, traced, traced_raws, ledger)
    else:
        metrics = end_to_end_metrics(requests, untraced, summaries, setup)
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    print(f"fail_frac = {ledger.failed / max(1, ledger.attempted):.6g} ({ledger.failed}/{ledger.attempted} ops)")
    for reason in ledger.reasons:
        print(f"failure: {reason}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def end_to_end_metrics(requests, passes, summaries, setup) -> dict:
    """End-to-end metrics over each request's median latency across passes.

    On a shared host the same work runs up to half again as slow during
    spells of contention lasting from milliseconds to many seconds; the
    median over passes spread across the run is steadier than any single
    pass, and steadier than the fastest pass.
    """
    latencies = [statistics.median(p[i]["s"] for p in passes) for i in range(len(requests))]
    ops = sum(ops_of(req) for req in requests)
    busy = sum(latencies)
    # An op's latency is its request's divided by the ops in it: one per
    # request, except an oracle-sweep verb whose keys share its time.
    per_op = [t / ops_of(req) for req, t in zip(requests, latencies) for _ in range(ops_of(req))]
    n = f"{ops} ops x {len(passes)} passes"
    rss = [s["rss_kb"] for s in summaries if "rss_kb" in s]
    return {
        "ops_per_s": (ops / busy if busy else 0.0, "1/s", n),
        "p50_ms": (1000 * percentile(per_op, 0.50), "ms", n),
        "p95_ms": (1000 * percentile(per_op, 0.95), "ms", n),
        "p99_ms": (1000 * percentile(per_op, 0.99), "ms", n),
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} starts"),
        "peak_rss_mb": (max(rss) / 1024 if rss else 0.0, "MB", f"{len(rss)} workers"),
    }


def traced_metrics(workload, requests, untraced, traced, traced_raws, ledger: Ledger) -> dict:
    """Per-layer metrics of the traced passes; their counts must repeat exactly."""
    empty = {"spans": {}, "counts": {}, "span_count": 0}
    merged = [tracing.merge(raw or empty for raw in raws) for raws in traced_raws]
    reference = tracing.deterministic(merged[0])
    for i, raw in enumerate(merged[1:], start=2):
        if tracing.deterministic(raw) != reference:
            ledger.failed += sum(ops_of(req) for req in requests)
            ledger.reasons.append(f"traced pass {i}: call counts differ from traced pass 1")
    per_pass = [tracing.layer_metrics(raw) for raw in merged]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in per_pass)
        out[name] = (value, unit, len(per_pass))
    untraced_busy = statistics.median(sum(r["s"] for r in records) for records in untraced)
    traced_busy = statistics.median(sum(r["s"] for r in records) for records in traced)
    out["trace.overhead_s"] = (traced_busy - untraced_busy, "s", len(traced))
    if workload.cold:
        for req, raw in zip(requests, traced_raws[0]):
            if req.argv[:3] == ["verify-t3", "--ring", "Z2^2"] and raw:
                count = raw["counts"].get("sweeps.t3_case_sweep.key_products")
                print(f"key products of t3_case_sweep(Z2^2): {count} (ROADMAP baseline 2344960)")
    return out


if __name__ == "__main__":
    sys.exit(main())
