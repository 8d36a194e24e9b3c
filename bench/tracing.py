"""Spans and counters around the program's layers, installed from outside.

``Tracer.install`` wraps the public functions and methods of each
``qpolar`` module in place (every module namespace that imported a
function gets the wrapper too), so the program's sources stay untouched.
A span records name, start, end, parent span and request id; spans stay
in memory until ``raw`` folds them into per-function call counts and
self times.  Self time is a span's duration minus the durations of its
direct children, so self times partition the traced time exactly.

The hottest boundaries get counters instead of spans: the oracle's key
product ``FiniteRingView._mul`` (millions of calls per sweep), scalar
ring operations and series-ring ``zero`` lookups.

Spans are kept on one stack: the program runs single-threaded here
because the benchmark removes ``QP_THREADS`` from the environment.

Which end-to-end metric each layer should move, and where (it should
stay flat on the workloads not named):

    layer                          moves                        on
    oracle                         ops_per_s, peak_rss_mb       oracle-sweep
    sweeps                         ops_per_s                    oracle-sweep
    rings (series mul, inverse)    ops_per_s, p50_ms, p95_ms    series-lift
    rings (scalar ops)             p99_ms                       decompose-mix
    series                         p50_ms, p95_ms               series-lift
    witnesses                      ops_per_s, p50_ms            decompose-mix (a little elsewhere)
    triangular, m2, commutant      ops_per_s, p50_ms            decompose-mix (~10% of oracle-sweep)
    matrices                       p50_ms                       decompose-mix, series-lift
    cli                            p50_ms, setup_s              decompose-mix; setup_s everywhere
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Span name -> (module, attribute path).  Names are "<layer>.<function>".
SPANS = {
    "cli.main": ("cli", "main"),
    "sweeps.t3_case_sweep": ("sweeps", "t3_case_sweep"),
    "sweeps.t3_rad_clean_sweep": ("sweeps", "t3_rad_clean_sweep"),
    "sweeps.t2_exhaustive_sweep": ("sweeps", "t2_exhaustive_sweep"),
    "sweeps.m2_agreement_sweep": ("sweeps", "m2_agreement_sweep"),
    "sweeps.corner_equivalence_sweep": ("sweeps", "corner_equivalence_sweep"),
    "oracle.get_view": ("oracle", "get_view"),
    "oracle.view_init": ("oracle", "FiniteRingView.__init__"),
    "oracle.units": ("oracle", "FiniteRingView.units"),
    "oracle.inverse_key": ("oracle", "FiniteRingView.inverse_key"),
    "oracle.idempotent_keys": ("oracle", "FiniteRingView.idempotent_keys"),
    "oracle.jacobson_keys": ("oracle", "FiniteRingView.jacobson_keys"),
    "oracle.corner_jacobson": ("oracle", "_Corner.jacobson"),
    "oracle.commutant_keys": ("oracle", "FiniteRingView.commutant_keys"),
    "oracle.double_commutant_keys": ("oracle", "FiniteRingView.double_commutant_keys"),
    "oracle.in_double_commutant": ("oracle", "FiniteRingView.in_double_commutant"),
    "oracle.is_qnil_key": ("oracle", "FiniteRingView.is_qnil_key"),
    "oracle.quasipolar_search_keys": ("oracle", "FiniteRingView.quasipolar_search_keys"),
    "oracle.rad_clean_search_keys": ("oracle", "FiniteRingView.rad_clean_search_keys"),
    "oracle.corner": ("oracle", "FiniteRingView._corner"),
    "oracle.corner_validate_key": ("oracle", "FiniteRingView.corner_validate_key"),
    "triangular.classify_case": ("triangular", "classify_case"),
    "triangular.spectral_idempotent_t3": ("triangular", "spectral_idempotent_t3"),
    "triangular.quasipolar_witness_t3": ("triangular", "quasipolar_witness_t3"),
    "triangular.rad_clean_witness_t3": ("triangular", "rad_clean_witness_t3"),
    "triangular.quasipolar_witness_t2": ("triangular", "quasipolar_witness_t2"),
    "triangular.quasipolar_witness_shape": ("triangular", "quasipolar_witness_shape"),
    "triangular.scalar_quasipolar": ("triangular", "scalar_quasipolar"),
    "m2.classify_m2": ("m2", "classify_m2"),
    "m2.find_root_split": ("m2", "find_root_split"),
    "m2.quasipolar_witness_m2": ("m2", "quasipolar_witness_m2"),
    "commutant.solve_commutant": ("commutant", "solve_commutant"),
    "series.lift_root": ("series", "lift_root"),
    "series.lift_split": ("series", "lift_split"),
    "series.holds_for": ("series", "SeriesQuadratic.holds_for"),
    "series.constant_term_matrix": ("series", "constant_term_matrix"),
    "series.quasipolar_witness_m2_series": ("series", "quasipolar_witness_m2_series"),
    "witnesses.quasipolar_checks": ("witnesses", "QuasipolarWitness.checks"),
    "witnesses.rad_clean_checks": ("witnesses", "RadCleanWitness.checks"),
    "witnesses.require_valid": ("witnesses", "require_valid"),
    "matrices.product": ("matrices", "ShapedMatrix.__mul__"),
    "matrices.parse_matrix": ("matrices", "parse_matrix"),
    "rings.series_mul": ("rings", "TruncatedSeriesRing.mul"),
    "rings.series_inverse": ("rings", "TruncatedSeriesRing.inverse"),
}

# Counter name -> the (module, attribute path) calls it counts.
COUNTERS = {
    "oracle.key_products": [("oracle", "FiniteRingView._mul")],
    "rings.scalar_ops": [
        ("rings", f"{cls}.{op}")
        for cls in ("_ModularRing", "LocalizedIntegers")
        for op in ("add", "mul", "neg", "inverse")
    ],
    "rings.series_zero": [("rings", "TruncatedSeriesRing.zero")],
}

# Engines that hand a witness back; one is "returned" when its caller is
# the CLI or a sweep rather than another engine.
ENGINES = frozenset({
    "triangular.quasipolar_witness_t3",
    "triangular.rad_clean_witness_t3",
    "triangular.quasipolar_witness_t2",
    "triangular.quasipolar_witness_shape",
    "m2.quasipolar_witness_m2",
    "series.quasipolar_witness_m2_series",
})


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts.update({"oracle.commutant_hits": 0, "witnesses.returned": 0})
        self.request = None
        self._stack = []  # (index, name) of the open spans

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        engine = name in ENGINES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            caller = stack[-1] if stack else None
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, caller[0] if caller else -1, self.request)
            if engine and caller and caller[1].startswith(("cli.", "sweeps.")):
                counts["witnesses.returned"] += 1
            return result

        if name == "oracle.commutant_keys":
            inner = wrapper

            @functools.wraps(fn)
            def wrapper(view, a):
                if a in view._comm_cache:
                    counts["oracle.commutant_hits"] += 1
                return inner(view, a)

        if name.startswith("sweeps."):
            inner_sweep, key = wrapper, name + ".key_products"
            counts[key] = 0

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = counts["oracle.key_products"]
                try:
                    return inner_sweep(*args, **kwargs)
                finally:
                    counts[key] += counts["oracle.key_products"] - before

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Wrap every boundary in SPANS and COUNTERS; qpolar must be imported."""
        for name, (module, path) in SPANS.items():
            _replace(module, path, lambda fn, name=name: self._span(name, fn))
        for key, targets in COUNTERS.items():
            for module, path in targets:
                _replace(module, path, lambda fn, key=key: self._counter(key, fn))

    # -- results ---------------------------------------------------------------

    def raw(self) -> dict:
        """Per span name: calls and self seconds; plus counters and span total."""
        return {"spans": fold(self.spans), "counts": dict(self.counts), "span_count": len(self.spans)}


def fold(spans) -> dict:
    """{name: [calls, self seconds]}; self = duration - direct children's durations."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child[i]
    return out


def _replace(module: str, path: str, make) -> None:
    mod = importlib.import_module(f"qpolar.{module}")
    if "." not in path:
        orig = getattr(mod, path)
        wrapped = make(orig)
        for name, loaded in list(sys.modules.items()):
            if name == "qpolar" or name.startswith("qpolar."):
                for attr, value in list(vars(loaded).items()):
                    if value is orig:
                        setattr(loaded, attr, wrapped)
        return
    cls_name, attr = path.split(".")
    cls = getattr(mod, cls_name)
    orig = inspect.getattr_static(cls, attr)
    if isinstance(orig, property):
        setattr(cls, attr, property(make(orig.fget)))
    else:
        setattr(cls, attr, make(orig))



def merge(raws) -> dict:
    """Sum the raw results of several traced workers (one per cold request)."""
    out = {"spans": {}, "counts": {}, "span_count": 0}
    for raw in raws:
        for name, (calls, secs) in raw["spans"].items():
            entry = out["spans"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += secs
        for key, n in raw["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + n
        out["span_count"] += raw["span_count"]
    return out


def deterministic(raw) -> dict:
    """The parts of a raw result that must repeat exactly for one input."""
    calls = {name: entry[0] for name, entry in raw["spans"].items()}
    return {"calls": dict(sorted(calls.items())), "counts": dict(sorted(raw["counts"].items()))}


def layer_metrics(raw) -> dict:
    """Per-layer metrics {name: (value, unit)} from one pass's raw result."""
    spans, counts = raw["spans"], raw["counts"]

    def calls(*names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    checks = ("witnesses.quasipolar_checks", "witnesses.rad_clean_checks")
    return {
        "oracle.view_build.s": (secs("oracle.get_view", "oracle.view_init"), "s"),
        "oracle.units.s": (secs("oracle.units", "oracle.inverse_key"), "s"),
        "oracle.jacobson.s": (secs("oracle.jacobson_keys", "oracle.corner_jacobson"), "s"),
        "oracle.commutant.s": (secs("oracle.commutant_keys", "oracle.double_commutant_keys"), "s"),
        "oracle.commutant.calls": (calls("oracle.commutant_keys"), "count"),
        "oracle.commutant.hit_ratio": (
            ratio(counts.get("oracle.commutant_hits", 0), calls("oracle.commutant_keys")), "ratio"),
        "oracle.search.s": (secs("oracle.idempotent_keys", "oracle.is_qnil_key",
                                 "oracle.quasipolar_search_keys", "oracle.rad_clean_search_keys"), "s"),
        "oracle.corner.s": (secs("oracle.corner", "oracle.corner_validate_key"), "s"),
        "oracle.comm2_check.s": (secs("oracle.in_double_commutant"), "s"),
        "oracle.key_products": (counts.get("oracle.key_products", 0), "count"),
        "sweeps.t3_case.s": (secs("sweeps.t3_case_sweep"), "s"),
        "sweeps.t3_rad_clean.s": (secs("sweeps.t3_rad_clean_sweep"), "s"),
        "sweeps.t2_exhaustive.s": (secs("sweeps.t2_exhaustive_sweep"), "s"),
        "sweeps.m2_agreement.s": (secs("sweeps.m2_agreement_sweep"), "s"),
        "sweeps.corner_equivalence.s": (secs("sweeps.corner_equivalence_sweep"), "s"),
        "rings.series_mul.calls": (calls("rings.series_mul"), "count"),
        "rings.series_mul.s": (secs("rings.series_mul"), "s"),
        "rings.series_inverse.calls": (calls("rings.series_inverse"), "count"),
        "rings.series_inverse.s": (secs("rings.series_inverse"), "s"),
        "rings.series_zero.calls": (counts.get("rings.series_zero", 0), "count"),
        "rings.scalar_ops.calls": (counts.get("rings.scalar_ops", 0), "count"),
        "series.lift.calls": (calls("series.lift_root"), "count"),
        "series.lift.s": (secs("series.lift_root", "series.lift_split", "series.holds_for"), "s"),
        "series.witness.s": (secs("series.quasipolar_witness_m2_series", "series.constant_term_matrix"), "s"),
        "witnesses.checks.calls": (calls(*checks), "count"),
        "witnesses.checks.s": (secs(*checks, "witnesses.require_valid"), "s"),
        "witnesses.checks_per_witness": (
            ratio(calls(*checks), counts.get("witnesses.returned", 0)), "ratio"),
        "triangular.idempotent.calls": (calls("triangular.spectral_idempotent_t3"), "count"),
        "triangular.idempotent.s": (secs("triangular.spectral_idempotent_t3"), "s"),
        "triangular.witness.s": (secs(
            "triangular.classify_case", "triangular.quasipolar_witness_t3",
            "triangular.rad_clean_witness_t3", "triangular.quasipolar_witness_t2",
            "triangular.quasipolar_witness_shape", "triangular.scalar_quasipolar"), "s"),
        "m2.classify.calls": (calls("m2.classify_m2"), "count"),
        "m2.classify.s": (secs("m2.classify_m2", "m2.find_root_split"), "s"),
        "m2.witness.s": (secs("m2.quasipolar_witness_m2"), "s"),
        "commutant.solve.calls": (calls("commutant.solve_commutant"), "count"),
        "matrices.product.calls": (calls("matrices.product"), "count"),
        "matrices.product.s": (secs("matrices.product"), "s"),
        "matrices.parse.s": (secs("matrices.parse_matrix"), "s"),
        "cli.requests": (calls("cli.main"), "count"),
        "cli.self_s": (secs("cli.main"), "s"),
        "trace.spans": (raw["span_count"], "count"),
    }
