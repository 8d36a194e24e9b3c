"""Command-line front end.

Exit codes: 0 when the requested computation succeeded (including a
correct negative classification), 1 when a verification failed (witness
invariant broke or a sweep found mismatches), 2 on unusable input, and
141 (128 + SIGPIPE, as a shell reports a writer killed by a closed pipe)
when the reader of stdout has gone, as in ``qp ... | head -c 100``.
Output is deterministic: no timestamps, counts pre-sorted, JSON keys
sorted.  ``main(argv)`` may be called any number of times in one
process: it builds the argument parser on its first call and reuses it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .commutant import check_bleached, check_uniquely_bleached
from .m2 import M2Kind, NotQuasipolarError, classify_m2, quasipolar_witness_m2
from .matrices import M2, T2, T3, parse_matrix, parse_shape
from .oracle import get_view
from .rings import QpolarError, TruncatedSeriesRing, parse_ring
from .sweeps import (
    corner_equivalence_sweep,
    m2_agreement_sweep,
    oracle_recheck,
    t2_exhaustive_sweep,
    t3_case_sweep,
    t3_rad_clean_sweep,
)
from .triangular import classify_case, quasipolar_witness_shape, rad_clean_witness_t3
from .witnesses import WitnessInvalid
from .worked_examples import all_examples, verify_example


def _add_common(sub):
    sub.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qp",
        description="Exact quasipolar decompositions over commutative local rings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    d = sub.add_parser("decompose", help="decompose one matrix in a supported shape")
    d.add_argument("--ring", required=True)
    d.add_argument("--shape", required=True)
    d.add_argument("--matrix", required=True)
    d.add_argument(
        "--oracle",
        action="store_true",
        help="also recheck comm^2 membership by exhaustive enumeration (finite rings)",
    )
    _add_common(d)

    c = sub.add_parser("classify-m2", help="trichotomy of a full 2x2 matrix")
    c.add_argument("--ring", required=True)
    c.add_argument("--matrix", required=True)
    _add_common(c)

    l = sub.add_parser("lift", help="lift constant roots over a series ring")
    l.add_argument("--ring", required=True, help="must spell a series(<ring>,<m>) ring")
    l.add_argument("--matrix", required=True)
    _add_common(l)

    o = sub.add_parser("oracle", help="exhaustive sweep against the brute-force oracle")
    o.add_argument("--ring", required=True)
    o.add_argument("--shape", required=True)
    o.add_argument(
        "--check",
        choices=["quasipolar", "rad-clean", "corner"],
        default="quasipolar",
    )
    _add_common(o)

    b = sub.add_parser("bleached", help="bleached / uniquely bleached check on a finite ring")
    b.add_argument("--ring", required=True)
    b.add_argument("--mode", choices=["unique", "surjective"], default="unique")
    _add_common(b)

    v = sub.add_parser("verify-t3", help="run the full triangular sweeps for one ring")
    v.add_argument("--ring", required=True)
    _add_common(v)

    e = sub.add_parser("verify-examples", help="re-derive the pinned worked examples")
    _add_common(e)

    return parser


def _emit(args, payload: dict, lines: list) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _check_lines(report, indent: str = "") -> list:
    return [f"{indent}check {name}: {'pass' if ok else 'FAIL'}" for name, ok in report.entries]


def _witness_lines(w) -> list:
    return [
        f"p: {w.p!r}",
        f"u: {w.u!r}",
        f"q: {w.q!r}",
        f"evidence: {w.comm2_evidence.value}",
    ] + _check_lines(w.report)


def _rad_clean_lines(w) -> list:
    return [f"e: {w.e!r}", f"v: {w.v!r}", f"corner: {w.corner_j!r}"] + _check_lines(w.report)


def _cmd_decompose(args) -> int:
    ring = parse_ring(args.ring)
    shape = parse_shape(args.shape)
    a = parse_matrix(ring, shape, args.matrix)
    view = get_view(ring, shape) if args.oracle else None
    payload: dict = {"verb": "decompose", "ring": repr(ring), "shape": shape.name,
                     "matrix": a.to_json()}
    lines = [f"ring: {ring!r}", f"shape: {shape.name}", f"matrix: {a!r}"]

    if shape == T3:
        tag = classify_case(a)
        payload["case"] = tag.case
        payload["pattern"] = list(tag.pattern)
        lines.append(f"case: {tag.case} ({','.join(tag.pattern)})")
    try:
        w = quasipolar_witness_shape(a)
    except NotQuasipolarError as exc:
        payload.update({"kind": "not-quasipolar", "reason": str(exc), "ok": True})
        lines.append(f"not quasipolar: {exc}")
        _emit(args, payload, lines)
        return 0
    if view is not None:
        w = oracle_recheck(w, view)
    # For T3 the quasipolar idempotent is the diagonal-pattern E, which is also
    # the rad-clean idempotent.
    rad = rad_clean_witness_t3(a, w.p) if shape == T3 else None

    payload["witness"] = w.to_dict()
    lines.extend(_witness_lines(w))
    if rad is not None:
        payload["rad_clean"] = rad.to_dict()
        lines.extend(_rad_clean_lines(rad))
    ok = payload["witness"]["ok"] and (rad is None or payload["rad_clean"]["ok"])
    payload["ok"] = ok
    lines.append("verified" if ok else "VERIFICATION FAILED")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_classify_m2(args) -> int:
    ring = parse_ring(args.ring)
    a = parse_matrix(ring, M2, args.matrix)
    cls = classify_m2(a)
    payload = {"verb": "classify-m2", "ring": repr(ring), "matrix": a.to_json()}
    payload.update(cls.to_dict())
    lines = [f"ring: {ring!r}", f"matrix: {a!r}", f"kind: {cls.kind.value}"]
    if cls.roots is not None:
        lines.append(f"roots: alpha={cls.roots[0]!r} beta={cls.roots[1]!r}")
    if cls.reason:
        lines.append(f"reason: {cls.reason}")
    _emit(args, payload, lines)
    return 0


def _cmd_lift(args) -> int:
    ring = parse_ring(args.ring)
    if not isinstance(ring, TruncatedSeriesRing):
        raise QpolarError(f"lift needs a series ring, got {ring!r}")
    a = parse_matrix(ring, M2, args.matrix)
    payload: dict = {"verb": "lift", "ring": repr(ring), "matrix": a.to_json()}
    lines = [f"ring: {ring!r}", f"matrix: {a!r}"]
    # A series is a unit or radical exactly when its constant term is, so
    # this is the constant matrix's kind, and a split is lifted once here.
    cls = classify_m2(a)
    payload["constant_kind"] = cls.kind.value
    lines.append(f"constant kind: {cls.kind.value}")
    if cls.kind is M2Kind.NOT_QUASIPOLAR:
        payload.update({"reason": cls.reason, "ok": True})
        lines.append(f"not quasipolar: {cls.reason}")
        _emit(args, payload, lines)
        return 0
    if cls.kind is M2Kind.SPLIT:
        alpha, beta = cls.roots
        payload["alpha"] = repr(alpha)
        payload["beta"] = repr(beta)
        lines.append(f"alpha: {alpha!r}")
        lines.append(f"beta: {beta!r}")
    w = quasipolar_witness_m2(a, cls=cls)
    payload["witness"] = w.to_dict()
    payload["ok"] = payload["witness"]["ok"]
    lines.extend(_witness_lines(w))
    lines.append("verified" if payload["ok"] else "VERIFICATION FAILED")
    _emit(args, payload, lines)
    return 0 if payload["ok"] else 1


def _cmd_oracle(args) -> int:
    ring = parse_ring(args.ring)
    shape = parse_shape(args.shape)
    if args.check == "corner":
        report = corner_equivalence_sweep(ring, shape)
    elif args.check == "rad-clean":
        if shape != T3:
            raise QpolarError("rad-clean sweep is defined for shape T3")
        report = t3_rad_clean_sweep(ring)
    elif shape == T3:
        report = t3_case_sweep(ring)
    elif shape == T2:
        report = t2_exhaustive_sweep(ring)
    elif shape == M2:
        report = m2_agreement_sweep(ring)
    else:
        raise QpolarError(f"no oracle sweep for shape {shape.name}")
    payload = {"verb": "oracle", "ring": repr(ring), "shape": shape.name,
               "check": args.check, "report": report.to_dict()}
    lines = [f"ring: {ring!r}", f"shape: {shape.name}", f"sweep: {report.name}",
             f"total: {report.total}"]
    for label, count in report.counts.items():
        lines.append(f"  {label}: {count}")
    for failure in report.failures:
        lines.append(f"mismatch: {failure}")
    lines.append("ok" if report.passed else "MISMATCHES FOUND")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_bleached(args) -> int:
    ring = parse_ring(args.ring)
    if args.mode == "unique":
        report = check_uniquely_bleached(ring)
    else:
        report = check_bleached(ring)
    payload = {"verb": "bleached", "report": report.to_dict()}
    lines = [
        f"ring: {report.ring_spelling}",
        f"mode: {report.mode}",
        f"pairs checked: {report.pairs_checked}",
    ]
    for failure in report.failures:
        lines.append(f"failing pair: {failure}")
    lines.append("ok" if report.passed else "NOT BLEACHED")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_verify_t3(args) -> int:
    ring = parse_ring(args.ring)
    reports = [t3_case_sweep(ring), t3_rad_clean_sweep(ring)]
    payload = {"verb": "verify-t3", "ring": repr(ring),
               "reports": [r.to_dict() for r in reports]}
    lines = [f"ring: {ring!r}"]
    ok = True
    for report in reports:
        lines.append(f"sweep {report.name}: total {report.total}")
        for label, count in report.counts.items():
            lines.append(f"  {label}: {count}")
        for failure in report.failures:
            lines.append(f"  mismatch: {failure}")
        ok = ok and report.passed
    lines.append("ok" if ok else "MISMATCHES FOUND")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_verify_examples(args) -> int:
    payload: dict = {"verb": "verify-examples", "examples": []}
    lines = []
    ok = True
    for ex in all_examples():
        report = verify_example(ex)
        payload["examples"].append(
            {"name": ex.name, "ring": repr(ex.ring), "report": report.to_dict()}
        )
        lines.append(f"example {ex.name} over {ex.ring!r}:")
        lines.extend(_check_lines(report, "  "))
        ok = ok and report.passed
    payload["ok"] = ok
    lines.append("ok" if ok else "EXAMPLE CHECKS FAILED")
    _emit(args, payload, lines)
    return 0 if ok else 1


_DISPATCH = {
    "decompose": _cmd_decompose,
    "classify-m2": _cmd_classify_m2,
    "lift": _cmd_lift,
    "oracle": _cmd_oracle,
    "bleached": _cmd_bleached,
    "verify-t3": _cmd_verify_t3,
    "verify-examples": _cmd_verify_examples,
}


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        code = _DISPATCH[args.verb](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's documented recipe: the interpreter's last flush of stdout
        # would fail again, so it goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except WitnessInvalid as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except QpolarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
