"""Command-line front end.

Exit codes: 0 when the requested computation succeeded (including a
correct negative classification), 1 when a verification failed (witness
invariant broke or a sweep found mismatches), 2 on unusable input, and
141 (128 + SIGPIPE, as a shell reports a writer killed by a closed pipe)
when the reader of stdout has gone, as in ``qp ... | head -c 100``.
Output is deterministic: no timestamps, counts pre-sorted, JSON keys
sorted.  ``main(argv)`` may be called any number of times in one
process: it builds the argument parser on its first call and reuses it.

Each verb is declared once, in ``build_parser``, with its handler.  A
handler returns the request's document, its text lines and its verdict;
``main`` alone prints the document (``--format json``) or the lines and
maps the verdict to exit code 0 or 1.

``_json`` prints a document as ``json.dumps(doc, indent=2, sort_keys=True)``
would, without the pure-Python encoder that ``indent`` makes it run.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from .commutant import check_bleached, check_uniquely_bleached
from .m2 import M2Kind, NotQuasipolarError, classify_m2, quasipolar_witness_m2
from .matrices import M2, T3, parse_matrix, parse_shape
from .oracle import get_view
from .rings import QpolarError, TruncatedSeriesRing, parse_ring
from .sweeps import (
    corner_equivalence_sweep,
    oracle_recheck,
    t3_case_sweep,
    t3_rad_clean_sweep,
    uniqueness_sweep,
)
from .triangular import classify_case, quasipolar_witness_shape, rad_clean_witness_t3, require_engine
from .witnesses import WitnessInvalid
from .worked_examples import all_examples, verify_example


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qp",
        description="Exact quasipolar decompositions over commutative local rings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, about, ring=True, **ring_kw):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        if ring:
            p.add_argument("--ring", required=True, **ring_kw)
        return p

    d = verb("decompose", _cmd_decompose, "decompose one matrix in a supported shape")
    d.add_argument("--shape", required=True)
    d.add_argument("--matrix", required=True)
    d.add_argument(
        "--oracle",
        action="store_true",
        help="also recheck comm^2 membership by exhaustive enumeration (finite rings)",
    )
    c = verb("classify-m2", _cmd_classify_m2, "trichotomy of a full 2x2 matrix")
    c.add_argument("--matrix", required=True)
    l = verb("lift", _cmd_lift, "lift constant roots over a series ring",
             help="must spell a series(<ring>,<m>) ring")
    l.add_argument("--matrix", required=True)
    o = verb("oracle", _cmd_oracle, "exhaustive sweep against the brute-force oracle")
    o.add_argument("--shape", required=True)
    o.add_argument(
        "--check",
        choices=["quasipolar", "rad-clean", "corner"],
        default="quasipolar",
    )
    b = verb("bleached", _cmd_bleached, "bleached / uniquely bleached check on a finite ring")
    b.add_argument("--mode", choices=["unique", "surjective"], default="unique")
    verb("verify-t3", _cmd_verify_t3, "run the full triangular sweeps for one ring")
    verb("verify-examples", _cmd_verify_examples, "re-derive the pinned worked examples",
         ring=False)
    # Last on every verb, so each usage line ends with it.
    for p in sub.choices.values():
        p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _check_lines(report, indent: str = "") -> list:
    return [f"{indent}check {name}: {'pass' if ok else 'FAIL'}" for name, ok in report.entries]


def _sweep_lines(report, indent: str = "") -> list:
    return ([f"  {label}: {count}" for label, count in report.counts.items()]
            + [f"{indent}mismatch: {failure}" for failure in report.failures])


def _not_quasipolar(payload: dict, lines: list, reason: str):
    """A correct negative: the request succeeded."""
    payload.update(reason=reason, ok=True)
    lines.append(f"not quasipolar: {reason}")
    return payload, lines, True


def _verified(payload: dict, lines: list, w, oracle: bool = False, rad=None):
    """Put w, and T3's rad-clean witness rad, in the payload and lines with
    the verdict their stored reports give.  w carries its evidence label:
    every passing p is in comm^2(A) (qpolar.witnesses), and the label says
    what else shows it."""
    evidence = ("polynomial-in-a" if w.a.shape == M2
                else "finite-exhaustive" if oracle else "case-construction")
    payload["witness"] = dict(w.to_dict(), comm2_evidence=evidence)
    lines += [f"p: {w.p!r}", f"u: {w.u!r}", f"q: {w.q!r}", f"evidence: {evidence}"]
    lines += _check_lines(w.report)
    ok = w.report.passed
    if rad is not None:
        payload["rad_clean"] = rad.to_dict()
        lines += [f"e: {rad.e!r}", f"v: {rad.v!r}", f"corner: {rad.corner_j!r}"]
        lines += _check_lines(rad.report)
        ok = ok and rad.report.passed
    payload["ok"] = ok
    lines.append("verified" if ok else "VERIFICATION FAILED")
    return payload, lines, ok


def _cmd_decompose(args):
    ring = parse_ring(args.ring)
    shape = parse_shape(args.shape)
    a = parse_matrix(ring, shape, args.matrix)
    require_engine(shape)
    view = get_view(ring, shape) if args.oracle else None
    payload: dict = {"ring": repr(ring), "shape": shape.name, "matrix": a.to_json()}
    lines = [f"ring: {ring!r}", f"shape: {shape.name}", f"matrix: {a!r}"]

    if shape == T3:
        tag = classify_case(a)
        payload["case"] = tag.case
        payload["pattern"] = list(tag.pattern)
        lines.append(f"case: {tag.case} ({','.join(tag.pattern)})")
    try:
        w = quasipolar_witness_shape(a)
    except NotQuasipolarError as exc:
        payload["kind"] = "not-quasipolar"
        return _not_quasipolar(payload, lines, str(exc))
    if view is not None:
        oracle_recheck(w, view)
    # For T3 the quasipolar idempotent is the diagonal-pattern E, which is also
    # the rad-clean idempotent.
    rad = rad_clean_witness_t3(a, w.p) if shape == T3 else None
    return _verified(payload, lines, w, oracle=view is not None, rad=rad)


def _cmd_classify_m2(args):
    ring = parse_ring(args.ring)
    a = parse_matrix(ring, M2, args.matrix)
    cls = classify_m2(a)
    payload = dict(cls.to_dict(), ring=repr(ring), matrix=a.to_json())
    lines = [f"ring: {ring!r}", f"matrix: {a!r}", f"kind: {cls.kind.value}"]
    if cls.roots is not None:
        lines.append(f"roots: alpha={cls.roots[0]!r} beta={cls.roots[1]!r}")
    if cls.reason:
        lines.append(f"reason: {cls.reason}")
    return payload, lines, True


def _cmd_lift(args):
    ring = parse_ring(args.ring)
    if not isinstance(ring, TruncatedSeriesRing):
        raise QpolarError(f"lift needs a series ring, got {ring!r}")
    a = parse_matrix(ring, M2, args.matrix)
    # A series is a unit or radical exactly when its constant term is, so
    # this is the constant matrix's kind, and a split is lifted once here.
    cls = classify_m2(a)
    payload: dict = {"ring": repr(ring), "matrix": a.to_json(), "constant_kind": cls.kind.value}
    lines = [f"ring: {ring!r}", f"matrix: {a!r}", f"constant kind: {cls.kind.value}"]
    if cls.kind is M2Kind.NOT_QUASIPOLAR:
        return _not_quasipolar(payload, lines, cls.reason)
    if cls.kind is M2Kind.SPLIT:
        alpha, beta = cls.roots
        payload.update(alpha=repr(alpha), beta=repr(beta))
        lines += [f"alpha: {alpha!r}", f"beta: {beta!r}"]
    return _verified(payload, lines, quasipolar_witness_m2(a, cls=cls))


def _cmd_oracle(args):
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
    else:
        report = uniqueness_sweep(ring, shape)
    payload = {"ring": repr(ring), "shape": shape.name, "check": args.check,
               "report": report.to_dict()}
    lines = [f"ring: {ring!r}", f"shape: {shape.name}", f"sweep: {report.name}",
             f"total: {report.total}", *_sweep_lines(report),
             "ok" if report.passed else "MISMATCHES FOUND"]
    return payload, lines, report.passed


def _cmd_bleached(args):
    ring = parse_ring(args.ring)
    if args.mode == "unique":
        report = check_uniquely_bleached(ring)
    else:
        report = check_bleached(ring)
    lines = [
        f"ring: {report.ring_spelling}",
        f"mode: {report.mode}",
        f"pairs checked: {report.pairs_checked}",
    ]
    lines += [f"failing pair: {failure}" for failure in report.failures]
    lines.append("ok" if report.passed else "NOT BLEACHED")
    return {"report": report.to_dict()}, lines, report.passed


def _cmd_verify_t3(args):
    ring = parse_ring(args.ring)
    reports = [t3_case_sweep(ring), t3_rad_clean_sweep(ring)]
    lines = [f"ring: {ring!r}"]
    for report in reports:
        lines.append(f"sweep {report.name}: total {report.total}")
        lines += _sweep_lines(report, "  ")
    ok = all(report.passed for report in reports)
    lines.append("ok" if ok else "MISMATCHES FOUND")
    return {"ring": repr(ring), "reports": [r.to_dict() for r in reports]}, lines, ok


def _cmd_verify_examples(args):
    examples, lines, ok = [], [], True
    for ex in all_examples():
        report = verify_example(ex)
        examples.append({"name": ex.name, "ring": repr(ex.ring), "report": report.to_dict()})
        lines.append(f"example {ex.name} over {ex.ring!r}:")
        lines += _check_lines(report, "  ")
        ok = ok and report.passed
    lines.append("ok" if ok else "EXAMPLE CHECKS FAILED")
    return {"examples": examples, "ok": ok}, lines, ok


def _json(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``; a tuple is a list."""
    kind, inner, quote = type(doc), indent + "  ", encode_basestring_ascii
    if kind is str:
        return quote(doc)
    elif kind is dict:
        items, ends = [f"{quote(k)}: {_json(doc[k], inner)}" for k in sorted(doc)], "{}"
    elif kind is list or kind is tuple:
        items, ends = [quote(v) if type(v) is str else _json(v, inner) for v in doc], "[]"
    elif kind is int:
        return int.__repr__(doc)
    elif kind is bool or doc is None:
        return "null" if doc is None else "true" if doc else "false"
    else:
        raise TypeError(f"a document cannot hold {kind.__name__} {doc!r}")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        payload, lines, ok = args.run(args)
        if args.format == "json":
            payload["verb"] = args.verb
            print(_json(payload))
        else:
            print(*lines, sep="\n")
        sys.stdout.flush()
        return 0 if ok else 1
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
