"""Re-check every output of the program from the outside.

Each printed witness is re-read through the program's own readers
(``matrix_from_json`` for json, ``parse_matrix`` for text) and its
identities are recomputed with the payload arithmetic of ``arith``:
p*p = p, p*a = a*p, u = a + p, q = a*p and u a unit (for rad-clean
witnesses e*e = e, e*a = a*e, v = a - e a unit, corner = e*a*e with a
radical diagonal).  The outcome must also match the class the
generator fixed: M2 kind, T3 case, "not quasipolar", or exit 2.

``check`` returns None for a correct output and a one-line reason
otherwise.  Importing this module needs the program's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import json
from functools import lru_cache

from qpolar.matrices import matrix_from_json, parse_matrix, parse_shape
from qpolar.rings import QpolarError, parse_ring as program_ring

import arith


class Mismatch(Exception):
    pass


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@lru_cache(maxsize=None)
def _rings(spelling: str):
    return program_ring(spelling), arith.parse_ring(spelling)


def _payload(x):
    if isinstance(x.payload, tuple):
        return tuple(c.payload for c in x.payload)
    return x.payload


def _model(m):
    return [[_payload(x) for x in row] for row in m.rows]


def _from_json(data, spelling: str, shape: str):
    _need(data["ring"] == spelling and data["shape"] == shape, f"matrix over {data['ring']}/{data['shape']}")
    return _model(matrix_from_json(data))


def _from_text(text: str, spelling: str, shape: str):
    return _model(parse_matrix(_rings(spelling)[0], parse_shape(shape), text))


def _scalar(text: str, spelling: str):
    return _payload(_rings(spelling)[0].parse(text))


def _check_quasipolar(ring, a, p, u, q, full: bool, kind) -> None:
    n = len(a)
    ap = arith.mat_mul(ring, a, p)
    _need(arith.mat_mul(ring, p, p) == p, "p*p != p")
    _need(arith.mat_mul(ring, p, a) == ap, "p*a != a*p")
    _need(u == arith.mat_add(ring, a, p), "u != a + p")
    _need(q == ap, "q != a*p")
    _need(arith.is_unit_matrix(ring, u, full), "u is not a unit")
    if kind == "invertible":
        _need(p == arith.zeros(ring, n), "invertible input with p != 0")
    elif kind == "quasinilpotent":
        _need(p == arith.identity(ring, n), "quasinilpotent input with p != 1")
    elif kind == "split":
        _need(p not in (arith.zeros(ring, n), arith.identity(ring, n)), "split input with trivial p")


def _check_rad_clean(ring, a, e, v, cj) -> None:
    _need(arith.mat_mul(ring, e, e) == e, "e*e != e")
    _need(arith.mat_mul(ring, e, a) == arith.mat_mul(ring, a, e), "e*a != a*e")
    _need(v == arith.mat_sub(ring, a, e), "v != a - e")
    _need(arith.is_unit_matrix(ring, v, False), "v is not a unit")
    _need(cj == arith.mat_mul(ring, arith.mat_mul(ring, e, a), e), "corner != e*a*e")
    _need(not any(ring.is_unit(cj[i][i]) for i in range(len(cj))), "corner diagonal not radical")


def _check_roots(ring, a, alpha, beta) -> None:
    _need(not ring.is_unit(alpha) and ring.is_unit(beta), "roots not radical/unit")
    _need(ring.add(alpha, beta) == arith.trace(ring, a), "alpha + beta != tr")
    _need(ring.mul(alpha, beta) == arith.det2(ring, a), "alpha*beta != det")


def _text_fields(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def _check_json(req, out: str, ring, a) -> None:
    doc = json.loads(out)
    spelling, shape, full = req.ring, req.shape, req.shape == "M2"
    _need(_from_json(doc["matrix"], spelling, shape) == a, "echoed matrix differs from input")
    if req.verb == "classify-m2":
        _need(doc["kind"] == req.kind, f"kind {doc['kind']} != {req.kind}")
        if req.kind == "split":
            alpha, beta = (_scalar(r, spelling) for r in doc["roots"])
            _check_roots(ring, a, alpha, beta)
        return
    if req.verb == "lift":
        _need(doc["constant_kind"] == req.kind, f"constant kind {doc['constant_kind']} != {req.kind}")
        if req.kind == "split":
            _check_roots(ring, a, _scalar(doc["alpha"], spelling), _scalar(doc["beta"], spelling))
    if req.expect == "not-quasipolar":
        _need(doc["ok"] is True and "witness" not in doc, "obstructed input got a witness")
        if req.verb == "decompose":
            _need(doc["kind"] == "not-quasipolar", "obstructed input not reported")
        return
    w = doc["witness"]
    _need(doc["ok"] is True and w["ok"] is True and all(w["checks"].values()), "program reports a failed check")
    _need(_from_json(w["a"], spelling, shape) == a, "witness a differs from input")
    p, u, q = (_from_json(w[k], spelling, shape) for k in ("p", "u", "q"))
    _check_quasipolar(ring, a, p, u, q, full, req.kind)
    if shape == "T3":
        _need(doc["case"] == req.case, f"case {doc['case']} != {req.case}")
        rc = doc["rad_clean"]
        _need(rc["ok"] is True and all(rc["checks"].values()), "program reports a failed rad-clean check")
        e, v, cj = (_from_json(rc[k], spelling, shape) for k in ("e", "v", "corner_j"))
        _check_rad_clean(ring, a, e, v, cj)


def _check_text(req, out: str, ring, a) -> None:
    f = _text_fields(out)
    spelling, shape, full = req.ring, req.shape, req.shape == "M2"
    _need(f.get("ring") == spelling and _from_text(f["matrix"], spelling, shape) == a, "echoed matrix differs from input")
    lines = out.splitlines()
    if req.verb == "classify-m2":
        _need(f.get("kind") == req.kind, f"kind {f.get('kind')} != {req.kind}")
        if req.kind == "split":
            alpha_text, _, beta_text = f["roots"].partition(" beta=")
            alpha = _scalar(alpha_text.removeprefix("alpha="), spelling)
            _check_roots(ring, a, alpha, _scalar(beta_text, spelling))
        return
    if req.verb == "lift":
        _need(f.get("constant kind") == req.kind, f"constant kind {f.get('constant kind')} != {req.kind}")
        if req.kind == "split":
            _check_roots(ring, a, _scalar(f["alpha"], spelling), _scalar(f["beta"], spelling))
    if req.expect == "not-quasipolar":
        _need("not quasipolar" in f and "verified" not in lines, "obstructed input not reported")
        return
    _need(lines[-1] == "verified", f"last line {lines[-1]!r}")
    _need(all(line.endswith(": pass") for line in lines if line.startswith("check ")), "program reports a failed check")
    p, u, q = (_from_text(f[k], spelling, shape) for k in ("p", "u", "q"))
    _check_quasipolar(ring, a, p, u, q, full, req.kind)
    if shape == "T3":
        _need(f["case"].split()[0] == str(req.case), f"case {f['case']} != {req.case}")
        e, v, cj = (_from_text(f[k], spelling, shape) for k in ("e", "v", "corner"))
        _check_rad_clean(ring, a, e, v, cj)


def _check_reports(req, out: str) -> None:
    doc = json.loads(out)
    got = doc["reports"] if "reports" in doc else [doc["report"]]
    _need(got == req.reports, f"reports differ from the pinned ones: {got}")


def check(req, rc: int, out: str, err: str):
    """None when the output is correct for req, else a one-line reason."""
    try:
        if req.expect == "exit2":
            _need(rc == 2 and out == "" and err.startswith("error: "), f"exit {rc} on a malformed literal")
            return None
        _need(rc == 0 and err == "", f"exit {rc}: {err.strip()[:120]}")
        if req.expect == "reports":
            _check_reports(req, out)
            return None
        a = _from_text(req.argv[req.argv.index("--matrix") + 1], req.ring, req.shape)
        ring = _rings(req.ring)[1]
        if req.fmt == "json":
            _check_json(req, out, ring, a)
        else:
            _check_text(req, out, ring, a)
        return None
    except Mismatch as exc:
        return str(exc)
    except (AttributeError, KeyError, IndexError, ValueError, TypeError, QpolarError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
