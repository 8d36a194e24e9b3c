"""The benchmark's three workloads and their seeded request generators.

Every request is one ``qp`` argv list plus the outcome the generator
fixed for it before the program ran: a verified witness, a correct
"not quasipolar", a given M2 kind, a given T3 case, or exit 2 on a
deliberately malformed literal.  Matrices of a wanted kind are built
from their trace and determinant (see ``m2_of_kind``), so the expected
class never comes from the program under test.

Request counts per cell are fixed, so the mix, and with it the cost
profile, is the same for every seed; the seed only draws the entries.
``DEFAULT_SEED`` is the seed whose stdout digests are pinned in
``digests.json``; ``HELD_OUT_SEED`` is kept for checking a claimed gain
on inputs not used while the change was written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import arith

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# The input language of the program: which entries of each shape may be
# nonzero (0-based row, column).
SHAPE_MASKS = {
    "T2": ((0, 0), (0, 1), (1, 1)),
    "T3": ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2)),
    "L3": ((0, 0), (1, 1), (2, 0), (2, 2)),
    "LOW3": ((0, 0), (1, 1), (2, 0), (2, 1), (2, 2)),
    "UP3": ((0, 0), (0, 2), (1, 1), (1, 2), (2, 2)),
    "S1": ((0, 0), (0, 2), (1, 1), (2, 2)),
    "S2": ((0, 0), (1, 1), (2, 1), (2, 2)),
    "M2": ((0, 0), (0, 1), (1, 0), (1, 1)),
}
TRI_SHAPES = ("T2", "T3", "L3", "LOW3", "UP3", "S1", "S2")

# The paper's eight T3 cases, keyed by the unit (U) / radical (J)
# pattern of the diagonal.
T3_CASES = {
    "JJJ": 1, "UUU": 2, "UJJ": 3, "JUJ": 4, "JJU": 5, "JUU": 6, "UJU": 7, "UUJ": 8,
}

M2_KINDS = ("invertible", "quasinilpotent", "split")
OBSTRUCTED = "not-quasipolar"


@dataclass
class Request:
    """One CLI call and the outcome fixed for it in advance.

    ``expect`` is "verified", "not-quasipolar", "exit2", "kind" (a
    classify-m2 answer equal to ``kind``) or "reports" (an exhaustive
    verb whose reports must equal ``reports``).
    """

    argv: list
    expect: str
    ring: str = ""
    shape: str = "M2"
    kind: str | None = None
    case: int | None = None
    reports: list = field(default_factory=list)

    @property
    def verb(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return "json" if "json" in self.argv else "text"


@dataclass
class Workload:
    name: str
    why: str
    cold: bool  # one fresh worker process per request
    build: object  # seed -> list[Request]


# -- matrices of a known class -------------------------------------------------


def m2_of_kind(ring, kind: str, rng):
    """A 2x2 matrix over a base-ring model with the given trichotomy kind.

    Kinds follow from trace and determinant: a unit determinant is
    invertible; radical trace and determinant are quasinilpotent; a
    radical determinant with a unit trace is split when the
    characteristic polynomial has a radical root (built here from a root
    pair alpha radical, beta unit) and obstructed when it has none.
    Over Zloc<p> a negative discriminant has no rational root at all.
    """
    if kind == "invertible":
        while True:
            a = [[ring.rand_any(rng) for _ in range(2)] for _ in range(2)]
            if ring.is_unit(arith.det2(ring, a)):
                return a
    if kind == "quasinilpotent":
        tr, det = ring.rand_radical(rng), ring.rand_radical(rng)
    elif kind == "split":
        # beta - alpha is the unit that lifting and p divide by.
        alpha = ring.rand_radical(rng)
        beta = ring.add(alpha, ring.rand_unit(rng))
        tr, det = ring.add(alpha, beta), ring.mul(alpha, beta)
    elif kind == OBSTRUCTED:
        if not isinstance(ring, arith.ZlocRing):
            raise ValueError("obstructed 2x2 inputs are built over Zloc<p> only")
        tr = ring.rand_unit(rng)
        det = ring.p * (int(tr * tr / (4 * ring.p)) + 1 + rng.randint(0, 5))
        det = Fraction(det)
    else:
        raise ValueError(f"unknown kind {kind}")
    a00 = ring.rand_any(rng)
    a11 = ring.sub(tr, a00)
    a01 = ring.rand_unit(rng)
    a10 = ring.mul(ring.sub(ring.mul(a00, a11), det), ring.inverse(a01))
    return [[a00, a01], [a10, a11]]


def shaped_of_pattern(ring, shape: str, pattern: str, rng):
    """A matrix in a sparse shape whose diagonal has the U/J pattern."""
    n = 2 if shape == "T2" else 3
    a = arith.zeros(ring, n)
    for i, j in SHAPE_MASKS[shape]:
        if i == j:
            a[i][j] = ring.rand_radical(rng) if pattern[i] == "J" else ring.rand_unit(rng)
        else:
            a[i][j] = ring.rand_any(rng)
    return a


def series_entry(base, c0, precision: int, rng) -> str:
    """Literal of a series with constant term c0 and unit x and x^2 terms.

    Unit coefficients at fixed low powers make every product dense within
    a few steps, so a request's cost depends on its cell (base, m, kind,
    verb), not on where the seed happened to put zeros or zero divisors.
    """
    terms = [base.fmt(c0)]
    for power in (1, 2):
        terms.append(f"{base.fmt(base.rand_unit(rng))}*x^{power}")
    return " + ".join(terms)


def literal(rows) -> str:
    return "[" + "; ".join(", ".join(row) for row in rows) + "]"


def fmt_matrix(ring, a) -> str:
    return literal([[ring.fmt(x) for x in row] for row in a])


def _patterns(n: int):
    return ["".join("J" if (b >> i) & 1 else "U" for i in range(n)) for b in range(2**n)]


# -- deliberately malformed literals ------------------------------------------

_MALFORMED = ("drop-row", "unbalanced", "bad-entry", "outside-shape")


def malformed(req: Request, how: str, rng) -> Request:
    """A copy of req whose --matrix literal the program must refuse (exit 2)."""
    argv = list(req.argv)
    at = argv.index("--matrix") + 1
    text = argv[at]
    rows = [r.split(",") for r in text[1:-1].split(";")]
    if how == "drop-row":
        text = literal([[e.strip() for e in r] for r in rows[:-1]])
    elif how == "unbalanced":
        text = text[:-1]
    elif how == "bad-entry":
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows[i][j] = " 1/0" if rng.random() < 0.5 else " one"
        text = literal([[e.strip() for e in r] for r in rows])
    elif how == "outside-shape":
        n = len(rows)
        outside = [(i, j) for i in range(n) for j in range(n) if (i, j) not in SHAPE_MASKS[req.shape]]
        i, j = rng.choice(outside) if outside else (0, 0)
        rows[i][j] = "1" if outside else " one"
        text = literal([[e.strip() for e in r] for r in rows])
    argv[at] = text
    return Request(argv, "exit2", ring=req.ring, shape=req.shape)


# -- workloads -------------------------------------------------------------------

DECOMPOSE_RINGS = ("Zloc2", "Zloc3", "F3", "F5", "Z2^2", "Z3^2")


def _kinds_for(ring_spelling: str):
    return M2_KINDS + ((OBSTRUCTED,) if ring_spelling.startswith("Zloc") else ())


def _m2_request(verb, spelling, kind, fmt, rng, series_precision=None):
    base = arith.parse_ring(spelling, small=series_precision is not None)
    a = m2_of_kind(base, kind, rng)
    if series_precision is None:
        ring, text = spelling, fmt_matrix(base, a)
    else:
        ring = f"series({spelling},{series_precision})"
        text = literal([[series_entry(base, x, series_precision, rng) for x in row] for row in a])
    argv = [verb, "--ring", ring]
    if verb == "decompose":
        argv += ["--shape", "M2"]
    argv += ["--matrix", text, "--format", fmt]
    if verb == "classify-m2":
        expect = "kind"
    else:
        expect = OBSTRUCTED if kind == OBSTRUCTED else "verified"
    return Request(argv, expect, ring=ring, kind=kind)


def decompose_mix(seed: int) -> list:
    """3,054 requests: 2,016 sparse-shape decompositions (every shape, ring
    and diagonal pattern), 480 M2 decompositions, 300 classify-m2 calls, 98
    M2 decompositions over series(.,8), 160 malformed literals; half text,
    half json; shuffled."""
    rng = random.Random(seed)
    valid = []
    for spelling in DECOMPOSE_RINGS:
        ring = arith.parse_ring(spelling)
        for shape in TRI_SHAPES:
            patterns = _patterns(2 if shape == "T2" else 3)
            for i in range(48):
                pattern = patterns[i % len(patterns)]
                a = shaped_of_pattern(ring, shape, pattern, rng)
                fmt = ("text", "json")[(i // len(patterns)) % 2]
                argv = ["decompose", "--ring", spelling, "--shape", shape,
                        "--matrix", fmt_matrix(ring, a), "--format", fmt]
                case = T3_CASES[pattern] if shape == "T3" else None
                valid.append(Request(argv, "verified", ring=spelling, shape=shape, case=case))
        for kind in _kinds_for(spelling):
            for i in range(24):
                valid.append(_m2_request("decompose", spelling, kind, ("text", "json")[i % 2], rng))
            for i in range(15):
                valid.append(_m2_request("classify-m2", spelling, kind, ("text", "json")[i % 2], rng))
    for spelling in ("Z2^2", "Zloc2"):
        for kind in _kinds_for(spelling):
            for i in range(14):
                valid.append(_m2_request("decompose", spelling, kind, ("text", "json")[i % 2], rng, 8))
    bad = [
        malformed(valid[rng.randrange(len(valid))], _MALFORMED[i % len(_MALFORMED)], rng)
        for i in range(160)
    ]
    out = valid + bad
    rng.shuffle(out)
    return out


SERIES_BASES = ("Z2^2", "F3", "Z3^2", "Zloc2")
# Precision -> requests per (verb, base, kind) cell, 208 in all.  The
# costliest requests are the Zloc2 lifts at m=32 (ranks 1-4), then the
# Zloc2 lifts at m=16 with the Z3^2 lifts at m=32 (ranks 5-16): these
# counts put the p99 rank (3) and the p95 rank (11) inside those blocks
# rather than on the cliff between two of them.
SERIES_PRECISIONS = {8: 2, 16: 4, 32: 2}


def series_lift(seed: int) -> list:
    """M2 decompose and lift requests over series(B,m): per verb, base and
    kind, two at m=8, four at m=16 and two at m=32 (208 requests)."""
    rng = random.Random(seed)
    out = []
    for spelling in SERIES_BASES:
        for kind in _kinds_for(spelling):
            for precision, per_cell in SERIES_PRECISIONS.items():
                for verb in ("decompose", "lift"):
                    for i in range(per_cell):
                        fmt = ("text", "json")[(i + (verb == "lift")) % 2]
                        out.append(_m2_request(verb, spelling, kind, fmt, rng, precision))
    rng.shuffle(out)
    return out


def _report(name, total, counts):
    return {"name": name, "total": total, "counts": counts, "failures": [], "passed": True}


_T3_Z4 = {f"case {c}": 128 for c in range(1, 9)}
_T3_F3 = {"case 1": 9, "case 2": 72, "case 3": 18, "case 4": 18,
          "case 5": 18, "case 6": 36, "case 7": 36, "case 8": 36}

ORACLE_VERBS = (
    (["verify-t3", "--ring", "Z2^2"],
     [_report("t3-case", 1024, _T3_Z4), _report("t3-rad-clean", 1024, {"confirmed": 1024})]),
    (["oracle", "--ring", "Z2^3", "--shape", "T2"],
     [_report("t2-exhaustive", 512, {"(J,J)": 128, "(J,U)": 128, "(U,J)": 128, "(U,U)": 128})]),
    (["oracle", "--ring", "Z2^2", "--shape", "M2"],
     [_report("m2-agreement", 256, {"invertible": 96, "quasinilpotent": 64, "split": 96})]),
    (["oracle", "--ring", "F3", "--shape", "T3", "--check", "corner"],
     [_report("corner-equivalence-t3", 243, {"quasipolar": 243})]),
    (["verify-t3", "--ring", "F3"],
     [_report("t3-case", 243, _T3_F3), _report("t3-rad-clean", 243, {"confirmed": 243})]),
)


def oracle_sweep(seed: int) -> list:
    """The five exhaustive verbs with their pinned reports; the seed is
    unused because every key of every carrier is checked."""
    del seed
    return [
        Request(argv + ["--format", "json"], "reports", ring=argv[2], reports=reports)
        for argv, reports in ORACLE_VERBS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle-sweep",
            "cold exhaustive verbs: view build and the N^2 unit, radical and "
            "commutant scans dominate, so oracle kernels show here",
            True,
            oracle_sweep,
        ),
        Workload(
            "decompose-mix",
            "the qp decompose traffic a user sends: scalar ops, matrix products, "
            "engines and witness checks, and never an oracle view",
            False,
            decompose_mix,
        ),
        Workload(
            "series-lift",
            "M2 decompose and lift over series(B,m), m in 8/16/32: series mul "
            "and inverse grow with m^2 and dominate",
            False,
            series_lift,
        ),
    )
}
