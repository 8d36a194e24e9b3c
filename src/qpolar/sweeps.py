"""Exhaustive and randomized sweeps tying the constructive engines to the oracle.

uniqueness_sweep is the one check of every engine shape's p against the
oracle's quasipolar search.  Every sweep returns a SweepReport with
deterministic contents: counts by classification, a list of failure
descriptions (empty on a healthy build), and no timing data, so reports
can be compared byte for byte.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .m2 import NotQuasipolarError, classify_m2
from .matrices import M2, T2, T3, Shape, ShapedMatrix
from .oracle import FiniteRingView, get_view
from .rings import LocalizedIntegers, LocalRing
from .triangular import (
    classify_case,
    diagonal_pattern,
    quasipolar_witness_shape,
    quasipolar_witness_t3,
    rad_clean_witness_t3,
    require_engine,
)
from .witnesses import QuasipolarWitness, WitnessInvalid


@dataclass
class SweepReport:
    name: str
    total: int
    counts: dict
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "total": self.total,
            "counts": dict(self.counts),
            "failures": list(self.failures),
            "passed": self.passed,
        }

    def __repr__(self):
        state = "ok" if self.passed else f"{len(self.failures)} failures"
        return f"<sweep {self.name}: {self.total} checked, {state}>"


def oracle_recheck(w: QuasipolarWitness, view: FiniteRingView) -> None:
    """Raise WitnessInvalid unless enumeration finds w's p in comm^2(A)."""
    if not view.in_double_commutant(view.key_of(w.p), view.key_of(w.a)):
        raise WitnessInvalid(f"constructed idempotent escapes comm^2 for {w.a!r}")


def _sweep(name, keys, value_of, check) -> SweepReport:
    """check(k, a) for each key k and its matrix a = value_of(k) returns a
    (label, problem) pair, and a witness error it raises is the problem.
    Labels other than None are counted, problems are the failures."""
    counts = Counter()
    failures = []
    for k in keys:
        a = value_of(k)
        try:
            label, problem = check(k, a)
        except (WitnessInvalid, NotQuasipolarError) as exc:
            label, problem = None, exc
        if label is not None:
            counts[label] += 1
        if problem is not None:
            failures.append(f"{a!r}: {problem}")
    return SweepReport(name, len(keys), dict(sorted(counts.items())), failures)


def t3_case_sweep(ring: LocalRing) -> SweepReport:
    """Every T3 matrix over a finite ring: construct the witness, verify all
    invariants, and confirm comm^2 membership by enumerating the commutant."""
    view = get_view(ring, T3)
    view._corner(view.one_key)  # one mask-position pass: the relation every comm^2 check reads

    def check(k, a):
        oracle_recheck(quasipolar_witness_t3(a), view)
        return f"case {classify_case(a).case}", None

    return _sweep("t3-case", view.keys, view.value_of, check)


def t3_rad_clean_sweep(ring: LocalRing) -> SweepReport:
    """Every T3 matrix: the rad-clean witness validates and its idempotent
    shows up in the oracle's exhaustive rad-clean search."""
    view = get_view(ring, T3)

    def check(k, a):
        if view.key_of(rad_clean_witness_t3(a).e) not in view.rad_clean_search_keys(k):
            return None, "constructed e missing from oracle search"
        return "confirmed", None

    return _sweep("t3-rad-clean", view.keys, view.value_of, check)


def uniqueness_sweep(ring: LocalRing, shape: Shape) -> SweepReport:
    """Every matrix of an engine shape: over a commutative local ring the
    quasipolar idempotent is unique, so the oracle finds exactly the
    engine's p.  Views are finite rings, so Henselian: an obstructed verdict
    is a failure.  Counts are M2 kinds, or diagonal patterns on other shapes."""
    require_engine(shape)
    view = get_view(ring, shape)

    def check(k, a):
        want = (view.key_of(quasipolar_witness_shape(a).p),)
        if shape == M2:
            label = classify_m2(a).kind.value
        else:
            label = f"({','.join(diagonal_pattern(a))})"
        found = view.quasipolar_search_keys(k)
        if found == want:
            return label, None
        return label, f"oracle found {len(found)} quasipolar idempotent(s), expected {len(want)}"

    names = {T2: "t2-exhaustive", M2: "m2-agreement"}
    name = names.get(shape, f"transport-{shape.name.lower()}")
    return _sweep(name, view.keys, view.value_of, check)


# bench/tracing.py times these two names and the bench contract requires
# every traced name to resolve; they go when the tracer spans uniqueness_sweep.
def t2_exhaustive_sweep(ring: LocalRing) -> SweepReport:
    return uniqueness_sweep(ring, T2)


def m2_agreement_sweep(ring: LocalRing) -> SweepReport:
    return uniqueness_sweep(ring, M2)


def corner_equivalence_sweep(ring: LocalRing, shape: Shape) -> SweepReport:
    """Definitional quasipolarity vs the Peirce-corner criterion, exhaustively:
    the search finds an idempotent iff some comm^2 idempotent passes
    corner_validate, and for every found p the complement 1-p passes."""
    view = get_view(ring, shape)

    def check(k, a):
        found = view.quasipolar_search_keys(k)
        comm2_idem = [e for e in view.idempotent_keys if view.in_double_commutant(e, k)]
        corner_hit = any(view.corner_validate_key(k, e) for e in comm2_idem)
        if bool(found) != corner_hit:
            hit = {True: "hit", False: "miss"}
            return None, f"search={hit[bool(found)]} corner={hit[corner_hit]}"
        label = "quasipolar" if found else "obstructed"
        if not all(view.corner_validate_key(k, view._sub(view.one_key, p)) for p in found):
            return label, "complement of found p fails corner check"
        return label, None

    return _sweep(f"corner-equivalence-{shape.name.lower()}", view.keys, view.value_of, check)


ZLOC_SAMPLES, ZLOC_SEED, ZLOC_BOUND = 1000, 0, 1000


def zloc_shape_sweep(shape: Shape) -> SweepReport:
    """ZLOC_SAMPLES random matrices over the 2-local rationals in one of the
    displayed shapes; every witness must validate structurally (no oracle
    exists over an infinite ring)."""
    ring = LocalizedIntegers(2)
    rng = random.Random(ZLOC_SEED)

    def draw(_):
        rows = [[ring.zero] * shape.n for _ in range(shape.n)]
        for i, j in shape.positions:
            num, den = rng.randint(-ZLOC_BOUND, ZLOC_BOUND), rng.randrange(1, ZLOC_BOUND, 2)
            rows[i][j] = ring.element(Fraction(num, den))
        return ShapedMatrix.from_rows(ring, shape, rows)

    def check(k, a):
        quasipolar_witness_shape(a)
        return "decomposed", None

    return _sweep(f"zloc2-{shape.name.lower()}", range(ZLOC_SAMPLES), draw, check)
