"""Exhaustive and randomized sweeps tying the constructive engines to the oracle.

Every sweep returns a SweepReport with deterministic contents: counts by
classification, a list of failure descriptions (empty on a healthy
build), and no timing data, so reports can be compared byte for byte.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .m2 import M2Kind, NotQuasipolarError, classify_m2, quasipolar_witness_m2
from .matrices import M2, T2, T3, Shape, ShapedMatrix
from .oracle import get_view
from .rings import LocalizedIntegers, LocalRing
from .triangular import (
    classify_case,
    quasipolar_witness_shape,
    quasipolar_witness_t2,
    quasipolar_witness_t3,
    rad_clean_witness_t3,
)
from .witnesses import WitnessInvalid


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


def _sorted_counts(counts: Counter) -> dict:
    return dict(sorted(counts.items()))


def t3_case_sweep(ring: LocalRing) -> SweepReport:
    """Every T3 matrix over a finite ring: construct the witness, verify all
    invariants, and confirm comm^2 membership by enumerating the commutant."""
    view = get_view(ring, T3)
    counts: Counter = Counter()
    failures = []
    for k in view.keys:
        a = view.value_of(k)
        counts[f"case {classify_case(a).case}"] += 1
        try:
            quasipolar_witness_t3(a, view=view)
        except WitnessInvalid as exc:
            failures.append(f"{a!r}: {exc}")
    return SweepReport("t3-case", len(view.keys), _sorted_counts(counts), failures)


def t3_rad_clean_sweep(ring: LocalRing) -> SweepReport:
    """Every T3 matrix: the rad-clean witness validates and its idempotent
    shows up in the oracle's exhaustive rad-clean search."""
    view = get_view(ring, T3)
    counts: Counter = Counter()
    failures = []
    for k in view.keys:
        a = view.value_of(k)
        try:
            w = rad_clean_witness_t3(a)
        except WitnessInvalid as exc:
            failures.append(f"{a!r}: {exc}")
            continue
        if view.key_of(w.e) not in view.rad_clean_search_keys(k):
            failures.append(f"{a!r}: constructed e missing from oracle search")
        else:
            counts["confirmed"] += 1
    return SweepReport("t3-rad-clean", len(view.keys), _sorted_counts(counts), failures)


def t2_exhaustive_sweep(ring: LocalRing) -> SweepReport:
    """Every T2 matrix: the diagonal-pattern construction against oracle search."""
    view = get_view(ring, T2)
    counts: Counter = Counter()
    failures = []
    for k in view.keys:
        a = view.value_of(k)
        pattern = ",".join("J" if d.in_jacobson() else "U" for d in a.diagonal())
        counts[f"({pattern})"] += 1
        try:
            w = quasipolar_witness_t2(a, view=view)
        except WitnessInvalid as exc:
            failures.append(f"{a!r}: {exc}")
            continue
        if view.key_of(w.p) not in view.quasipolar_search_keys(k):
            failures.append(f"{a!r}: constructed p missing from oracle search")
    return SweepReport("t2-exhaustive", len(view.keys), _sorted_counts(counts), failures)


def m2_agreement_sweep(ring: LocalRing) -> SweepReport:
    """classify_m2 against the definitional search: quasipolar exactly when
    the oracle finds an idempotent, and the constructed p is on its list."""
    view = get_view(ring, M2)
    counts: Counter = Counter()
    failures = []
    for k in view.keys:
        a = view.value_of(k)
        cls = classify_m2(a)
        counts[cls.kind.value] += 1
        found = view.quasipolar_search_keys(k)
        if cls.kind is M2Kind.NOT_QUASIPOLAR:
            if found:
                failures.append(f"{a!r}: classified unreachable but oracle found {len(found)}")
            continue
        if not found:
            failures.append(f"{a!r}: classified {cls.kind.value} but oracle found none")
            continue
        try:
            w = quasipolar_witness_m2(a, view=view, cls=cls)
        except (WitnessInvalid, NotQuasipolarError) as exc:
            failures.append(f"{a!r}: {exc}")
            continue
        if view.key_of(w.p) not in found:
            failures.append(f"{a!r}: constructed p missing from oracle search")
    return SweepReport("m2-agreement", len(view.keys), _sorted_counts(counts), failures)


def corner_equivalence_sweep(ring: LocalRing, shape: Shape) -> SweepReport:
    """Definitional quasipolarity vs the Peirce-corner criterion, exhaustively:
    the search finds an idempotent iff some comm^2 idempotent passes
    corner_validate, and for every found p the complement 1-p passes."""
    view = get_view(ring, shape)
    counts: Counter = Counter()
    failures = []
    for k in view.keys:
        found = view.quasipolar_search_keys(k)
        comm2_idem = [
            e for e in view.idempotent_keys if view.in_double_commutant(e, k)
        ]
        corner_hit = any(view.corner_validate_key(k, e) for e in comm2_idem)
        if bool(found) != corner_hit:
            failures.append(
                f"{view.value_of(k)!r}: search={'hit' if found else 'miss'} "
                f"corner={'hit' if corner_hit else 'miss'}"
            )
            continue
        counts["quasipolar" if found else "obstructed"] += 1
        for p in found:
            e = view._sub(view.one_key, p)
            if not view.corner_validate_key(k, e):
                failures.append(
                    f"{view.value_of(k)!r}: complement of found p fails corner check"
                )
    return SweepReport(
        f"corner-equivalence-{shape.name.lower()}",
        len(view.keys),
        _sorted_counts(counts),
        failures,
    )


def transport_sweep(ring: LocalRing, shape: Shape, samples: int = 500, seed: int = 0) -> SweepReport:
    """Random L3, LOW3, UP3, S1 or S2 matrices over a finite ring: the
    diagonal-pattern witness validates and its p appears in the oracle's
    search."""
    view = get_view(ring, shape)
    rng = random.Random(seed)
    keys = view.keys
    seen = set()
    counts: Counter = Counter()
    failures = []
    for _ in range(samples):
        k = keys[rng.randrange(len(keys))]
        counts["samples"] += 1
        if k in seen:
            continue
        seen.add(k)
        a = view.value_of(k)
        try:
            w = quasipolar_witness_shape(a, view=view)
        except WitnessInvalid as exc:
            failures.append(f"{a!r}: {exc}")
            continue
        if view.key_of(w.p) not in view.quasipolar_search_keys(k):
            failures.append(f"{a!r}: constructed p missing from oracle search")
    counts["distinct"] = len(seen)
    return SweepReport(
        f"transport-{shape.name.lower()}", samples, _sorted_counts(counts), failures
    )


def zloc_shape_sweep(
    shape: Shape, samples: int = 1000, seed: int = 0, bound: int = 1000
) -> SweepReport:
    """Random matrices over the 2-local rationals in one of the displayed
    shapes; every witness must validate structurally (no oracle exists
    over an infinite ring)."""
    ring = LocalizedIntegers(2)
    rng = random.Random(seed)

    def draw():
        num = rng.randint(-bound, bound)
        den = rng.randrange(1, bound, 2)
        return ring.element(Fraction(num, den))

    counts: Counter = Counter()
    failures = []
    for _ in range(samples):
        rows = [[ring.zero] * shape.n for _ in range(shape.n)]
        for i, j in shape.positions:
            rows[i][j] = draw()
        a = ShapedMatrix.from_rows(ring, shape, rows)
        try:
            quasipolar_witness_shape(a)
            counts["decomposed"] += 1
        except WitnessInvalid as exc:
            failures.append(f"{a!r}: {exc}")
    return SweepReport(
        f"zloc2-{shape.name.lower()}", samples, _sorted_counts(counts), failures
    )
