"""Sylvester-type commutation equations and bleached-ring checks.

The triangular constructions repeatedly need the entry equation

    a*e - e*b = c

solved for e, where exactly one of a, b is a unit of a commutative local
ring and the other is radical.  Commutativity collapses the equation to
(a - b)*e = c, and a - b is a unit whenever a and b sit on opposite
sides of the unit/radical dichotomy, so e = (a - b)^-1 * c is the unique
solution.  ``NotBleachedInstance`` is raised when a - b is not a unit.

A ring is bleached when, for every radical j and unit u, the additive
maps x -> u*x - x*j and x -> j*x - x*u are surjective, and uniquely
bleached when they are bijective.  ``check_bleached`` and
``check_uniquely_bleached`` test this by enumeration on finite rings,
evaluating both maps on every element for every (j, u) pair:
2*N*|J|*|U| evaluations for N elements, where |J| = N/q for the residue
field size q.  ``bleached_evaluations`` works that count out from the
ring's cardinality and residue field alone, and it is checked against
``BLEACHED_EVALUATION_CAP`` before any element is enumerated.  Both modes
run one image test: a self-map of a finite set is onto iff one-to-one.
Over a commutative ring u*x - x*j = (u - j)*x with u - j a unit: a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rings import InfiniteRing, LocalRing, QpolarError, RingElement, TruncatedSeriesRing
from .witnesses import WitnessInvalid

BLEACHED_EVALUATION_CAP = 10**6


class NotBleachedInstance(QpolarError):
    """The commutation equation has no invertible pivot a - b."""


def solve_commutant(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """Solve a*e - e*b = c over a commutative local ring.

    Requires a - b to be a unit, which holds exactly when one of a, b is
    a unit and the other is radical.
    """
    pivot = a - b
    if not pivot.is_unit():
        raise NotBleachedInstance(
            f"a - b = {pivot!r} is not a unit; cannot solve a*e - e*b = c"
        )
    e = pivot.inverse() * c
    if a * e - e * b != c:
        raise WitnessInvalid(f"e = {e!r} does not solve a*e - e*b = c")
    return e


@dataclass
class BleachedReport:
    """Outcome of a bleached or uniquely-bleached enumeration check."""

    ring_spelling: str
    mode: str  # "surjective" or "bijective"
    pairs_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ring": self.ring_spelling,
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "failures": list(self.failures),
            "ok": self.passed,
        }


def bleached_evaluations(ring: LocalRing) -> int:
    """2 maps * N elements * |J| radicals * |U| units, without enumerating."""
    n = ring.cardinality()
    residue = ring
    while isinstance(residue, TruncatedSeriesRing):
        residue = residue.base
    radicals = n // residue.p  # R/J is the residue field F_p, so |J| = N/p
    return 2 * n * radicals * (n - radicals)


def _run_bleached(ring: LocalRing, bijective: bool) -> BleachedReport:
    estimate = bleached_evaluations(ring)
    if estimate > BLEACHED_EVALUATION_CAP:
        raise InfiniteRing(f"bleached check of {ring} would make {estimate} "
                           f"map evaluations, over the cap {BLEACHED_EVALUATION_CAP}")
    elems = list(ring.elements())
    radicals = [x for x in elems if x.in_jacobson()]
    units = [x for x in elems if x.is_unit()]
    full = set(elems)
    report = BleachedReport(repr(ring), "bijective" if bijective else "surjective")
    for j in radicals:
        for u in units:
            report.pairs_checked += 1
            for label, func in (
                ("u*x - x*j", lambda x: u * x - x * j),
                ("j*x - x*u", lambda x: j * x - x * u),
            ):
                image = {func(x) for x in elems}
                if image != full:
                    report.failures.append(
                        f"{label} not surjective for j={j!r}, u={u!r}"
                    )
    return report


def check_bleached(ring: LocalRing) -> BleachedReport:
    """Surjectivity of both commutation maps for every (radical, unit) pair."""
    return _run_bleached(ring, bijective=False)


def check_uniquely_bleached(ring: LocalRing) -> BleachedReport:
    """Bijectivity of both commutation maps for every (radical, unit) pair."""
    return _run_bleached(ring, bijective=True)
