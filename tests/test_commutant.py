from fractions import Fraction

import pytest

from qpolar import (
    NotBleachedInstance,
    TruncatedSeriesRing,
    check_bleached,
    check_uniquely_bleached,
    solve_commutant,
)
from qpolar.commutant import bleached_evaluations
from qpolar.rings import parse_ring


def test_solve_commutant_unit_minus_radical(z4):
    # a = 2 (radical), b = 1 (unit): pivot 2 - 1 = 1
    e = solve_commutant(z4.element(2), z4.element(1), z4.element(1))
    assert e == 1
    assert z4.element(2) * e - e * z4.element(1) == 1


def test_solve_commutant_zloc(zloc2):
    a, b, c = zloc2.element(3), zloc2.element(2), zloc2.element(5)
    assert solve_commutant(a, b, c) == 5


def test_solve_commutant_solution_is_unique_on_finite_rings(z4):
    a, b, c = z4.element(3), z4.element(2), z4.element(2)
    e = solve_commutant(a, b, c)
    hits = [x for x in z4.elements() if a * x - x * b == c]
    assert hits == [e]


def test_solve_commutant_rejects_radical_pivot(z4):
    with pytest.raises(NotBleachedInstance):
        solve_commutant(z4.element(2), z4.element(0), z4.element(1))
    with pytest.raises(NotBleachedInstance):
        solve_commutant(z4.element(3), z4.element(1), z4.element(1))


def test_uniquely_bleached_on_small_rings(z4, f2, f3, z8):
    for ring in (z4, f2, f3, z8):
        report = check_uniquely_bleached(ring)
        assert report.passed, report.failures
        assert report.mode == "bijective"
        n_rad = sum(1 for x in ring.elements() if x.in_jacobson())
        n_unit = sum(1 for x in ring.elements() if x.is_unit())
        assert report.pairs_checked == n_rad * n_unit


def test_uniquely_bleached_on_series_quotients(z4, f2):
    for ring in (TruncatedSeriesRing(f2, 3), TruncatedSeriesRing(z4, 2)):
        report = check_uniquely_bleached(ring)
        assert report.passed, report.failures


def test_surjective_mode_reports(z4):
    report = check_bleached(z4)
    assert report.passed
    assert report.mode == "surjective"
    assert report.to_dict()["ok"] is True


@pytest.mark.parametrize("spelling", ["Z2^3", "F5", "Z3^2", "series(F2,2)"])
def test_evaluation_estimate_is_the_count_the_check_makes(spelling):
    # Two maps on N elements for each (radical, unit) pair.
    ring = parse_ring(spelling)
    report = check_bleached(ring)
    assert bleached_evaluations(ring) == 2 * ring.cardinality() * report.pairs_checked


def test_evaluation_estimate_uses_the_residue_field():
    assert bleached_evaluations(parse_ring("F127")) == 2 * 127 * 126
    assert bleached_evaluations(parse_ring("series(F3,5)")) == 6_377_292
