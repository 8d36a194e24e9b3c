"""Acceptance suite: ten exact criteria, one test per criterion.

Each test prints a single PASS line on success so a verbose run reads as
a checklist.  All arithmetic is exact; every expected value is either
pinned by hand or confirmed against the brute-force oracle inside the
test itself.  Zero tolerance anywhere.
"""

import time

import pytest

from qpolar import (
    ConstantNotQuasipolar,
    IntegersMod,
    L3,
    LOW3,
    LocalizedIntegers,
    M2,
    M2Kind,
    NotQuasipolarError,
    PrimeField,
    S1,
    S2,
    T3,
    TruncatedSeriesRing,
    UP3,
    char_poly_2x2,
    check_uniquely_bleached,
    classify_m2,
    corner_equivalence_sweep,
    example_precision2,
    example_precision8,
    lift_root,
    quasipolar_witness_m2,
    quasipolar_witness_m2_series,
    SeriesQuadratic,
    t3_case_sweep,
    t3_rad_clean_sweep,
    uniqueness_sweep,
    verify_example,
    zloc_shape_sweep,
)
from qpolar.matrices import ShapedMatrix


def report_pass(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_precision8_example_rederived():
    start = time.perf_counter()
    ex = example_precision8()
    ring = ex.matrix.ring
    base = ring.base

    chi = char_poly_2x2(ex.matrix)
    chi0_tr = chi.tr.payload[0]
    chi0_det = chi.det.payload[0]
    assert chi0_tr == base.element(3)
    assert chi0_det == base.element(0)
    assert {r for r in ex.constant_split} == {base.element(0), base.element(3)}

    sq = SeriesQuadratic.from_char_poly(chi)
    alpha = lift_root(sq, 0)
    beta = lift_root(sq, 3)
    assert alpha * alpha - sq.mu * alpha - sq.lam == ring.zero
    assert beta * beta - sq.mu * beta - sq.lam == ring.zero
    assert alpha == ex.alpha
    assert beta == ex.beta

    w = quasipolar_witness_m2(ex.matrix)
    assert w.checks().passed
    report = verify_example(ex)
    assert report.passed

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(1, f"precision-8 example re-derived in {elapsed:.3f}s")


def test_criterion_02_precision2_example_rederived():
    start = time.perf_counter()
    ex = example_precision2()
    ring = ex.matrix.ring
    base = ring.base

    chi = char_poly_2x2(ex.matrix)
    assert chi.tr.payload[0] == base.element(1)
    assert chi.det.payload[0] == base.element(2)
    assert ex.constant_split == (base.element(2), base.element(3))
    # (t - 3)(t + 2) expands back to t^2 - t + 2 over Z/4.
    three, two = base.element(3), base.element(2)
    assert three + two == base.element(1)
    assert three * two == base.element(2)

    w = quasipolar_witness_m2(ex.matrix)
    assert w.checks().passed
    assert w.p == ex.spectral
    assert verify_example(ex).passed

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(2, f"precision-2 example re-derived in {elapsed:.3f}s")


def test_criterion_03_t3_exhaustive_three_rings():
    start = time.perf_counter()
    sizes = {}
    for ring, expected_total in (
        (IntegersMod(2, 2), 4**5),
        (PrimeField(2), 2**5),
        (PrimeField(3), 3**5),
    ):
        report = t3_case_sweep(ring)
        assert report.total == expected_total
        assert report.failures == []
        sizes[str(ring)] = report.total
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report_pass(3, f"T3 sweeps {sizes} all verified in {elapsed:.1f}s")


def test_criterion_04_rad_clean_sweep_z4():
    report = t3_rad_clean_sweep(IntegersMod(2, 2))
    assert report.total == 4**5
    assert report.failures == []
    assert report.counts == {"confirmed": 1024}
    report_pass(4, "all 1024 T3(Z/4) rad-clean witnesses confirmed by search")


def test_criterion_05_m2_classification_vs_oracle():
    expected = {
        "Z2^2": {"invertible": 96, "quasinilpotent": 64, "split": 96},
        "F2": {"invertible": 6, "quasinilpotent": 4, "split": 6},
        "F3": {"invertible": 48, "quasinilpotent": 9, "split": 24},
    }
    for ring in (IntegersMod(2, 2), PrimeField(2), PrimeField(3)):
        report = uniqueness_sweep(ring, M2)
        assert report.failures == []
        assert report.counts == expected[str(ring)]
        assert report.total == sum(expected[str(ring)].values())
    report_pass(5, "M2 trichotomy agrees with the oracle on Z/4, F2, F3")


@pytest.mark.parametrize("shape", [L3, T3, S1, LOW3], ids=lambda s: s.name)
def test_criterion_06_localized_integer_shapes(shape):
    report = zloc_shape_sweep(shape)
    assert report.failures == []
    assert report.counts["decomposed"] == 1000
    report_pass(6, f"1000 random {shape.name} matrices over Zloc2 decomposed")


def test_criterion_07_obstructed_matrix_and_series_gate():
    zloc = LocalizedIntegers(2)
    a = ShapedMatrix.from_rows(zloc, M2, [[0, -2], [1, 1]])
    cls = classify_m2(a)
    assert cls.kind is M2Kind.NOT_QUASIPOLAR
    assert "discriminant -7" in cls.reason
    with pytest.raises(NotQuasipolarError):
        quasipolar_witness_m2(a)

    for precision in (2, 4):
        ring = TruncatedSeriesRing(zloc, precision)
        b = ShapedMatrix.from_rows(ring, M2, [[0, -2], [1, 1]])
        with pytest.raises(ConstantNotQuasipolar):
            quasipolar_witness_m2_series(b)
    report_pass(7, "[[0,-2],[1,1]] rejected over Zloc2 and at the series gate")


def test_criterion_08_uniquely_bleached_six_rings():
    rings = [
        IntegersMod(2, 2),
        PrimeField(2),
        PrimeField(3),
        IntegersMod(2, 3),
        TruncatedSeriesRing(PrimeField(2), 3),
        TruncatedSeriesRing(IntegersMod(2, 2), 2),
    ]
    for ring in rings:
        report = check_uniquely_bleached(ring)
        assert report.passed
        assert report.failures == []
    report_pass(8, "uniquely bleached confirmed on all six rings")


def test_criterion_09_corner_equivalence_exhaustive():
    for ring, shape, total in (
        (PrimeField(2), M2, 16),
        (PrimeField(2), T3, 32),
    ):
        report = corner_equivalence_sweep(ring, shape)
        assert report.total == total
        assert report.failures == []
    report_pass(9, "corner characterization matches the definition on M2(F2), T3(F2)")


@pytest.mark.parametrize("shape", [L3, LOW3, UP3, S1, S2], ids=lambda s: s.name)
def test_criterion_10_shape_transport(shape):
    ring = IntegersMod(2, 2)
    report = uniqueness_sweep(ring, shape)
    assert report.failures == []
    assert report.total == ring.cardinality() ** len(shape.positions)
    report_pass(10, f"all {report.total} transported {shape.name} witnesses over Z2^2 "
                    "verified by search")
