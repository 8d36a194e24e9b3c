"""Trichotomy classification and decomposition of full 2x2 matrices."""

import random
import time
from fractions import Fraction

import pytest

from qpolar import (
    LocalizedIntegers,
    M2,
    M2Kind,
    NotQuasipolarError,
    PreconditionViolation,
    Shape,
    T2,
    UnsupportedShape,
    char_poly_2x2,
    classify_m2,
    find_root_split,
    get_view,
    parse_ring,
    quasipolar_witness_m2,
)
from qpolar.cli import main
from qpolar.matrices import QuadraticCharPoly, ShapedMatrix
from qpolar.rings import _ModularRing


def m2_of(ring, a, b, c, d):
    return ShapedMatrix.from_rows(ring, M2, [[a, b], [c, d]])


class TestClassification:
    def test_unit_determinant_is_invertible(self, z4):
        c = classify_m2(m2_of(z4, 1, 1, 0, 1))
        assert c.kind is M2Kind.INVERTIBLE
        assert c.roots is None
        assert c.to_dict() == {"kind": "invertible"}

    def test_radical_trace_and_determinant_is_quasinilpotent(self, z4):
        c = classify_m2(m2_of(z4, 2, 2, 2, 2))
        assert c.kind is M2Kind.QUASINILPOTENT
        assert c.to_dict() == {"kind": "quasinilpotent"}

    def test_split_case_pins_the_root_pair(self, z4):
        c = classify_m2(m2_of(z4, 1, 0, 0, 2))
        assert c.kind is M2Kind.SPLIT
        alpha, beta = c.roots
        assert (alpha, beta) == (z4.element(2), z4.element(1))
        assert not alpha.is_unit()
        assert beta.is_unit()
        assert c.to_dict() == {"kind": "split", "roots": ["2", "1"]}

    def test_rejects_other_shapes(self, z4):
        with pytest.raises(UnsupportedShape):
            classify_m2(ShapedMatrix.from_rows(z4, T2, [[1, 0], [0, 1]]))

    def test_rejects_a_same_named_shape_with_another_mask(self, z4):
        impostor = Shape("M2", 2, T2.mask)
        with pytest.raises(UnsupportedShape):
            classify_m2(ShapedMatrix.from_rows(z4, impostor, [[1, 1], [0, 2]]))


class TestWitnesses:
    def test_split_witness_pinned(self, z4):
        a = m2_of(z4, 0, 0, 1, 3)
        w = quasipolar_witness_m2(a)
        assert w.p == m2_of(z4, 1, 0, 1, 0)
        assert a * w.p == w.p.scale(z4.element(0))
        assert w.checks().passed

    def test_quasinilpotent_witness_pinned(self, z4):
        a = m2_of(z4, 2, 2, 2, 2)
        w = quasipolar_witness_m2(a)
        assert w.p == ShapedMatrix.identity(z4, M2)
        assert w.u == m2_of(z4, 3, 2, 2, 3)
        assert w.checks().passed

    def test_invertible_witness_is_trivial(self, z4):
        a = m2_of(z4, 1, 1, 0, 1)
        w = quasipolar_witness_m2(a)
        assert w.p == ShapedMatrix.zero(z4, M2)
        assert w.u == a
        assert w.checks().passed

    def test_split_scaling_relation_holds(self, f3):
        a = m2_of(f3, 1, 0, 0, 0)
        c = classify_m2(a)
        assert c.kind is M2Kind.SPLIT
        alpha, _ = c.roots
        w = quasipolar_witness_m2(a)
        assert a * w.p == w.p.scale(alpha)

    def test_witnesses_verified_against_the_search(self, f2):
        view = get_view(f2, M2)
        for key in view.keys:
            a = view.value_of(key)
            if classify_m2(a).kind is M2Kind.NOT_QUASIPOLAR:
                assert not view.quasipolar_search_keys(key)
                continue
            w = quasipolar_witness_m2(a)
            assert view.quasipolar_search_keys(key) == (view.key_of(w.p),)


class TestLocalizedIntegers:
    def test_irrational_discriminant_is_obstructed(self, zloc2):
        a = m2_of(zloc2, 0, -2, 1, 1)
        c = classify_m2(a)
        assert c.kind is M2Kind.NOT_QUASIPOLAR
        assert "discriminant" in c.reason
        with pytest.raises(NotQuasipolarError):
            quasipolar_witness_m2(a)

    def test_rational_square_discriminant_splits(self, zloc2):
        a = m2_of(zloc2, 1, 0, 2, 2)
        c = classify_m2(a)
        assert c.kind is M2Kind.SPLIT
        assert c.roots == (zloc2.element(2), zloc2.element(1))
        w = quasipolar_witness_m2(a)
        assert w.p == m2_of(zloc2, 0, 0, 2, 1)
        assert w.u == m2_of(zloc2, 1, 0, 4, 3)
        assert w.checks().passed

    def test_fractional_entries_work(self, zloc2):
        a = m2_of(
            zloc2,
            Fraction(1, 3),
            0,
            Fraction(2, 5),
            Fraction(2, 7),
        )
        c = classify_m2(a)
        assert c.kind is M2Kind.SPLIT
        w = quasipolar_witness_m2(a)
        assert w.checks().passed

    def test_rational_split_without_radical_root_is_obstructed(self, zloc2):
        # t^2 - 2t + 1 = (t - 1)^2: splits over Q, but both roots are units.
        chi = char_poly_2x2(m2_of(zloc2, 1, 1, 0, 1))
        assert chi.det.is_unit()
        with pytest.raises(PreconditionViolation):
            find_root_split(chi, zloc2)


class TestFindRootSplit:
    def test_finite_scan_finds_the_known_pair(self, z4):
        chi = char_poly_2x2(m2_of(z4, 1, 0, 0, 2))
        alpha, beta = find_root_split(chi, z4)
        assert (alpha, beta) == (z4.element(2), z4.element(1))
        assert chi.evaluate(alpha) == z4.element(0)
        assert chi.evaluate(beta) == z4.element(0)

    def test_requires_radical_determinant(self, z4):
        chi = char_poly_2x2(m2_of(z4, 1, 1, 0, 1))
        with pytest.raises(PreconditionViolation):
            find_root_split(chi, z4)

    def test_requires_unit_trace(self, z4):
        chi = char_poly_2x2(m2_of(z4, 2, 2, 2, 2))
        with pytest.raises(PreconditionViolation):
            find_root_split(chi, z4)

    def test_obstructed_raises_for_zloc(self, zloc2):
        chi = char_poly_2x2(m2_of(zloc2, 0, -2, 1, 1))
        with pytest.raises(NotQuasipolarError):
            find_root_split(chi, zloc2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zloc_split_returns_the_planted_roots(self, p):
        # Both rational roots lie in Zloc<p> and exactly one is radical;
        # p = 2 also exercises the halving of tr + sqrt(disc).
        ring = LocalizedIntegers(p)
        rng = random.Random(p)

        def prime_to_p():
            while (n := rng.randint(-999, 999)) % p == 0:
                pass
            return n

        for _ in range(1000):
            alpha = ring.element(Fraction(p * rng.randint(-999, 999), abs(prime_to_p())))
            beta = ring.element(Fraction(prime_to_p(), abs(prime_to_p())))
            assert find_root_split(QuadraticCharPoly(alpha + beta, alpha * beta), ring) == (alpha, beta)


def scan_root_split(chi, ring):
    """The radical scan Newton's method replaced, kept as its reference."""
    for alpha in ring.elements():
        if alpha.in_jacobson() and chi.evaluate(alpha) == 0:
            return alpha, chi.tr - alpha
    raise NotQuasipolarError(f"{chi} has no radical root in {ring!r}")


class TestNewtonRootSplit:
    @pytest.mark.parametrize("spelling", ["F3", "F5", "Z2^2", "Z2^3", "Z3^2", "Z2^4"])
    def test_matches_the_scan_on_every_split_quadratic(self, spelling):
        ring = parse_ring(spelling)
        elems = list(ring.elements())
        pairs = [(t, d) for t in elems for d in elems if t.is_unit() and d.in_jacobson()]
        for tr, det in pairs:
            chi = QuadraticCharPoly(tr, det)
            alpha, beta = find_root_split(chi, ring)
            assert (alpha, beta) == scan_root_split(chi, ring)
            assert alpha.in_jacobson() and beta.is_unit()
        assert len(pairs) == {"F3": 2, "F5": 4, "Z2^2": 4, "Z2^3": 16, "Z3^2": 18, "Z2^4": 64}[spelling]

    def test_large_modulus_never_enumerates(self, monkeypatch, capsys):
        # Z3^13 has 1,594,323 elements; the scan walked to the root at 3^13 - 3.
        def enumerate_nothing(ring):
            raise RuntimeError(f"enumerated {ring}")

        monkeypatch.setattr(_ModularRing, "elements", enumerate_nothing)
        ring = parse_ring("Z3^13")
        chi = char_poly_2x2(m2_of(ring, 1594320, 0, 0, 1))
        assert find_root_split(chi, ring) == (ring.element(1594320), ring.one)
        start = time.perf_counter()
        assert main(["classify-m2", "--ring", "Z3^13", "--matrix", "[1594320,0; 0,1]"]) == 0
        assert time.perf_counter() - start < 1.0
        assert "roots: alpha=1594320 beta=1" in capsys.readouterr().out
