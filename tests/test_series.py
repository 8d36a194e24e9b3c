"""Coefficientwise root lifting over truncated series rings."""

import random

import pytest

from qpolar import (
    BadSeed,
    ConstantNotQuasipolar,
    InfiniteRing,
    IntegersMod,
    LocalizedIntegers,
    M2,
    NoConstantSplit,
    PivotNotUnit,
    PrimeField,
    SeriesQuadratic,
    TruncatedSeriesRing,
    UnsupportedShape,
    WitnessInvalid,
    char_poly_2x2,
    check_uniquely_bleached,
    constant_term_matrix,
    example_precision8,
    lift_root,
    lift_split,
    quasipolar_witness_m2_series,
    quasipolar_witness_shape,
)
from qpolar.matrices import ShapedMatrix, parse_matrix
from qpolar.oracle import FiniteRingView
from qpolar.sweeps import oracle_recheck


class TestLiftRoot:
    def test_pinned_alternating_example(self):
        ex = example_precision8()
        sq = SeriesQuadratic.from_char_poly(char_poly_2x2(ex.matrix))
        alpha = lift_root(sq, 0)
        beta = lift_root(sq, 3)
        assert alpha.payload == (0, 0, 2, 0, 2, 0, 2, 0)
        assert beta.payload == (3, 0, 0, 0, 0, 0, 0, 0)
        assert not alpha.is_unit()
        assert beta.is_unit()
        assert sq.holds_for(alpha)
        assert sq.holds_for(beta)

    def test_bad_seed_is_rejected(self):
        ex = example_precision8()
        sq = SeriesQuadratic.from_char_poly(char_poly_2x2(ex.matrix))
        with pytest.raises(BadSeed):
            lift_root(sq, 1)

    def test_double_root_pivot_is_rejected(self):
        ring = TruncatedSeriesRing(IntegersMod(2, 2), 4)
        # y^2 - 2y - 3 has the double-ish root 1 mod 2: pivot 2*1 - 2 = 0.
        sq = SeriesQuadratic(ring.element(2), ring.element(3))
        with pytest.raises(PivotNotUnit):
            lift_root(sq, 1)
        # y^2 = 0 with seed 0 degenerates the same way.
        sq0 = SeriesQuadratic(ring.element(0), ring.element(0))
        with pytest.raises(PivotNotUnit):
            lift_root(sq0, 0)

    @pytest.mark.parametrize(
        "base,precision",
        [
            (IntegersMod(2, 2), 4),
            (IntegersMod(2, 2), 8),
            (PrimeField(3), 4),
            (PrimeField(3), 8),
        ],
    )
    def test_random_quadratics_lift_both_seeds(self, base, precision):
        ring = TruncatedSeriesRing(base, precision)
        scalars = list(base.elements())
        radicals = [s for s in scalars if not s.is_unit()]
        units = [s for s in scalars if s.is_unit()]
        rng = random.Random(f"{base!r}/{precision}")
        for _ in range(60):
            a0 = rng.choice(radicals)
            b0 = rng.choice(units)
            mu_tail = [rng.choice(scalars) for _ in range(precision - 1)]
            lam_tail = [rng.choice(scalars) for _ in range(precision - 1)]
            mu = ring.element([a0 + b0] + mu_tail)
            lam = ring.element([-(a0 * b0)] + lam_tail)
            sq = SeriesQuadratic(mu, lam)
            for seed in (a0, b0):
                y = lift_root(sq, seed)
                assert sq.holds_for(y)
                assert y.payload[0] == seed

    def test_lifts_are_the_unique_solutions_over_f2(self):
        ring = TruncatedSeriesRing(PrimeField(2), 3)
        carrier = list(ring.elements())
        for mu in carrier:
            if not mu.payload[0].is_unit():
                continue
            for lam in carrier:
                if lam.payload[0].is_unit():
                    continue
                sq = SeriesQuadratic(mu, lam)
                for seed in (0, 1):
                    solutions = [
                        y
                        for y in carrier
                        if sq.holds_for(y) and y.payload[0] == ring.base.element(seed)
                    ]
                    assert solutions == [lift_root(sq, seed)]


class TestLiftSplit:
    def test_constant_input_gives_constant_roots(self):
        ring = TruncatedSeriesRing(IntegersMod(2, 2), 4)
        a = ShapedMatrix.from_rows(ring, M2, [[1, 0], [0, 2]])
        alpha, beta = lift_split(char_poly_2x2(a), ring)
        assert alpha.payload == (2, 0, 0, 0)
        assert beta.payload == (1, 0, 0, 0)

    def test_no_constant_split_is_reported(self):
        ring = TruncatedSeriesRing(LocalizedIntegers(2), 2)
        a = ShapedMatrix.from_rows(ring, M2, [[0, -2], [1, 1]])
        with pytest.raises(NoConstantSplit):
            lift_split(char_poly_2x2(a), ring)

    def test_roots_land_on_opposite_sides(self):
        ex = example_precision8()
        chi = char_poly_2x2(ex.matrix)
        alpha, beta = lift_split(chi, ex.matrix.ring)
        assert not alpha.is_unit()
        assert beta.is_unit()
        assert alpha + beta == chi.tr


class TestSeriesQuadratic:
    def test_from_char_poly_signs(self):
        ring = TruncatedSeriesRing(PrimeField(3), 4)
        a = ShapedMatrix.from_rows(ring, M2, [[1, 1], [0, 2]])
        chi = char_poly_2x2(a)
        sq = SeriesQuadratic.from_char_poly(chi)
        assert sq.mu == chi.tr
        assert sq.lam == -chi.det

    def test_requires_a_series_ring(self, z4):
        with pytest.raises(UnsupportedShape):
            SeriesQuadratic(z4.element(1), z4.element(2))


class TestConstantGate:
    def test_constant_term_matrix_projects_entrywise(self):
        ring = TruncatedSeriesRing(IntegersMod(2, 2), 2)
        a = ShapedMatrix.from_rows(
            ring, M2, [["3", "2 + 2*x"], ["2 + x", "2 + 3*x"]]
        )
        c = constant_term_matrix(a)
        assert c.ring == ring.base
        assert c == ShapedMatrix.from_rows(ring.base, M2, [[3, 2], [2, 2]])

    def test_obstructed_constant_blocks_the_series(self):
        ring = TruncatedSeriesRing(LocalizedIntegers(2), 2)
        a = ShapedMatrix.from_rows(ring, M2, [[0, -2], [1, 1]])
        with pytest.raises(ConstantNotQuasipolar, match="constant term"):
            quasipolar_witness_m2_series(a)

    def test_quasipolar_constant_goes_through(self):
        ring = TruncatedSeriesRing(IntegersMod(2, 2), 2)
        a = ShapedMatrix.from_rows(
            ring, M2, [["3", "2 + 2*x"], ["2 + x", "2 + 3*x"]]
        )
        w = quasipolar_witness_m2_series(a)
        assert w.checks().passed

    def test_oracle_view_is_consulted(self, monkeypatch):
        # The one oracle recheck asks the view about the polynomial-in-A p
        # once and returns nothing, and refuses a p that the view says
        # escapes comm^2.
        ring = TruncatedSeriesRing(PrimeField(2), 2)
        a = ShapedMatrix.from_rows(ring, M2, [[1, 0], [0, 0]])
        view = FiniteRingView(ring, M2)
        w = quasipolar_witness_shape(a)
        asked, consult = [], view.in_double_commutant
        monkeypatch.setattr(
            view, "in_double_commutant", lambda p, k: asked.append((p, k)) or consult(p, k)
        )
        assert oracle_recheck(w, view) is None
        assert asked == [(view.key_of(w.p), view.key_of(a))]
        monkeypatch.setattr(view, "in_double_commutant", lambda p, a: False)
        with pytest.raises(WitnessInvalid, match="escapes comm"):
            oracle_recheck(quasipolar_witness_shape(a), view)

    def test_rejects_other_shapes(self):
        ring = TruncatedSeriesRing(IntegersMod(2, 2), 2)
        from qpolar import T2

        a = ShapedMatrix.from_rows(ring, T2, [[1, 0], [0, 1]])
        with pytest.raises(UnsupportedShape):
            quasipolar_witness_m2_series(a)

    def test_rejects_a_same_named_shape_with_another_mask(self):
        ring = TruncatedSeriesRing(IntegersMod(2, 2), 2)
        from qpolar import Shape, T2

        impostor = Shape("M2", 2, T2.mask)
        a = ShapedMatrix.from_rows(ring, impostor, [["3", "2 + 2*x"], [0, "2 + 3*x"]])
        with pytest.raises(UnsupportedShape):
            quasipolar_witness_m2_series(a)


class TestBleachedTransfer:
    def test_base_and_quotient_agree(self):
        base = check_uniquely_bleached(PrimeField(2))
        series = check_uniquely_bleached(TruncatedSeriesRing(PrimeField(2), 3))
        assert base.passed is series.passed is True
        assert series.pairs_checked == 16

    def test_infinite_base_is_refused(self):
        with pytest.raises(InfiniteRing):
            check_uniquely_bleached(LocalizedIntegers(2))
        with pytest.raises(InfiniteRing):
            check_uniquely_bleached(TruncatedSeriesRing(LocalizedIntegers(2), 2))



class TestSeriesCost:
    # A cost pin: an M2 witness and a root lift read each series entry's
    # raw coefficients and build a base element only for a constant term,
    # so no series payload is built and the base cook count does not grow
    # with the precision.
    MATRICES = {
        "Z2^2": "[1 + x + 3*x^2 + x^5, 2*x + x^3; 3 + x^4, 2 + x + 2*x^7]",
        "Zloc2": "[1 + 1/3*x + x^5, 2*x + x^3; 3 + x^4, 2 + 5/7*x + 2*x^7]",
    }

    @staticmethod
    def calls(monkeypatch, base, precision):
        ring = TruncatedSeriesRing(base, precision)
        a = parse_matrix(ring, M2, TestSeriesCost.MATRICES[repr(base)])
        calls = {"cook": 0, "payload": 0}
        cook, payload = type(base).cook, TruncatedSeriesRing.payload

        def counted_cook(*args):
            calls["cook"] += 1
            return cook(*args)

        def counted_payload(*args):
            calls["payload"] += 1
            return payload(*args)

        monkeypatch.setattr(type(base), "cook", counted_cook)
        monkeypatch.setattr(TruncatedSeriesRing, "payload", counted_payload)
        if isinstance(base, LocalizedIntegers):
            alpha, beta = lift_split(char_poly_2x2(a), ring)
            repr(alpha), repr(beta)
        w = quasipolar_witness_shape(a)
        report = w.to_dict()
        monkeypatch.undo()
        assert report["ok"]
        zero = ShapedMatrix.from_rows(ring, M2, [[0, 0], [0, 0]])
        assert w.p not in (zero, ShapedMatrix.from_rows(ring, M2, [[1, 0], [0, 1]]))  # split
        return calls

    @pytest.mark.parametrize("base", [IntegersMod(2, 2), LocalizedIntegers(2)], ids=repr)
    def test_witness_and_lift_cook_no_coefficient(self, monkeypatch, base):
        at8, at16 = (self.calls(monkeypatch, base, m) for m in (8, 16))
        assert at8["payload"] == at16["payload"] == 0
        assert at8["cook"] == at16["cook"]
