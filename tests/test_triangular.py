"""Constructive engines for the triangular-type shapes, and the one dispatch."""

import pytest

from qpolar import (
    L3,
    LOW3,
    M2,
    M3,
    S1,
    S2,
    T2,
    T3,
    TN,
    UP3,
    UnsupportedShape,
    classify_case,
    get_view,
    parse_ring,
    quasipolar_witness_m2,
    quasipolar_witness_m2_series,
    quasipolar_witness_shape,
    quasipolar_witness_t2,
    quasipolar_witness_t3,
    rad_clean_witness_t3,
    scalar_quasipolar,
    spectral_idempotent_t3,
)
from qpolar import triangular
from qpolar.matrices import Shape, ShapedMatrix


def t3_of(ring, rows):
    return ShapedMatrix.from_rows(ring, T3, rows)


def diag_t3(ring, a, b, c):
    return t3_of(ring, [[a, 0, 0], [0, b, 0], [0, 0, c]])


class TestCaseClassification:
    def test_case_numbers_follow_the_diagonal_pattern(self, z4):
        expected = {
            (2, 2, 2): (1, ("J", "J", "J")),
            (1, 3, 3): (2, ("U", "U", "U")),
            (1, 2, 2): (3, ("U", "J", "J")),
            (2, 1, 2): (4, ("J", "U", "J")),
            (2, 2, 1): (5, ("J", "J", "U")),
            (2, 1, 1): (6, ("J", "U", "U")),
            (1, 2, 1): (7, ("U", "J", "U")),
            (1, 1, 2): (8, ("U", "U", "J")),
        }
        for diag, (case, pattern) in expected.items():
            tag = classify_case(diag_t3(z4, *diag))
            assert tag.case == case
            assert tag.pattern == pattern

    def test_tag_renders_case_and_pattern(self, z4):
        tag = classify_case(diag_t3(z4, 1, 2, 2))
        assert str(tag) == "case 3 (U,J,J)"

    def test_rejects_other_shapes(self, z4):
        with pytest.raises(UnsupportedShape):
            classify_case(ShapedMatrix.from_rows(z4, T2, [[1, 0], [0, 1]]))


class TestSpectralIdempotentT3:
    def test_pinned_mixed_pattern(self, z4):
        # Diagonal (U,J,U): both off-diagonal slots of the middle row
        # must be corrected, with opposite orientations.
        a = t3_of(z4, [[1, 0, 0], [1, 2, 1], [0, 0, 3]])
        e = spectral_idempotent_t3(a)
        assert e == t3_of(z4, [[0, 0, 0], [1, 1, 3], [0, 0, 0]])

    def test_zero_and_identity(self, z4):
        zero = t3_of(z4, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        one = t3_of(z4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert spectral_idempotent_t3(zero) == one
        assert spectral_idempotent_t3(one) == zero

    def test_postconditions_hold_exhaustively(self, f3):
        view = get_view(f3, T3)
        for key in view.keys:
            a = view.value_of(key)
            e = spectral_idempotent_t3(a)
            assert e * e == e
            assert e * a == a * e
            assert (a + e).is_unit()
            assert (a - e).is_unit()

    def test_witness_idempotents_survive_the_search(self, f2):
        view = get_view(f2, T3)
        for key in view.keys:
            a = view.value_of(key)
            w = quasipolar_witness_t3(a)
            assert view.quasipolar_search_keys(key) == (view.key_of(w.p),)


class TestWitnessesT3:
    def test_pinned_quasipolar_witness(self, z4):
        a = t3_of(z4, [[1, 0, 0], [1, 2, 1], [0, 0, 3]])
        w = quasipolar_witness_t3(a)
        assert w.p == t3_of(z4, [[0, 0, 0], [1, 1, 3], [0, 0, 0]])
        assert w.u == a + w.p
        assert w.u == t3_of(z4, [[1, 0, 0], [2, 3, 0], [0, 0, 3]])
        assert w.q == t3_of(z4, [[0, 0, 0], [2, 2, 2], [0, 0, 0]])
        assert w.checks().passed

    def test_pinned_rad_clean_witness(self, z4):
        a = t3_of(z4, [[1, 0, 0], [1, 2, 1], [0, 0, 3]])
        w = rad_clean_witness_t3(a)
        assert w.e == t3_of(z4, [[0, 0, 0], [1, 1, 3], [0, 0, 0]])
        assert w.v == t3_of(z4, [[1, 0, 0], [0, 1, 2], [0, 0, 3]])
        assert w.corner_j == t3_of(z4, [[0, 0, 0], [2, 2, 2], [0, 0, 0]])
        assert w.checks().passed

    def test_same_idempotent_serves_both_roles(self, z8):
        a = t3_of(z8, [[2, 0, 0], [3, 5, 1], [0, 0, 4]])
        assert quasipolar_witness_t3(a).p == rad_clean_witness_t3(a).e

    def test_rad_clean_confirmed_by_search(self, f3):
        view = get_view(f3, T3)
        a = t3_of(f3, [[1, 0, 0], [2, 0, 1], [0, 0, 2]])
        w = rad_clean_witness_t3(a)
        assert view.key_of(w.e) in view.rad_clean_search_keys(view.key_of(a))


class TestWitnessT2:
    def test_pinned_example(self, z4):
        a = ShapedMatrix.from_rows(z4, T2, [[2, 1], [0, 1]])
        w = quasipolar_witness_t2(a)
        assert w.p == ShapedMatrix.from_rows(z4, T2, [[1, 1], [0, 0]])
        assert w.checks().passed

    def test_diagonal_patterns(self, z4):
        both_radical = ShapedMatrix.from_rows(z4, T2, [[2, 1], [0, 0]])
        both_unit = ShapedMatrix.from_rows(z4, T2, [[1, 2], [0, 3]])
        assert quasipolar_witness_t2(both_radical).p == ShapedMatrix.from_rows(
            z4, T2, [[1, 0], [0, 1]]
        )
        assert quasipolar_witness_t2(both_unit).p == ShapedMatrix.from_rows(
            z4, T2, [[0, 0], [0, 0]]
        )

    def test_exhaustive_over_z4(self, z4):
        view = get_view(z4, T2)
        for key in view.keys:
            a = view.value_of(key)
            w = quasipolar_witness_t2(a)
            assert w.checks().passed
            assert view.quasipolar_search_keys(key) == (view.key_of(w.p),)


class TestScalarWitness:
    def test_radical_scalar(self, z4):
        p, u, q = scalar_quasipolar(z4.element(2))
        assert (p, u, q) == (z4.element(1), z4.element(3), z4.element(2))

    def test_unit_scalar(self, z4):
        p, u, q = scalar_quasipolar(z4.element(3))
        assert (p, u, q) == (z4.element(0), z4.element(3), z4.element(0))


class TestTransportedShapes:
    def test_pinned_l3_example(self, z4):
        a = ShapedMatrix.from_rows(z4, L3, [[2, 0, 0], [0, 1, 0], [1, 0, 3]])
        w = quasipolar_witness_shape(a)
        assert w.p == ShapedMatrix.from_rows(z4, L3, [[1, 0, 0], [0, 0, 0], [3, 0, 0]])
        assert w.checks().passed

    @pytest.mark.parametrize("shape", [L3, LOW3, UP3, S1, S2])
    def test_zero_and_identity_transport(self, z4, shape):
        zero = ShapedMatrix.zero(z4, shape)
        one = ShapedMatrix.identity(z4, shape)
        assert quasipolar_witness_shape(zero).p == one
        assert quasipolar_witness_shape(one).p == zero

    @pytest.mark.parametrize(
        "shape,rows",
        [
            (LOW3, [[2, 0, 0], [0, 1, 0], [1, 3, 2]]),
            (UP3, [[1, 0, 2], [0, 2, 1], [0, 0, 3]]),
            (S1, [[2, 0, 1], [0, 3, 0], [0, 0, 2]]),
            (S2, [[1, 0, 0], [0, 2, 0], [0, 3, 1]]),
        ],
    )
    def test_fixed_instances_validate(self, z4, shape, rows):
        a = ShapedMatrix.from_rows(z4, shape, rows)
        view = get_view(z4, shape)
        w = quasipolar_witness_shape(a)
        assert w.checks().passed
        assert view.quasipolar_search_keys(view.key_of(a)) == (view.key_of(w.p),)

    def test_t3_and_t2_also_dispatch(self, z4):
        a = diag_t3(z4, 1, 2, 3)
        assert quasipolar_witness_shape(a).checks().passed
        b = ShapedMatrix.from_rows(z4, T2, [[2, 1], [0, 1]])
        assert quasipolar_witness_shape(b).checks().passed

    def test_unsupported_shapes_are_refused(self, z4):
        # M3, a mask with middle indices (TN3), and a non-triangular block;
        # the refusal lists TN1, which decomposes.
        block = Shape("B", 3, frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}))
        for shape in (M3, TN(3), block):
            with pytest.raises(UnsupportedShape, match="no constructive decomposition.* TN1, "):
                quasipolar_witness_shape(ShapedMatrix.identity(z4, shape))
        assert quasipolar_witness_shape(ShapedMatrix.identity(z4, TN(1))).checks().passed

    @pytest.mark.parametrize("shape", [T2, T3, L3, LOW3, UP3, S1, S2, M2], ids=lambda s: s.name)
    def test_dispatch_compares_shapes_by_value(self, monkeypatch, z4, shape):
        # A same-named shape with another mask gets its own mask's witness,
        # never the named shape's engine; a shape equal in value dispatches
        # like the built-in one.
        n = shape.n
        impostor = Shape(shape.name, n, frozenset((i, i) for i in range(n)))
        d = ShapedMatrix.from_rows(
            z4, impostor, [[(2 - i % 2) * (i == j) for j in range(n)] for i in range(n)]
        )

        def named_engine(a, **_):
            raise AssertionError(f"{shape.name} impostor reached a named shape's engine")

        for engine in ("quasipolar_witness_t3", "quasipolar_witness_t2",
                       "quasipolar_witness_m2", "quasipolar_witness_m2_series"):
            monkeypatch.setattr(triangular, engine, named_engine)
        w = quasipolar_witness_shape(d)
        monkeypatch.undo()
        assert w.p == ShapedMatrix.from_rows(
            z4, impostor, [[int(i == j and i % 2 == 0) for j in range(n)] for i in range(n)]
        )
        twin = Shape(shape.name, n, shape.mask)
        a = ShapedMatrix.identity(z4, shape)
        assert quasipolar_witness_shape(ShapedMatrix(z4, twin, a.rows)) == quasipolar_witness_shape(a)

    def test_t3_engine_refuses_a_same_named_shape(self, z4):
        impostor = ShapedMatrix.identity(z4, Shape("T3", 3, UP3.mask))
        for engine in (classify_case, spectral_idempotent_t3, quasipolar_witness_t3):
            with pytest.raises(UnsupportedShape):
                engine(impostor)

    @pytest.mark.parametrize(
        "ring,shape,rows,engine",
        [
            ("Z2^2", T3, [[1, 0, 0], [1, 2, 1], [0, 0, 3]], quasipolar_witness_t3),
            ("Zloc2", T3, [[2, 0, 0], [5, 1, 3], [0, 0, 4]], quasipolar_witness_t3),
            ("Z2^2", T2, [[2, 1], [0, 1]], quasipolar_witness_t2),
            ("Z2^2", L3, [[1, 0, 0], [0, 2, 0], [3, 0, 2]], None),
            ("Z2^2", LOW3, [[2, 0, 0], [0, 1, 0], [1, 3, 2]], None),
            ("Z2^2", UP3, [[1, 0, 2], [0, 2, 1], [0, 0, 3]], None),
            ("Z2^2", S1, [[2, 0, 1], [0, 3, 0], [0, 0, 2]], None),
            ("Z2^2", S2, [[1, 0, 0], [0, 2, 0], [0, 3, 1]], None),
            ("F3", M2, [[1, 1], [0, 0]], quasipolar_witness_m2),
            ("Zloc2", M2, [[1, 2], [2, 4]], quasipolar_witness_m2),
            ("series(Z2^2,8)", M2, [[1, 0], [0, 2]], quasipolar_witness_m2_series),
        ],
    )
    def test_dispatch_covers_every_supported_shape(self, ring, shape, rows, engine):
        a = ShapedMatrix.from_rows(parse_ring(ring), shape, rows)
        w = quasipolar_witness_shape(a)
        assert w.a is a and w.report.passed
        if engine is not None:
            assert w == engine(a)


@pytest.mark.parametrize(
    "ring,shape",
    [("F3", s) for s in (T2, T3, L3, LOW3, UP3, S1, S2)]
    + [("Z2^2", s) for s in (T2, L3, S1, S2)]
    + [("Z2^3", TN(1)), ("F3", Shape("D3", 3, frozenset((i, i) for i in range(3))))],
    ids=lambda x: getattr(x, "name", x),
)
def test_engine_idempotent_is_the_unique_one_the_oracle_finds(ring, shape):
    # Every matrix of the shape: the definitional search finds exactly
    # one quasipolar idempotent, and it is the one the engine builds.
    view = get_view(parse_ring(ring), shape)
    misses = []
    for key in view.keys:
        p = quasipolar_witness_shape(view.value_of(key)).p
        if view.quasipolar_search_keys(key) != (view.key_of(p),):
            misses.append(repr(view.value_of(key)))
    assert misses == []
