import itertools
import operator
import random
import time

import pytest

from qpolar import (
    M2,
    M3,
    SHAPES,
    T2,
    T3,
    TN,
    MatrixParseError,
    ShapedMatrix,
    ShapeMismatch,
    TruncatedSeriesRing,
    char_poly_2x2,
    get_view,
    matrix_from_json,
    parse_matrix,
    parse_ring,
    parse_shape,
)
from qpolar.matrices import L3, MAX_TN_SIZE, UP3, Shape
from qpolar.oracle import KEY_PRODUCT_CAP, FiniteRingView

from qpolar.rings import _ModularRing

from conftest import assert_canonical, random_element, random_matrix


def test_every_shape_is_closed_under_product():
    for shape in SHAPES.values():
        assert shape.closed_under_product(), shape.name


def test_tn_masks():
    assert TN(2) is T2
    t4 = TN(4)
    assert t4.n == 4
    assert (0, 2) in t4.mask and (2, 0) not in t4.mask
    assert t4.closed_under_product()


def test_parse_shape_names():
    assert parse_shape("t3") is T3
    assert parse_shape("M2") is M2
    assert parse_shape("TN4").n == 4
    with pytest.raises(MatrixParseError):
        parse_shape("T1")
    with pytest.raises(MatrixParseError):
        parse_shape("hexagon")


def test_parse_shape_refuses_tn_sizes_out_of_bounds_fast():
    assert parse_shape(f"TN{MAX_TN_SIZE}").n == MAX_TN_SIZE == 64
    assert parse_shape(f"TN{'0' * 5000}4").n == 4
    # int() refuses over 4,300 digits; '²' passes str.isdigit but not int().
    sizes = [str(n) for n in (0, MAX_TN_SIZE + 1, 100_000, 10**12)] + ["9" * 5000]
    spellings = [(f"TN{size}", str(MAX_TN_SIZE)) for size in sizes] + [("TN²", "unknown shape")]
    for spelling, reason in spellings:
        start = time.perf_counter()
        with pytest.raises(MatrixParseError, match=reason):
            parse_shape(spelling)
        assert time.perf_counter() - start < 1.0


def test_from_rows_rejects_entries_off_the_mask(z4):
    with pytest.raises(ShapeMismatch):
        ShapedMatrix.from_rows(z4, T3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ShapeMismatch):
        ShapedMatrix.from_rows(z4, T3, [[1, 0], [0, 1]])


def test_matrix_ring_axioms_spot(z4):
    rng = random.Random(7)
    for _ in range(50):
        a = random_matrix(rng, z4, T3)
        b = random_matrix(rng, z4, T3)
        c = random_matrix(rng, z4, T3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ShapedMatrix.zero(z4, T3)
        e = ShapedMatrix.identity(z4, T3)
        assert a * e == e * a == a


def test_scale_is_entrywise(z4):
    a = parse_matrix(z4, M2, "[1,2; 3,0]")
    assert a.scale(z4.element(3)) == parse_matrix(z4, M2, "[3,2; 1,0]")


# A closed block mask, [a b 0; c d 0; 0 0 e]: neither triangular nor the
# full 2x2 mask (a diagonal reading disagrees with the oracle on 4 of its
# 32 keys over F2).
BLOCK = Shape("B", 3, frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}))


@pytest.mark.parametrize(
    "ring,shape",
    [("F2", T3), ("F2", M2), ("Z2^3", TN(1)), ("F2", BLOCK)],
    ids=lambda x: getattr(x, "name", x),
)
def test_unit_and_radical_tests_match_exhaustive_search(ring, shape):
    # One block rule decides both tests on every closed mask.
    view = get_view(parse_ring(ring), shape)
    for key in view.keys:
        a = view.value_of(key)
        assert a.is_unit() == (key in view.units)
        assert a.in_jacobson() == (key in view.jacobson_keys)


def _closed_3x3_masks():
    """Every 3x3 mask holding the diagonal and closed under products."""
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    for picks in itertools.product((False, True), repeat=len(off)):
        mask = {(i, i) for i in range(3)} | {p for p, on in zip(off, picks) if on}
        if all((i, j) in mask for (i, k) in mask for (k2, j) in mask if k == k2):
            yield frozenset(mask)


def _oracle_mismatches(ring, masks):
    # A fresh view per mask, so no carrier outlives its check.
    bad = []
    for mask in masks:
        view = FiniteRingView(ring, Shape("X", 3, mask))
        units, radical = view.units, view.jacobson_keys
        for key in view.keys:
            a = view.value_of(key)
            if a.is_unit() != (key in units) or a.in_jacobson() != (key in radical):
                bad.append((sorted(mask), a))
    return bad


def test_every_closed_3x3_mask_matches_the_oracle_over_f2():
    masks = list(_closed_3x3_masks())
    assert len(masks) == 29 and M3.mask in masks and BLOCK.mask in masks
    assert _oracle_mismatches(parse_ring("F2"), masks) == []


@pytest.mark.slow
@pytest.mark.parametrize("ring", ["F3", "Z2^2"])
def test_every_closed_3x3_mask_under_the_key_cap_matches_the_oracle(ring):
    # F3: the 28 masks other than M3; Z2^2: the 22 with at most 6 positions.
    r = parse_ring(ring)
    masks = [m for m in _closed_3x3_masks() if r.cardinality() ** (2 * len(m)) <= KEY_PRODUCT_CAP]
    assert len(masks) == {"F3": 28, "Z2^2": 22}[ring]
    assert _oracle_mismatches(r, masks) == []


def test_shape_refuses_a_mask_not_closed_under_products():
    # E12 * E23 = E13, off this mask: the product would drop it silently.
    mask = frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)})
    with pytest.raises(ShapeMismatch, match="not closed"):
        Shape("X", 3, mask)
    assert Shape("X", 3, mask | {(0, 2)}).mask == TN(3).mask
    start = time.perf_counter()
    Shape("X", MAX_TN_SIZE, TN(MAX_TN_SIZE).mask)
    assert time.perf_counter() - start < 0.1


def test_shape_data_is_built_once_per_shape():
    assert TN(5) is TN(5)
    for attr in ("positions", "flat_terms", "has_no_middles", "symmetric", "blocks"):
        assert getattr(TN(5), attr) is getattr(TN(5), attr)
    assert TN(3).blocks == ((0,), (1,), (2,)) and TN(3).symmetric == ((0, 0), (1, 1), (2, 2))
    assert BLOCK.blocks == ((0, 1), (2,)) and M3.blocks == ((0, 1, 2),)


def _scalar_calls(monkeypatch, ring, test):
    """The ring's is_unit and in_jacobson calls that test() makes, in order."""
    calls = []
    for name in ("is_unit", "in_jacobson"):
        def record(x, name=name, inner=getattr(ring, name)):
            calls.append((name, x))
            return inner(x)
        monkeypatch.setattr(ring, name, record)
    test()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("shape", [T3, L3, UP3, M2], ids=lambda s: s.name)
def test_block_rule_makes_the_diagonal_rules_scalar_calls(monkeypatch, shape):
    # A triangular mask makes exactly the diagonal rule's calls; M2 makes
    # at most two is_unit calls more than det2 and the entrywise radical test.
    ring, n = parse_ring("Z2^2"), shape.n
    for values in itertools.product(list(ring.elements()), repeat=len(shape.mask)):
        given = dict(zip(shape.positions, values))
        a = ShapedMatrix.from_rows(ring, shape, [[given.get((i, j), 0) for j in range(n)] for i in range(n)])
        unit = _scalar_calls(monkeypatch, ring, a.is_unit)
        radical = _scalar_calls(monkeypatch, ring, a.in_jacobson)
        if shape is M2:
            det2 = _scalar_calls(monkeypatch, ring, lambda: a.det2().is_unit())
            assert len(det2) <= len(unit) <= len(det2) + 2
            entries = [x for row in a.rows for x in row]
            assert radical == _scalar_calls(
                monkeypatch, ring, lambda: all(x.in_jacobson() for x in entries))
        else:
            assert unit == _scalar_calls(
                monkeypatch, ring, lambda: all(d.is_unit() for d in a.diagonal()))
            assert radical == _scalar_calls(
                monkeypatch, ring, lambda: all(d.in_jacobson() for d in a.diagonal()))


def test_char_poly_frozen_examples(z4):
    chi = char_poly_2x2(parse_matrix(z4, M2, "[0,0; 1,3]"))
    assert (chi.tr, chi.det) == (z4.element(3), z4.zero)
    assert str(chi) == "t^2 - 3*t"
    chi = char_poly_2x2(parse_matrix(z4, M2, "[3,2; 2,2]"))
    assert (chi.tr, chi.det) == (z4.element(1), z4.element(2))
    assert str(chi) == "t^2 - t + 2"
    assert chi.evaluate(z4.element(3)) == 0
    assert chi.evaluate(z4.element(2)) == 0
    assert chi.evaluate(z4.element(1)) == 2


def test_cayley_hamilton_exhaustive_m2_z4(z4):
    view = get_view(z4, M2)
    eye = ShapedMatrix.identity(z4, M2)
    zero = ShapedMatrix.zero(z4, M2)
    for key in view.keys:
        a = view.value_of(key)
        chi = char_poly_2x2(a)
        assert a * a - a.scale(chi.tr) + eye.scale(chi.det) == zero


def test_det_is_multiplicative_on_m2(z4):
    rng = random.Random(11)
    for _ in range(100):
        a = random_matrix(rng, z4, M2)
        b = random_matrix(rng, z4, M2)
        assert (a * b).det2() == a.det2() * b.det2()


def test_parse_matrix_accepts_expected_grammar(z4):
    a = parse_matrix(z4, T3, "[1,0,0; 1,2,0; 0,0,2]")
    assert a == parse_matrix(z4, T3, "1,0,0; 1,2,0; 0,0,2")
    assert repr(a) == "[1, 0, 0; 1, 2, 0; 0, 0, 2]"


def test_parse_matrix_rejects_bad_literals(z4):
    with pytest.raises(MatrixParseError):
        parse_matrix(z4, T3, "[1,0; 1,2]")
    with pytest.raises(MatrixParseError):
        parse_matrix(z4, T3, "[1,0,0; 1,2,0; 0,0")
    with pytest.raises(MatrixParseError):
        parse_matrix(z4, T3, "[1,1,0; 0,1,0; 0,0,1]")  # off-mask entry
    with pytest.raises(MatrixParseError):
        parse_matrix(z4, T3, "[1,0,0; 1,banana,0; 0,0,2]")


def test_json_round_trip(z4):
    a = parse_matrix(z4, T3, "[1,0,0; 1,2,0; 0,0,2]")
    assert matrix_from_json(a.to_json()) == a


def test_json_round_trip_series(z4):
    ring = TruncatedSeriesRing(z4, 3)
    a = parse_matrix(ring, M2, "[3, 2 + 2*x; 2 + x, 2 + 3*x]")
    assert matrix_from_json(a.to_json()) == a


# The RingElement loops the raw-payload matrix kernel replaced, kept as
# the reference it must agree with.


def loop_mul(a, b):
    n = a.shape.n
    zero = a.ring.zero
    grid = [[zero] * n for _ in range(n)]
    for (i, j), ks in a.shape.product_terms().items():
        acc = zero
        for k in ks:
            acc = acc + a.rows[i][k] * b.rows[k][j]
        grid[i][j] = acc
    return ShapedMatrix(a.ring, a.shape, tuple(tuple(r) for r in grid))


def loop_add(a, b):
    return ShapedMatrix(
        a.ring, a.shape, tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))
    )


def loop_sub(a, b):
    return ShapedMatrix(
        a.ring, a.shape, tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))
    )


def check_against_loops(a, b):
    for got, want in [
        (a * b, loop_mul(a, b)),
        (a + b, loop_add(a, b)),
        (a - b, loop_sub(a, b)),
    ]:
        assert got == want
        assert got.ring is a.ring and got.shape is a.shape
        for row in got.rows:
            for x in row:
                assert x.ring is a.ring
                assert_canonical(x)


def random_shaped(rng, ring, shape, integral=False):
    """Random entries on the mask, about a fifth of them zero."""
    rows = [[ring.zero] * shape.n for _ in range(shape.n)]
    for i, j in shape.positions:
        if rng.random() >= 0.2:
            rows[i][j] = random_element(rng, ring, integral)
    return ShapedMatrix.from_rows(ring, shape, rows)


KERNEL_RINGS = [
    "F3", "Z2^2", "Zloc2", "series(F2,3)", "series(Zloc2,4)", "series(series(F2,2),2)"
]
KERNEL_SHAPES = [*SHAPES.values(), TN(4)]


class TestRawKernel:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: s.name)
    @pytest.mark.parametrize("spelling", KERNEL_RINGS)
    def test_matches_the_element_loops(self, spelling, shape):
        ring = parse_ring(spelling)
        rng = random.Random(f"{spelling}/{shape.name}")
        for _ in range(200):
            check_against_loops(random_shaped(rng, ring, shape), random_shaped(rng, ring, shape))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: s.name)
    @pytest.mark.parametrize("spelling", ["Zloc2", "series(Zloc2,4)"])
    def test_matches_the_element_loops_on_integral_zloc(self, spelling, shape):
        # Integral entries compute as ints; paired with general draws they
        # mix with Fractions inside one sum of products.
        ring = parse_ring(spelling)
        rng = random.Random(f"integral/{spelling}/{shape.name}")
        for _ in range(100):
            a = random_shaped(rng, ring, shape, integral=True)
            check_against_loops(a, random_shaped(rng, ring, shape, integral=True))
            b = random_shaped(rng, ring, shape)
            check_against_loops(a, b)
            check_against_loops(b, a)

    def test_series_product_cooks_each_coefficient_once(self, monkeypatch, z4):
        # A cost pin: an M2 product over series(Z2^2,8) sums each entry's
        # products as raw coefficient lists and cooks the 4 entries' 8
        # coefficients once, building no series element on the way.
        ring = TruncatedSeriesRing(z4, 8)
        entry = "1 + 3*x + 2*x^2 + x^3 + 3*x^4 + x^5 + 2*x^6 + 3*x^7"
        # Raw residues are non-negative and every entry's sum has a term
        # with all 8 coefficients positive, so no coefficient is raw zero.
        a = parse_matrix(ring, M2, f"[{entry}, 3 + x; 1 + 2*x, {entry}]")
        b = parse_matrix(ring, M2, f"[1 + x, 2 + x + x^2; {entry}, 3]")
        want = loop_mul(a, b)
        calls = {}
        for cls, name in [
            (TruncatedSeriesRing, "mul"),
            (TruncatedSeriesRing, "add"),
            (_ModularRing, "cook"),
        ]:
            orig = getattr(cls, name)

            def counted(*args, orig=orig, key=f"{cls.__name__}.{name}"):
                calls[key] = calls.get(key, 0) + 1
                return orig(*args)

            monkeypatch.setattr(cls, name, counted)
        got = a * b
        assert calls == {"_ModularRing.cook": 32}
        assert got == want

    def test_products_and_sums_make_no_wrapped_scalar_ops(self, monkeypatch, z4):
        # A cost pin: the kernel sums raw residues and reduces once per
        # slot, so it never calls the ring's element-level add or mul.
        calls = [0]
        for name in ("add", "mul"):
            orig = getattr(_ModularRing, name)

            def counted(self, a, b, orig=orig):
                calls[0] += 1
                return orig(self, a, b)

            monkeypatch.setattr(_ModularRing, name, counted)
        a = parse_matrix(z4, T3, "[1,0,0; 3,2,1; 0,0,3]")
        b = parse_matrix(z4, T3, "[3,0,0; 1,1,2; 0,0,2]")
        want = [loop_mul(a, b), loop_add(a, b), loop_sub(a, b)]
        assert calls[0] > 0  # the wrappers see the reference loops' ops
        calls[0] = 0
        assert a * b == want[0]
        assert calls[0] == 0
        assert [a + b, a - b] == want[1:]
        assert calls[0] == 0

    def test_same_named_shapes_are_told_apart(self, z4):
        t3 = parse_matrix(z4, T3, "[1,0,0; 1,2,1; 0,0,3]")
        assert t3 * t3 == loop_mul(t3, t3)  # caches T3's product terms first
        fake = Shape("T3", 3, UP3.mask)
        rows = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
        m = ShapedMatrix.from_rows(z4, fake, rows)
        assert m * m == ShapedMatrix.from_rows(z4, fake, [[1, 0, 2], [0, 1, 2], [0, 0, 1]])
        up3 = ShapedMatrix.from_rows(z4, UP3, rows)
        assert (m * m).rows == (up3 * up3).rows
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(ShapeMismatch):
                op(m, t3)
        assert m != up3
        # A shape equal in value is the same shape.
        twin = Shape("T3", 3, T3.mask)
        t3_twin = ShapedMatrix(z4, twin, t3.rows)
        assert t3_twin == t3 and hash(t3_twin) == hash(t3)
        assert t3_twin * t3 == t3 * t3
