import inspect
import operator
import random
import re
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from qpolar import (
    M2,
    InfiniteRing,
    IntegersMod,
    InvalidElement,
    LocalizedIntegers,
    NotAUnit,
    PrimeField,
    RingMismatch,
    RingParseError,
    ShapedMatrix,
    TruncatedSeriesRing,
    matrix_from_json,
    parse_matrix,
    parse_ring,
    quasipolar_witness_shape,
)
from qpolar.rings import MAX_PRIME, RingElement, _is_prime, _ModularRing

from conftest import assert_canonical, random_element


def test_modular_arithmetic(z4):
    a = z4.element(3)
    b = z4.element(2)
    assert a + b == 1
    assert a - b == 1
    assert a * b == 2
    assert -b == 2
    assert a**2 == 1
    assert (a + 1) == 0


def test_modular_canonical_residue(z4):
    assert z4.element(-1) == 3
    assert z4.element(7).payload == 3
    assert z4.parse("-2") == 2


def test_modular_unit_radical_split(z4, z8):
    units = [x for x in z4.elements() if x.is_unit()]
    radicals = [x for x in z4.elements() if x.in_jacobson()]
    assert sorted(x.payload for x in units) == [1, 3]
    assert sorted(x.payload for x in radicals) == [0, 2]
    # local dichotomy: exactly one of the two, never both
    for x in z8.elements():
        assert x.is_unit() != x.in_jacobson()


def test_modular_inverse(z4, f3):
    assert z4.element(3).inverse() == 3
    assert f3.element(2).inverse() == 2
    with pytest.raises(NotAUnit):
        z4.element(2).inverse()


def test_prime_field_every_nonzero_is_unit(f3):
    for x in f3.elements():
        assert x.is_unit() == (x != 0)
    assert f3.cardinality() == 3


def test_prime_field_requires_prime():
    with pytest.raises(InvalidElement):
        PrimeField(4)
    with pytest.raises(InvalidElement):
        IntegersMod(6, 2)


def test_localized_arithmetic(zloc2):
    third = zloc2.element(Fraction(1, 3))
    fifth = zloc2.element(Fraction(1, 5))
    assert third + fifth == zloc2.element(Fraction(8, 15))
    assert third * 3 == 1
    assert zloc2.element(Fraction(3, 5)).inverse() == zloc2.element(Fraction(5, 3))


def test_localized_membership(zloc2):
    assert not zloc2.element(Fraction(2, 3)).is_unit()
    assert zloc2.element(Fraction(6, 5)).in_jacobson()
    assert zloc2.element(Fraction(7, 9)).is_unit()
    with pytest.raises(InvalidElement):
        zloc2.element(Fraction(1, 2))
    with pytest.raises(NotAUnit):
        zloc2.element(2).inverse()


def test_localized_canonical_payload(zloc2):
    x = zloc2.element(Fraction(2, 6))
    assert x.payload == Fraction(1, 3)
    assert zloc2.parse("4/6").payload == Fraction(2, 3)
    assert zloc2.parse("-3").payload == Fraction(-3)
    with pytest.raises(RingParseError):
        zloc2.parse("one half")


def test_localized_is_infinite(zloc2):
    assert not zloc2.is_finite
    with pytest.raises(InfiniteRing):
        list(zloc2.elements())
    with pytest.raises(InfiniteRing):
        zloc2.cardinality()


def test_series_construction(z4):
    ring = TruncatedSeriesRing(z4, 3)
    assert ring.element(3).payload == (z4.element(3), z4.zero, z4.zero)
    assert ring.element([1, 2]).payload == (z4.element(1), z4.element(2), z4.zero)
    # excess coefficients truncate away
    assert ring.element([1, 2, 3, 9, 9]) == ring.element([1, 2, 3])


def test_series_parse_and_format(z4):
    ring = TruncatedSeriesRing(z4, 4)
    s = ring.parse("3 + 2*x + x^3")
    assert s.payload == (z4.element(3), z4.element(2), z4.zero, z4.element(1))
    assert repr(s) == "3 + 2*x + x^3"
    assert repr(ring.parse("1 - 2*x")) == "1 + 2*x"
    assert repr(ring.zero) == "0"
    assert ring.parse("x") == ring.element([0, 1])
    for text in ("x^-1", "2*x^ -3"):
        with pytest.raises(RingParseError, match="negative power"):
            ring.parse(text)
    with pytest.raises(RingParseError):
        ring.parse("3y")


def test_series_multiplication_truncates(z4):
    ring = TruncatedSeriesRing(z4, 3)
    a = ring.parse("3 + 2*x")
    assert a * a == ring.one
    assert a.inverse() == a
    x = ring.parse("x")
    assert x * x * x == ring.zero


def test_series_units_match_brute_force(f2):
    ring = TruncatedSeriesRing(f2, 3)
    carrier = list(ring.elements())
    assert len(carrier) == ring.cardinality() == 8
    for a in carrier:
        by_scan = any(a * b == ring.one for b in carrier)
        assert a.is_unit() == by_scan
        assert a.in_jacobson() == (not by_scan)


def test_series_constant_not_unit_has_no_inverse(z4):
    ring = TruncatedSeriesRing(z4, 2)
    with pytest.raises(NotAUnit):
        ring.parse("2 + x").inverse()


def test_series_mixed_precision_is_an_error(z4):
    a = TruncatedSeriesRing(z4, 2).element(1)
    b = TruncatedSeriesRing(z4, 3).element(1)
    with pytest.raises(RingMismatch):
        a + b
    assert a != b


def test_cross_ring_equality_is_false_not_an_error(z4, f2):
    assert z4.element(1) != f2.element(1)
    with pytest.raises(RingMismatch):
        z4.element(1) + f2.element(1)


@pytest.mark.parametrize("spelling", ["F3", "Z2^2", "Zloc2", "series(Z2^2,3)"])
def test_rings_from_different_parses_still_mix(spelling):
    # Identity is only a fast path: equal rings from two parses combine.
    r1, r2 = parse_ring(spelling), parse_ring(spelling)
    assert r1 is not r2 and r1 == r2
    x, y = r1.element(1), r2.element(1)
    assert x == y and hash(x) == hash(y)
    assert x + y == r1.element(2) and x * y == r2.one
    assert r2.element(x) is x
    a, b = ShapedMatrix.identity(r1, M2), ShapedMatrix.identity(r2, M2)
    assert a == b and hash(a) == hash(b)
    assert a * b == a and a - b == ShapedMatrix.zero(r2, M2)


def test_ring_mismatch_still_raises(z4, f2):
    with pytest.raises(RingMismatch):
        f2.element(z4.one)
    with pytest.raises(RingMismatch):
        z4.element(f2.one)
    with pytest.raises(RingMismatch):
        LocalizedIntegers(2).element(f2.one)
    with pytest.raises(RingMismatch):
        TruncatedSeriesRing(z4, 2).element(f2.one)
    a, b = ShapedMatrix.identity(z4, M2), ShapedMatrix.identity(f2, M2)
    assert a != b
    for op in (operator.mul, operator.add, operator.sub):
        with pytest.raises(RingMismatch):
            op(a, b)


def test_element_dunders(z4):
    a = z4.element(3)
    assert 1 + a == 0
    assert 1 - a == 2
    assert 2 * a == 2
    assert a / a == 1
    assert a**-1 == a.inverse()
    assert bool(a) and not bool(z4.zero)
    assert hash(z4.element(3)) == hash(z4.element(-1))


def test_parse_ring_grammar():
    assert parse_ring("F2") == PrimeField(2)
    assert parse_ring("Z2^2") == IntegersMod(2, 2)
    assert parse_ring("Z3^2") == IntegersMod(3, 2)
    assert parse_ring("Zloc2") == LocalizedIntegers(2)
    assert parse_ring("series(Z2^2,8)") == TruncatedSeriesRing(IntegersMod(2, 2), 8)
    nested = parse_ring("series(series(F2,2),2)")
    assert nested == TruncatedSeriesRing(TruncatedSeriesRing(PrimeField(2), 2), 2)


def test_parse_ring_rejects_bad_spellings():
    for bad in ("", "F4", "Z6^1", "Zloc4", "Z2", "series(F2)", "series(F2,0)", "banana",
                "series(series(F2,2))", "series(F2,3,4)", "series((F2,2),2)"):
        with pytest.raises(RingParseError):
            parse_ring(bad)
    # A refused base names the whole spelling, not only the fragment it read.
    for bad in ("series(F2,3,4)", "series((F2,2),2)", "series(series(F9,2),2)"):
        with pytest.raises(RingParseError, match=re.escape(repr(bad))):
            parse_ring(bad)


def test_parse_ring_round_trips_repr(z4, f2, f3, z8, zloc2):
    for ring in (z4, f2, f3, z8, zloc2, TruncatedSeriesRing(z4, 4)):
        assert parse_ring(repr(ring)) == ring


class TestIdentityBySpelling:
    @pytest.mark.parametrize(
        "ring",
        [
            PrimeField(2),
            IntegersMod(2, 1),
            IntegersMod(3, 2),
            LocalizedIntegers(5),
            TruncatedSeriesRing(LocalizedIntegers(2), 4),
            TruncatedSeriesRing(TruncatedSeriesRing(IntegersMod(2, 2), 2), 3),
        ],
        ids=repr,
    )
    def test_parse_ring_reads_repr_back(self, ring):
        back = parse_ring(repr(ring))
        assert back == ring and hash(back) == hash(ring)
        assert repr(back) == repr(ring) == ring.spelling
        assert type(back) is type(ring)

    def test_distinct_spellings_are_distinct_rings(self):
        for a, b in [
            ("F2", "Z2^1"),
            ("series(F2,3)", "series(F2,4)"),
            ("Z2^2", "Z2^3"),
            ("Zloc2", "Zloc3"),
            ("series(F2,2)", "series(Z2^1,2)"),
        ]:
            assert parse_ring(a) != parse_ring(b)
        assert PrimeField(2) != IntegersMod(2, 1)
        assert PrimeField(2) != "F2"
        assert len({PrimeField(2), IntegersMod(2, 1), parse_ring("F2")}) == 2


# The per-ring element formatters that format_raw on raw values replaced,
# kept as the reference every repr must equal.


def format_element(a):
    ring = a.ring
    if not isinstance(ring, TruncatedSeriesRing):
        return str(a.payload)
    terms = []
    for power, c in enumerate(a.payload):
        if not c:
            continue
        cs = format_element(c)
        wrapped = f"({cs})" if ("+" in cs or " " in cs) else cs
        if power == 0:
            terms.append(cs)
        elif power == 1:
            terms.append("x" if cs == "1" else f"{wrapped}*x")
        else:
            terms.append(f"x^{power}" if cs == "1" else f"{wrapped}*x^{power}")
    if not terms:
        return "0"
    return " + ".join(terms).replace("+ -", "- ")


class TestFormatting:
    @pytest.mark.parametrize("spelling", ["F3", "Z2^3", "series(F2,3)", "series(Z2^2,2)"])
    def test_repr_matches_the_reference_on_every_element(self, spelling):
        for x in parse_ring(spelling).elements():
            assert repr(x) == format_element(x)

    @pytest.mark.parametrize(
        "spelling", ["Zloc2", "series(Zloc2,4)", "series(series(Zloc2,2),2)"]
    )
    def test_repr_matches_the_reference_on_seeded_draws(self, spelling):
        # Integral draws print from int raws, fractional ones from Fractions.
        ring = parse_ring(spelling)
        rng = random.Random(f"repr/{spelling}")
        draws = [random_element(rng, ring, integral) for integral in (True, False) * 150]
        draws += [ring.zero, ring.one, -ring.one, ring.element(-3), ring.parse("-1/3")]
        assert any(repr(x).startswith("-") for x in draws)
        for x in draws:
            assert repr(x) == format_element(x)

    def test_formatting_a_zloc_series_witness_tests_no_element_for_zero(self, monkeypatch):
        # A cost pin: text is built from raw values, so it never asks an
        # element whether it is zero (the per-element formatter made 128).
        ring = parse_ring("series(Zloc2,8)")
        w = quasipolar_witness_shape(parse_matrix(ring, M2, "[1 + x, 1/3*x; 2, 2 + 3*x^2]"))
        calls = [0]
        orig = RingElement.__bool__

        def counted(self):
            calls[0] += 1
            return orig(self)

        monkeypatch.setattr(RingElement, "__bool__", counted)
        assert ring.one and calls[0] == 1  # the wrapper sees zero tests
        calls[0] = 0
        text = " ".join(repr(m) for m in (w.a, w.p, w.u, w.q))
        assert calls[0] == 0
        assert text.startswith("[1 + x, 1/3*x; 2, 2 + 3*x^2]")


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class TestPrimality:
    def test_matches_trial_division_below_ten_thousand(self):
        for n in range(10_000):
            assert _is_prime(n) == trial_division_is_prime(n), n

    def test_large_primes_and_strong_pseudoprimes(self):
        assert _is_prime(2**61 - 1) and _is_prime(10**14 + 31)
        assert not _is_prime(2**61 + 1)
        # Strong pseudoprimes to the bases up to 23, respectively up to 37.
        assert not _is_prime(3_825_123_056_546_413_051)
        assert not _is_prime(318_665_857_834_031_151_167_461)

    def test_primes_at_or_above_the_bound_are_refused(self):
        assert not _is_prime(MAX_PRIME - 1)
        for n in (MAX_PRIME, 2**89 - 1, 2**127 - 1):
            with pytest.raises(InvalidElement, match=str(MAX_PRIME)):
                _is_prime(n)
            with pytest.raises(RingParseError, match=str(MAX_PRIME)):
                parse_ring(f"F{n}")
        assert parse_ring("Zloc2305843009213693951").p == 2**61 - 1


# The per-ring payload methods that the element operators, now
# cook(raw op raw) on every ring, replaced; kept as their reference.


def payload_op(ring, op, *xs):
    value = op(*(x.payload for x in xs))
    if isinstance(ring, LocalizedIntegers):
        return value
    return value % ring.modulus


def check_against_payload_ops(ring, a, b):
    for got, want in [
        (a + b, payload_op(ring, operator.add, a, b)),
        (a * b, payload_op(ring, operator.mul, a, b)),
        (-a, payload_op(ring, operator.neg, a)),
        (a - b, payload_op(ring, operator.sub, a, b)),
    ]:
        assert got.payload == want
        assert_canonical(got)


class TestElementOps:
    @pytest.mark.parametrize("spelling", ["F3", "Z2^3"])
    def test_match_the_payload_ops_on_every_pair(self, spelling):
        ring = parse_ring(spelling)
        for a, b in product(ring.elements(), repeat=2):
            check_against_payload_ops(ring, a, b)

    def test_match_the_payload_ops_on_seeded_zloc_pairs(self, zloc2):
        # Integral values compute as ints, fractional ones as Fractions.
        rng = random.Random("scalar/Zloc2")
        for _ in range(200):
            a, b = random_element(rng, zloc2, integral=True), random_element(rng, zloc2)
            check_against_payload_ops(zloc2, a, random_element(rng, zloc2, integral=True))
            check_against_payload_ops(zloc2, b, random_element(rng, zloc2))
            check_against_payload_ops(zloc2, a, b)
            check_against_payload_ops(zloc2, b, a)

    @pytest.mark.parametrize("spelling", ["F2", "Z2^2", "series(series(F2,2),2)"])
    def test_bool_is_false_exactly_at_zero_on_every_element(self, spelling):
        ring = parse_ring(spelling)
        for x in ring.elements():
            assert bool(x) == (x != ring.zero)

    @pytest.mark.parametrize("spelling", ["Zloc2", "series(Zloc2,4)"])
    def test_bool_is_false_exactly_at_zero_on_seeded_draws(self, spelling):
        ring = parse_ring(spelling)
        rng = random.Random(f"bool/{spelling}")
        draws = [random_element(rng, ring, integral) for integral in (True, False) * 100]
        for x in [ring.zero, ring.element(0), ring.parse("1/3"), *draws]:
            assert bool(x) == (x != ring.zero)


# The RingElement loops the raw-payload series kernel replaced, kept as
# the reference it must agree with; they build through ring.element.


def loop_add(ring, a, b):
    return ring.element(tuple(x + y for x, y in zip(a.payload, b.payload)))


def loop_mul(ring, a, b):
    m = ring.precision
    out = [ring.base.element(0)] * m
    for i, ai in enumerate(a.payload):
        if not ai:
            continue
        for j in range(m - i):
            bj = b.payload[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return ring.element(tuple(out))


def loop_neg(ring, a):
    return ring.element(tuple(-c for c in a.payload))


def loop_inverse(ring, a):
    c0 = a.payload[0].inverse()
    out = [c0]
    for i in range(1, ring.precision):
        s = ring.base.element(0)
        for k in range(1, i + 1):
            ak = a.payload[k]
            if ak:
                s = s + ak * out[i - k]
        out.append(-(c0 * s))
    return ring.element(tuple(out))


def check_against_loops(ring, a, b):
    for got, want in [
        (a + b, loop_add(ring, a, b)),
        (a * b, loop_mul(ring, a, b)),
        (-a, loop_neg(ring, a)),
        (a - b, loop_add(ring, a, loop_neg(ring, b))),
    ]:
        assert got == want
        assert_canonical(got)
    # In a local ring 1 + a is a unit whenever a is not.
    u = a if a.is_unit() else a + 1
    got = u.inverse()
    assert got == loop_inverse(ring, u)
    assert_canonical(got)
    assert got * u == ring.one


SERIES_RINGS = [
    "series(F3,8)",
    "series(Z2^2,16)",
    "series(Zloc2,8)",
    "series(series(F2,2),3)",
]


class TestSeriesKernel:
    @pytest.mark.parametrize("spelling", SERIES_RINGS)
    def test_matches_the_loops_on_seeded_pairs(self, spelling):
        ring = parse_ring(spelling)
        rng = random.Random(spelling)
        for _ in range(200):
            check_against_loops(ring, random_element(rng, ring), random_element(rng, ring))

    @pytest.mark.parametrize("spelling", ["series(Zloc2,8)", "series(series(Zloc2,2),3)"])
    def test_matches_the_loops_on_integral_zloc_pairs(self, spelling):
        # Integral coefficients compute as ints; paired with general draws
        # they mix with Fractions inside one product.
        ring = parse_ring(spelling)
        rng = random.Random(f"integral/{spelling}")
        for _ in range(200):
            a = random_element(rng, ring, integral=True)
            check_against_loops(ring, a, random_element(rng, ring, integral=True))
            b = random_element(rng, ring)
            check_against_loops(ring, a, b)
            check_against_loops(ring, b, a)

    def test_matches_the_loops_exhaustively_over_series_f2_3(self, f2):
        ring = TruncatedSeriesRing(f2, 3)
        carrier = list(ring.elements())
        for a, b in product(carrier, repeat=2):
            check_against_loops(ring, a, b)

    def test_hooks_keep_payloads_canonical(self, z4, zloc2):
        assert z4.cook(-7).payload == 1
        assert type(zloc2.cook(0).payload) is Fraction
        assert zloc2.cook(Fraction(2, 6)).payload == Fraction(1, 3)
        assert type(zloc2.element(3).raw) is int
        assert zloc2.element(Fraction(2, 6)).raw == Fraction(1, 3)
        nested = TruncatedSeriesRing(TruncatedSeriesRing(z4, 2), 2)
        inner = nested.base.element([1, 2])
        for x in (inner, nested.element([inner, 0]), zloc2.element(Fraction(3, 5))):
            back = x.ring.cook(x.raw)
            assert back == x
            assert_canonical(back)
        # Every coefficient of a Zloc series product is a Fraction, zeros too.
        ring = TruncatedSeriesRing(zloc2, 4)
        x = ring.parse("x^3")
        assert_canonical(x * x)
        assert_canonical(ring.parse("3").inverse())

    @pytest.mark.parametrize("spelling", ["F2", "Z2^2", "Zloc2", *SERIES_RINGS])
    def test_zero_and_one_are_built_once(self, spelling):
        ring = parse_ring(spelling)
        assert ring.zero is ring.zero
        assert ring.one is ring.one
        assert not ring.zero and ring.one

    def test_zero_and_one_stay_plain_properties(self):
        # Instrumentation wraps a property's fget; a cached_property or an
        # instance attribute named zero would slip past it.
        for name in ("zero", "one"):
            assert type(inspect.getattr_static(TruncatedSeriesRing, name)) is property

    def test_integral_zloc_series_mul_makes_no_fraction_ops(self, monkeypatch, zloc2):
        # A cost pin: integral coefficients convolve as ints, and each
        # result coefficient becomes a Fraction once, by construction.
        ring = TruncatedSeriesRing(zloc2, 8)
        a = ring.parse("1 - 3*x + 2*x^2 + 5*x^5 + 7*x^7")
        b = ring.parse("3 + x - 6*x^3 + 2*x^4 + x^6")
        want = loop_mul(ring, a, b)
        calls = [0]
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            orig = getattr(Fraction, name)

            def counted(self, other, orig=orig):
                calls[0] += 1
                return orig(self, other)

            monkeypatch.setattr(Fraction, name, counted)
        third, two_fifths = zloc2.element(Fraction(1, 3)), zloc2.element(Fraction(2, 5))
        assert (third * two_fifths).payload == Fraction(2, 15)
        assert calls[0] > 0  # the wrappers see fractional operands' ops
        calls[0] = 0
        got = a * b
        assert calls[0] == 0
        assert got == want
        assert_canonical(got)

    def test_series_mul_makes_no_wrapped_scalar_ops(self, monkeypatch, z4):
        # A cost pin: the product convolves raw residues, so it never calls
        # the base ring's element-level add or mul.
        calls = [0]
        for name in ("add", "mul"):
            orig = getattr(_ModularRing, name)

            def counted(self, a, b, orig=orig):
                calls[0] += 1
                return orig(self, a, b)

            monkeypatch.setattr(_ModularRing, name, counted)
        ring = TruncatedSeriesRing(z4, 8)
        a = ring.parse("1 + 3*x + 2*x^2 + x^5 + 3*x^7")
        b = ring.parse("3 + x + x^3 + 2*x^4 + x^6")
        want = loop_mul(ring, a, b)
        assert calls[0] > 0  # the wrappers see the reference loop's ops
        calls[0] = 0
        assert a * b == want
        assert calls[0] == 0


REPRESENTATION_RINGS = [
    "F3",
    "Z2^2",
    "Zloc2",
    "series(F2,3)",
    "series(Z2^2,2)",
    "series(Zloc2,4)",
    "series(series(Zloc2,2),2)",
]


def representation_draws(ring):
    """A finite ring's whole carrier; seeded integral and fractional draws otherwise."""
    if ring.is_finite:
        return list(ring.elements())
    rng = random.Random(f"representation/{ring}")
    return [random_element(rng, ring, integral) for integral in (True, False) * 60]


class TestSeriesRepresentation:
    # Every element holds its canonical raw value; payload, what
    # bench/verify.py reads, is built from it on demand.

    @pytest.mark.parametrize("spelling", REPRESENTATION_RINGS)
    def test_payload_raw_and_cook_agree(self, spelling):
        ring = parse_ring(spelling)
        for x in representation_draws(ring):
            assert_canonical(x)  # raw is normal and matches the payload
            back = ring.cook(x.raw)
            assert back == x and hash(back) == hash(x)

    def test_zloc_inverse_stays_exact(self, zloc2):
        assert type(zloc2.one.inverse().raw) is int
        assert zloc2.element(3).inverse().raw == Fraction(1, 3)
        assert type(zloc2.element(-5).inverse().raw) is Fraction

    @pytest.mark.parametrize("spelling", REPRESENTATION_RINGS)
    def test_equal_elements_hash_alike_however_built(self, spelling):
        ring = parse_ring(spelling)
        nested = spelling.startswith("series(series(")  # its text does not parse back
        for x in representation_draws(ring):
            built = [x + ring.zero, (x + ring.one) - 1, -(-x), x * ring.one]
            if not nested:
                built.append(ring.parse(repr(x)))
                data = {"ring": spelling, "shape": "M2", "rows": [[repr(x), "0"], ["0", "1"]]}
                built.append(matrix_from_json(data).rows[0][0])
            for y in built:
                assert y == x and hash(y) == hash(x)
        assert ring.one == 1 and 1 == ring.one and ring.zero == 0 and ring.zero != 1

    def test_integral_zloc_coefficients_are_stored_as_ints(self):
        ring = parse_ring("series(Zloc2,4)")
        y = ring.parse("1/3*x") * 3
        assert [type(c) for c in y.raw] == [int] * 4
        assert y == ring.parse("x") and hash(y) == hash(ring.parse("x"))
        assert y.payload[1].payload == Fraction(1)
        assert type(ring.parse("1/3*x").raw[1]) is Fraction
