import random
from fractions import Fraction

import pytest

from qpolar import (
    IntegersMod,
    LocalizedIntegers,
    PrimeField,
    ShapedMatrix,
    TruncatedSeriesRing,
)
from qpolar.rings import RingElement


@pytest.fixture(scope="session")
def f2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def f3():
    return PrimeField(3)


@pytest.fixture(scope="session")
def z4():
    return IntegersMod(2, 2)


@pytest.fixture(scope="session")
def z8():
    return IntegersMod(2, 3)


@pytest.fixture(scope="session")
def zloc2():
    return LocalizedIntegers(2)


def random_matrix(rng: random.Random, ring, shape) -> ShapedMatrix:
    """Uniform random matrix of the given shape over a finite ring."""
    pool = list(ring.elements())
    rows = [[ring.zero] * shape.n for _ in range(shape.n)]
    for i, j in shape.positions:
        rows[i][j] = pool[rng.randrange(len(pool))]
    return ShapedMatrix.from_rows(ring, shape, rows)


def random_element(rng, ring, integral=False):
    """About a third of the coefficients zero, so the zero skips run too.

    Zloc values are integers when ``integral`` is set and fractions, an
    integer about one time in six, otherwise.
    """
    if isinstance(ring, TruncatedSeriesRing):
        coeffs = [
            ring.base.zero if rng.random() < 0.3 else random_element(rng, ring.base, integral)
            for _ in range(ring.precision)
        ]
        return ring.element(coeffs)
    if isinstance(ring, LocalizedIntegers):
        den = 1 if integral else rng.choice([1, 3, 5, 7, 9, 15])
        return ring.element(Fraction(rng.randint(-40, 40), den))
    return ring.element(rng.randrange(ring.cardinality()))


def assert_canonical(x):
    """x.raw is normal and matches the payload bench/verify.py reads: a
    residue in [0, modulus), always a Fraction for Zloc (raw is an int
    exactly when integral), a tuple of base elements for a series."""
    ring = x.ring
    assert x.raw == ring.normal(x.raw)
    if isinstance(ring, TruncatedSeriesRing):
        assert type(x.payload) is tuple and len(x.payload) == ring.precision
        assert tuple(c.raw for c in x.payload) == x.raw
        for c in x.payload:
            assert type(c) is RingElement and c.ring is ring.base
            assert_canonical(c)
    elif isinstance(ring, LocalizedIntegers):
        assert type(x.payload) is Fraction and x.payload == x.raw
        assert type(x.raw) is (int if x.payload.denominator == 1 else Fraction)
    else:
        assert type(x.payload) is int and 0 <= x.payload < ring.modulus
        assert x.payload == x.raw
