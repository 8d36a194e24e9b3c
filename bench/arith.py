"""Exact arithmetic on raw payloads, independent of the program under test.

The benchmark uses these small models twice: to build inputs whose
class is known before the program sees them, and to re-check every
witness the program prints.  Payloads match the program's: an int
residue for ``F<p>`` and ``Z<p>^<k>``, a ``Fraction`` for ``Zloc<p>``,
and a tuple of base payloads, constant term first, for
``series(<ring>,<m>)``.  Matrices are full n x n lists of rows.
"""

from __future__ import annotations

from fractions import Fraction


class ModRing:
    """Z/p^k (k = 1 spells the field F<p>)."""

    def __init__(self, p: int, k: int):
        self.p, self.m = p, p**k
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inverse(self, a):
        return pow(a, -1, self.m)

    def rand_unit(self, rng):
        while True:
            x = rng.randrange(self.m)
            if x % self.p:
                return x

    def rand_radical(self, rng):
        return self.p * rng.randrange(self.m // self.p)

    def rand_any(self, rng):
        return rng.randrange(self.m)

    def fmt(self, a) -> str:
        return str(a)


class ZlocRing:
    """Z localized at p: fractions whose denominator is prime to p.

    A ``small`` model draws only units +-1, radicals 0 and +-p and
    entries in [-2, 2], all integers.  Series over Zloc<p> use it: exact
    rational coefficients grow with every product, and drawing from the
    full range makes the cost of one request swing fourfold with the
    seed.
    """

    def __init__(self, p: int, small: bool = False):
        self.p, self.small = p, small
        self.zero, self.one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_unit(self, a) -> bool:
        return a.numerator % self.p != 0

    def inverse(self, a):
        return 1 / a

    def _den(self, rng) -> int:
        if self.small:
            return 1
        while True:
            d = rng.randint(1, 9)
            if d % self.p:
                return d

    def rand_unit(self, rng):
        if self.small:
            return Fraction(rng.choice((-1, 1)))
        while True:
            n = rng.randint(-9, 9)
            if n % self.p:
                return Fraction(n, self._den(rng))

    def rand_radical(self, rng):
        return Fraction(self.p * rng.randint(-1, 1) if self.small else self.p * rng.randint(-4, 4), self._den(rng))

    def rand_any(self, rng):
        return Fraction(rng.randint(-2, 2) if self.small else rng.randint(-9, 9), self._den(rng))

    def fmt(self, a) -> str:
        return str(a)


class SeriesRing:
    """base[[x]]/(x^m) with truncated convolution."""

    def __init__(self, base, precision: int):
        self.base, self.precision = base, precision
        self.zero = (base.zero,) * precision
        self.one = (base.one,) + (base.zero,) * (precision - 1)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        base, m = self.base, self.precision
        out = [base.zero] * m
        for i, ai in enumerate(a):
            if ai == base.zero:
                continue
            for j in range(m - i):
                out[i + j] = base.add(out[i + j], base.mul(ai, b[j]))
        return tuple(out)

    def is_unit(self, a) -> bool:
        return self.base.is_unit(a[0])


def parse_ring(spelling: str, small: bool = False):
    """The model for a ring spelling this benchmark sends."""
    s = spelling.strip()
    if s.startswith("series(") and s.endswith(")"):
        inner, _, m = s[len("series(") : -1].rpartition(",")
        return SeriesRing(parse_ring(inner, small=True), int(m))
    if s.startswith("Zloc"):
        return ZlocRing(int(s[4:]), small)
    if s.startswith("Z"):
        p, k = s[1:].split("^")
        return ModRing(int(p), int(k))
    if s.startswith("F"):
        return ModRing(int(s[1:]), 1)
    raise ValueError(f"no model for ring {spelling!r}")


def mat_mul(ring, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = ring.add(acc, ring.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_add(ring, a, b):
    return [[ring.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(ring, a, b):
    return [[ring.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(ring, n: int):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def zeros(ring, n: int):
    return [[ring.zero] * n for _ in range(n)]


def det2(ring, a):
    return ring.sub(ring.mul(a[0][0], a[1][1]), ring.mul(a[0][1], a[1][0]))


def trace(ring, a):
    acc = ring.zero
    for i in range(len(a)):
        acc = ring.add(acc, a[i][i])
    return acc


def is_unit_matrix(ring, a, full: bool) -> bool:
    """Units of the shape ring: det2 for the full 2x2 ring, else the diagonal.

    Every sparse shape sent here is triangular after relabelling, so a
    matrix in it is a unit exactly when its diagonal entries are.
    """
    if full:
        return ring.is_unit(det2(ring, a))
    return all(ring.is_unit(a[i][i]) for i in range(len(a)))
