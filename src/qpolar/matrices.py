"""Sparse square matrices over a local ring, constrained to fixed shapes.

A shape is a set of positions closed under matrix multiplication; the
matrices supported on it form a subring of the full matrix ring.  The
built-in shapes (1-indexed position sets, rows by semicolons):

=====  ====================================  ======================
name   mask                                  picture
=====  ====================================  ======================
T2     (1,1) (1,2) (2,2)                     [a b; 0 c]
T3     (1,1) (2,1) (2,2) (2,3) (3,3)         [a 0 0; b c d; 0 0 e]
L3     (1,1) (2,2) (3,1) (3,3)               [a 0 0; 0 b 0; c 0 d]
LOW3   (1,1) (2,2) (3,1) (3,2) (3,3)         [a 0 0; 0 b 0; c d e]
UP3    (1,1) (1,3) (2,2) (2,3) (3,3)         [a 0 b; 0 c d; 0 0 e]
S1     (1,1) (1,3) (2,2) (3,3)               [a 0 b; 0 c 0; 0 0 d]
S2     (1,1) (2,2) (3,2) (3,3)               [a 0 0; 0 b 0; 0 c d]
M2     full 2x2                              --
M3     full 3x3                              --
TN(n)  upper triangular n x n                --
=====  ====================================  ======================

The mask decides the unit and radical tests.  On a triangular mask (no
(i,j) and (j,i) with i != j) a matrix is a unit, respectively radical,
exactly when its diagonal entries are; on the full 2x2 mask the tests
are det(A) a unit, respectively all entries radical.  Any other mask,
M3 among them, exists for input/output and negative results only.

Products, sums and differences go through the ring's ``raw``/``cook``
hooks (see :mod:`qpolar.rings`): each entry is unwrapped once and each
result entry is cooked once.  A product sums raw values over the
shape's product terms and puts the ring's zero off the mask; sums and
differences combine every entry.  Shapes compare by value, never by
name.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .rings import (
    LocalRing,
    QpolarError,
    RingElement,
    RingMismatch,
    parse_ring,
)


class ShapeMismatch(QpolarError):
    """A matrix value does not fit the requested shape."""


class UnsupportedShape(QpolarError):
    """The operation is not defined for this shape."""


class MatrixParseError(QpolarError):
    """A matrix literal could not be parsed."""


@dataclass(frozen=True)
class Shape:
    """A multiplication-closed set of positions in an n x n grid."""

    name: str
    n: int
    mask: frozenset

    def __post_init__(self):
        for i in range(self.n):
            if (i, i) not in self.mask:
                raise ShapeMismatch(f"shape {self.name} is missing diagonal ({i},{i})")

    @property
    def positions(self):
        return sorted(self.mask)

    def closed_under_product(self) -> bool:
        for (i, k1) in self.mask:
            for (k2, j) in self.mask:
                if k1 == k2 and (i, j) not in self.mask:
                    return False
        return True

    def product_terms(self):
        # For each mask position (i,j), the k's contributing a[i][k]*b[k][j].
        terms = {}
        for (i, j) in self.positions:
            terms[(i, j)] = [
                k for k in range(self.n) if (i, k) in self.mask and (k, j) in self.mask
            ]
        return terms

    @cached_property
    def diagonal_rule(self) -> bool:
        """Whether the unit and radical tests read the diagonal (module docstring)."""
        mask = self.mask
        if all((j, i) not in mask for (i, j) in mask if i != j):
            return True
        if self.n == 2 and len(mask) == 4:
            return False
        raise UnsupportedShape(f"no unit or radical test for shape {self.name}")

    def __repr__(self):
        return f"Shape({self.name})"


def _mask(pairs):
    return frozenset((i - 1, j - 1) for i, j in pairs)


T2 = Shape("T2", 2, _mask([(1, 1), (1, 2), (2, 2)]))
T3 = Shape("T3", 3, _mask([(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)]))
L3 = Shape("L3", 3, _mask([(1, 1), (2, 2), (3, 1), (3, 3)]))
LOW3 = Shape("LOW3", 3, _mask([(1, 1), (2, 2), (3, 1), (3, 2), (3, 3)]))
UP3 = Shape("UP3", 3, _mask([(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]))
S1 = Shape("S1", 3, _mask([(1, 1), (1, 3), (2, 2), (3, 3)]))
S2 = Shape("S2", 3, _mask([(1, 1), (2, 2), (3, 2), (3, 3)]))
M2 = Shape("M2", 2, frozenset((i, j) for i in range(2) for j in range(2)))
M3 = Shape("M3", 3, frozenset((i, j) for i in range(3) for j in range(3)))


def TN(n: int) -> Shape:
    """Upper triangular n x n."""
    if n == 2:
        return T2
    return Shape(f"TN{n}", n, frozenset((i, j) for i in range(n) for j in range(i, n)))


SHAPES = {s.name: s for s in (T2, T3, L3, LOW3, UP3, S1, S2, M2, M3)}


# The largest n in TN<n>: n(n+1)/2 positions and about n^3/6 product
# terms are built before any check runs (compare MAX_SERIES_PRECISION).
MAX_TN_SIZE = 64


def parse_shape(name: str) -> Shape:
    key = name.strip().upper()
    if key in SHAPES:
        return SHAPES[key]
    size = key[2:]
    if key.startswith("TN") and size.isascii() and size.isdigit():
        # int() refuses over 4,300 digits, so only a short size reaches it.
        digits = size.lstrip("0")
        n = int(digits or 0) if len(digits) <= 4 else 0
        if not 1 <= n <= MAX_TN_SIZE:
            raise MatrixParseError(f"TN size in {name!r} is outside 1..{MAX_TN_SIZE}")
        return TN(n)
    raise MatrixParseError(f"unknown shape {name!r}")


_TERMS_CACHE: dict = {}


def _terms_for(shape: Shape):
    """Per mask position, (slot, p, q, rest) over row-major flat indices.

    The product's entry at slot i*n + j sums x[p]*y[q] over its first
    term and every pair in ``rest``, with (p, q) = (i*n + k, k*n + j).
    Every mask position has a term (k = i), so no sum starts from zero.
    Cached by shape value: two shapes may share a name.
    """
    got = _TERMS_CACHE.get(shape)
    if got is None:
        n = shape.n
        got = []
        for (i, j), ks in shape.product_terms().items():
            (p, q), *rest = [(i * n + k, k * n + j) for k in ks]
            got.append((i * n + j, p, q, tuple(rest)))
        got = _TERMS_CACHE[shape] = tuple(got)
    return got


class ShapedMatrix:
    """An immutable matrix over a local ring, supported on a shape."""

    __slots__ = ("ring", "shape", "rows")

    def __init__(self, ring: LocalRing, shape: Shape, rows):
        self.ring = ring
        self.shape = shape
        self.rows = rows  # tuple of tuples of RingElement, full n x n

    @classmethod
    def from_rows(cls, ring: LocalRing, shape: Shape, rows) -> ShapedMatrix:
        n = shape.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ShapeMismatch(f"expected a {n}x{n} grid for shape {shape.name}")
        zero = ring.zero
        grid = []
        for i in range(n):
            out = []
            for j in range(n):
                v = rows[i][j]
                e = ring.parse(v) if isinstance(v, str) else ring.element(v)
                if (i, j) not in shape.mask and e != zero:
                    raise ShapeMismatch(
                        f"entry ({i + 1},{j + 1}) must be zero in shape {shape.name}"
                    )
                out.append(e)
            grid.append(tuple(out))
        return cls(ring, shape, tuple(grid))

    @classmethod
    def zero(cls, ring: LocalRing, shape: Shape) -> ShapedMatrix:
        z = ring.zero
        return cls(ring, shape, tuple(tuple(z for _ in range(shape.n)) for _ in range(shape.n)))

    @classmethod
    def identity(cls, ring: LocalRing, shape: Shape) -> ShapedMatrix:
        n, z, o = shape.n, ring.zero, ring.one
        return cls(ring, shape, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def diagonal(self):
        return tuple(self.rows[i][i] for i in range(self.shape.n))

    def _check_peer(self, other):
        if not isinstance(other, ShapedMatrix):
            raise TypeError(f"expected a ShapedMatrix, got {other!r}")
        if not (other.ring is self.ring or other.ring == self.ring):
            raise RingMismatch("matrices over different rings")
        if not (other.shape is self.shape or other.shape == self.shape):
            raise ShapeMismatch(
                f"cannot combine shapes {self.shape.name} and {other.shape.name}"
            )

    def _flat_raw(self):
        raw = self.ring.raw
        return [raw(x) for row in self.rows for x in row]

    def _from_flat(self, out) -> ShapedMatrix:
        # zip over n copies of one iterator regroups the flat list into rows.
        return ShapedMatrix(self.ring, self.shape, tuple(zip(*[iter(out)] * self.shape.n)))

    def _entrywise(self, other, op) -> ShapedMatrix:
        self._check_peer(other)
        cook = self.ring.cook
        return self._from_flat(
            [cook(op(x, y)) for x, y in zip(self._flat_raw(), other._flat_raw())]
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        cook = self.ring.cook
        return self._from_flat([cook(-x) for x in self._flat_raw()])

    def __mul__(self, other):
        self._check_peer(other)
        ring = self.ring
        cook = ring.cook
        xs, ys = self._flat_raw(), other._flat_raw()
        out = [ring.zero] * len(xs)
        for slot, p, q, rest in _terms_for(self.shape):
            acc = xs[p] * ys[q]
            for p, q in rest:
                acc = acc + xs[p] * ys[q]
            out[slot] = cook(acc)
        return self._from_flat(out)

    def scale(self, c: RingElement) -> ShapedMatrix:
        """Multiply every entry by the scalar c (the base ring is commutative)."""
        return ShapedMatrix(
            self.ring, self.shape, tuple(tuple(c * a for a in r) for r in self.rows)
        )

    def __eq__(self, other):
        return (
            isinstance(other, ShapedMatrix)
            and (other.ring is self.ring or other.ring == self.ring)
            and (other.shape is self.shape or other.shape == self.shape)
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.ring, self.shape, self.rows))

    def is_unit(self) -> bool:
        """Invertibility inside the shape ring."""
        if self.shape.diagonal_rule:
            return all(d.is_unit() for d in self.diagonal())
        return self.det2().is_unit()

    def in_jacobson(self) -> bool:
        """Membership in the radical of the shape ring."""
        if self.shape.diagonal_rule:
            return all(d.in_jacobson() for d in self.diagonal())
        return all(a.in_jacobson() for row in self.rows for a in row)

    def det2(self) -> RingElement:
        if self.shape.n != 2:
            raise UnsupportedShape("det2 needs a 2x2 shape")
        r = self.rows
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]

    def trace(self) -> RingElement:
        t = self.ring.zero
        for d in self.diagonal():
            t = t + d
        return t

    def __repr__(self):
        return "[" + "; ".join(
            ", ".join(repr(a) for a in row) for row in self.rows
        ) + "]"

    def to_json(self) -> dict:
        return {
            "ring": repr(self.ring),
            "shape": self.shape.name,
            "rows": [[repr(a) for a in row] for row in self.rows],
        }


def matrix_from_json(data: dict) -> ShapedMatrix:
    ring = parse_ring(data["ring"])
    shape = parse_shape(data["shape"])
    return ShapedMatrix.from_rows(ring, shape, data["rows"])


def parse_matrix(ring: LocalRing, shape: Shape, text: str) -> ShapedMatrix:
    """Parse ``[1,0,0; 1,2,0; 0,0,2]`` (brackets optional) over the ring."""
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise MatrixParseError(f"unbalanced brackets in {text!r}")
        s = s[1:-1]
    rows = [r for r in s.split(";")]
    if len(rows) != shape.n:
        raise MatrixParseError(
            f"expected {shape.n} rows for shape {shape.name}, got {len(rows)}"
        )
    grid = []
    for i, row in enumerate(rows):
        entries = [e.strip() for e in row.split(",")]
        if len(entries) != shape.n:
            raise MatrixParseError(
                f"row {i + 1} has {len(entries)} entries, expected {shape.n}"
            )
        grid.append(entries)
    try:
        return ShapedMatrix.from_rows(ring, shape, grid)
    except QpolarError as exc:
        raise MatrixParseError(f"bad matrix literal: {exc}") from None


@dataclass
class QuadraticCharPoly:
    """t^2 - tr*t + det for a 2x2 matrix."""

    tr: RingElement
    det: RingElement

    def evaluate(self, t: RingElement) -> RingElement:
        return t * t - self.tr * t + self.det

    def __str__(self):
        out = "t^2"
        if self.tr:
            ts = repr(self.tr)
            out += f" - {ts}*t" if ts != "1" else " - t"
        if self.det:
            out += f" + {self.det!r}"
        return out


def char_poly_2x2(a: ShapedMatrix) -> QuadraticCharPoly:
    """Trace and determinant of a 2x2 shaped matrix, as a monic quadratic."""
    if a.shape.n != 2:
        raise UnsupportedShape("char_poly_2x2 needs a 2x2 shape")
    return QuadraticCharPoly(a.trace(), a.det2())
