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

A shape ring is a structural matrix ring (van Wyk, "Special radicals in
structural matrix rings", Comm. Algebra 16, 1988), so one rule reads its
units and radical off the mask.  The symmetric positions, (i,j) with
(j,i) also on the mask, group the indices into blocks: A is a unit
exactly when each diagonal block of A is, and radical exactly when every
entry at a symmetric position is.  A triangular mask has one-index
blocks, so its diagonal decides; the full 2x2 mask is one block.  M3 has
both tests but no engine (see :mod:`qpolar.triangular`).

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
from functools import cache, cached_property

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
    """A multiplication-closed set of positions in an n x n grid; caches what its mask implies."""

    name: str
    n: int
    mask: frozenset

    def __post_init__(self):
        for i in range(self.n):
            if (i, i) not in self.mask:
                raise ShapeMismatch(f"shape {self.name} is missing diagonal ({i},{i})")
        if not self.closed_under_product():
            raise ShapeMismatch(f"shape {self.name} is not closed under products")

    def closed_under_product(self) -> bool:
        # (i,k) and (k,j) on the mask put (i,j) on it: row k's columns lie in row i's.
        rows = [set() for _ in range(self.n)]
        for (i, j) in self.mask:
            rows[i].add(j)
        return all(rows[k] <= rows[i] for (i, k) in self.mask)

    @cached_property
    def positions(self) -> tuple:
        return tuple(sorted(self.mask))

    def product_terms(self):
        # For each mask position (i,j), the k's contributing a[i][k]*b[k][j].
        mask = self.mask
        return {(i, j): [k for k in range(self.n) if (i, k) in mask and (k, j) in mask]
                for (i, j) in self.positions}

    @cached_property
    def flat_terms(self) -> tuple:
        """Per mask position, (slot, p, q, rest): entry i*n + j of a product sums
        x[p]*y[q] over its first term, which k = i always gives, and each pair
        in ``rest``, with (p, q) = (i*n + k, k*n + j) over row-major indices."""
        n, got = self.n, []
        for (i, j), ks in self.product_terms().items():
            (p, q), *rest = [(i * n + k, k * n + j) for k in ks]
            got.append((i * n + j, p, q, tuple(rest)))
        return tuple(got)

    @cached_property
    def has_no_middles(self) -> bool:
        """No mask position (i,j) has a product term k other than i and j."""
        return all(set(ks) <= {i, j} for (i, j), ks in self.product_terms().items())

    @cached_property
    def symmetric(self) -> tuple:
        """The positions (i,j) whose mirror (j,i) is on the mask, sorted."""
        return tuple((i, j) for (i, j) in self.positions if (j, i) in self.mask)

    @cached_property
    def blocks(self) -> tuple:
        """The classes of ``symmetric``, an equivalence since the mask is closed."""
        return tuple(sorted({tuple(j for (i, j) in self.symmetric if i == k) for k in range(self.n)}))

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


@cache
def TN(n: int) -> Shape:
    """Upper triangular n x n, one shape object per n."""
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
        for slot, p, q, rest in self.shape.flat_terms:
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
        """Invertibility inside the shape ring: each diagonal block's det is a
        unit.  Unit-pivot elimination, no division: row r becomes piv[0]*r -
        r[0]*piv (det times a unit), and a column with no unit pivot has radical det."""
        rows = self.rows
        for block in self.shape.blocks:
            m = [[rows[i][j] for j in block] for i in block]
            while m:
                for k, piv in enumerate(m):
                    if piv[0].is_unit():
                        break
                else:
                    return False
                del m[k]
                m = [[piv[0] * x - r[0] * y for x, y in zip(r[1:], piv[1:])] for r in m]
        return True

    def in_jacobson(self) -> bool:
        """Radical in the shape ring: every entry at a symmetric position is."""
        rows = self.rows
        return all(rows[i][j].in_jacobson() for i, j in self.shape.symmetric)

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
