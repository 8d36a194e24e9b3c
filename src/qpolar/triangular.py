"""Quasipolar and rad-clean decompositions for the structured 3x3 shapes.

Over a uniquely bleached commutative local ring, every matrix A on a
triangular-type mask is quasipolar, and its spectral idempotent E is
fixed by the unit/radical pattern of A's diagonal.  With d_i = 1 when
a_ii is radical and 0 when it is a unit, E has diagonal d and, at each
off-diagonal mask position (i,j), the solution of the commutation
equation

    a_ii*e_ij - e_ij*a_jj = (d_i - d_j)*a_ij

so e_ij = 0 when d_i = d_j, and otherwise e_ij = (a_ii - a_jj)^-1 * ±a_ij
with a unit pivot, since a_ii and a_jj straddle the unit/radical split.
This one formula is exact, and the engine serves a mask, when no
position (i,j) has a middle index k other than i and j with (i,k) and
(k,j) on the mask, so (E*A - A*E)_ij and (E*E - E)_ij involve only i
and j.  Such a mask is triangular (j would be a middle of (i,i)): T2,
T3, L3, LOW3, UP3, S1, S2, TN1 and any diagonal mask.  TN(n) for n >= 3
has middles and has no engine here.

For T3 = [a11 0 0; a21 a22 a23; 0 0 a33] the formula gives eight
patterns, numbered in a fixed order:

    case  (a11,a22,a33)   E
    1     (J, J, J)       identity
    2     (U, U, U)       zero
    3     (U, J, J)       [0 0 0; e21 1 0; 0 0 1]
    4     (J, U, J)       [1 0 0; e21 0 e23; 0 0 1]
    5     (J, J, U)       [1 0 0; 0 1 e23; 0 0 0]
    6     (J, U, U)       [1 0 0; e21 0 0; 0 0 0]
    7     (U, J, U)       [0 0 0; e21 1 e23; 0 0 0]
    8     (U, U, J)       [0 0 0; 0 0 e23; 0 0 1]

The same E is simultaneously a rad-clean idempotent (A - E is a unit and
E*A*E is radical in the corner) and the quasipolar idempotent of A
itself (A + E is a unit too, since both a_ii + 1 and a_ii - 1 are units
when a_ii is radical).  The witnesses check every identity they claim;
the engines never consult the oracle, and sweeps.oracle_recheck is
where a finite carrier's enumeration rechecks comm^2 membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutant import solve_commutant
from .m2 import quasipolar_witness_m2
from .matrices import M2, T2, T3, ShapedMatrix, UnsupportedShape
from .rings import RingElement, TruncatedSeriesRing
from .series import quasipolar_witness_m2_series
from .witnesses import QuasipolarWitness, RadCleanWitness, build_quasipolar, require_valid

_CASE_PATTERNS = ("JJJ", "UUU", "UJJ", "JUJ", "JJU", "JUU", "UJU", "UUJ")


@dataclass(frozen=True)
class CaseTag:
    """Which of the eight diagonal patterns a T3 matrix falls in."""

    case: int
    pattern: tuple

    def __str__(self):
        return f"case {self.case} ({','.join(self.pattern)})"


def _require_shape(a: ShapedMatrix, shape) -> None:
    if not (a.shape is shape or a.shape == shape):
        raise UnsupportedShape(f"expected shape {shape.name}, got {a.shape.name}")


def diagonal_pattern(a: ShapedMatrix) -> tuple:
    """A's diagonal read as "J" for each radical entry and "U" for each unit."""
    return tuple("J" if d.in_jacobson() else "U" for d in a.diagonal())


def classify_case(a: ShapedMatrix) -> CaseTag:
    """The unit/radical pattern of a T3 diagonal, numbered 1 through 8."""
    _require_shape(a, T3)
    pattern = diagonal_pattern(a)
    return CaseTag(_CASE_PATTERNS.index("".join(pattern)) + 1, pattern)


def _spectral_idempotent(a: ShapedMatrix) -> ShapedMatrix:
    """E from A's diagonal pattern, one mask position at a time (see above)."""
    ring, n, rows = a.ring, a.shape.n, a.rows
    zero = ring.zero
    d = [rows[i][i].in_jacobson() for i in range(n)]
    grid = [[zero] * n for _ in range(n)]
    for (i, j) in a.shape.mask:
        if i == j:
            grid[i][i] = ring.one if d[i] else zero
        elif d[i] != d[j]:
            grid[i][j] = solve_commutant(rows[i][i], rows[j][j], rows[i][j] if d[i] else -rows[i][j])
    return ShapedMatrix(ring, a.shape, tuple(map(tuple, grid)))


def spectral_idempotent_t3(a: ShapedMatrix) -> ShapedMatrix:
    """The idempotent E of a T3 matrix, as tabulated by case above."""
    _require_shape(a, T3)
    return _spectral_idempotent(a)


def quasipolar_witness_t3(a: ShapedMatrix) -> QuasipolarWitness:
    """Quasipolar decomposition of a T3 matrix."""
    return build_quasipolar(a, spectral_idempotent_t3(a))


def rad_clean_witness_t3(a: ShapedMatrix, e: ShapedMatrix | None = None) -> RadCleanWitness:
    """Strongly rad-clean decomposition of a T3 matrix: same E, v = A - E.

    Pass the idempotent of A's quasipolar witness as e to reuse it
    rather than build it again.
    """
    if e is None:
        e = spectral_idempotent_t3(a)
    w = RadCleanWitness(a=a, e=e, v=a - e, corner_j=e * a * e)
    require_valid(w)
    return w


def quasipolar_witness_t2(a: ShapedMatrix) -> QuasipolarWitness:
    """Quasipolar decomposition of an upper triangular 2x2 matrix."""
    _require_shape(a, T2)
    return build_quasipolar(a, _spectral_idempotent(a))


def scalar_quasipolar(x: RingElement):
    """(p, u, q) for a single local-ring element: p is 0 for units, 1 otherwise."""
    ring = x.ring
    if x.is_unit():
        return ring.zero, x, ring.zero
    return ring.one, x + ring.one, x


def quasipolar_witness_shape(a: ShapedMatrix) -> QuasipolarWitness:
    """Quasipolar decomposition for any shape with a constructive engine.

    This is the one dispatch from a matrix's ring and shape to its
    engine.  M2 goes to the trace/determinant trichotomy, gated on the
    constant term over a series ring; every mask without middle indices
    (see above) takes the diagonal-pattern idempotent, T2 and T3 through
    their own entry points.  Raises NotQuasipolarError for an obstructed
    M2 matrix.
    """
    shape = a.shape
    if shape == T3:
        return quasipolar_witness_t3(a)
    if shape == T2:
        return quasipolar_witness_t2(a)
    if shape == M2:
        if isinstance(a.ring, TruncatedSeriesRing):
            return quasipolar_witness_m2_series(a)
        return quasipolar_witness_m2(a)
    require_engine(shape)
    return build_quasipolar(a, _spectral_idempotent(a))


def require_engine(shape) -> None:
    """Raise UnsupportedShape unless quasipolar_witness_shape serves shape."""
    if shape != M2 and not shape.has_no_middles:
        raise UnsupportedShape(f"no constructive decomposition for shape {shape.name}; "
                               "supported: T2, T3, L3, LOW3, UP3, S1, S2, TN1, M2")
