"""Quasipolar and rad-clean decompositions for the structured 3x3 shapes.

Over a uniquely bleached commutative local ring, every T3 matrix

    A = [a11 0 0; a21 a22 a23; 0 0 a33]

is quasipolar, and the spectral idempotent can be written down case by
case from the unit/radical pattern of the diagonal.  E carries 1 on the
diagonal exactly where A's diagonal entry is radical, plus off-diagonal
entries at (2,1) and (2,3) where the pattern changes, determined by the
commutation equations

    a22*e21 - e21*a11 = (d2 - d1)*a21
    a22*e23 - e23*a33 = (d2 - d3)*a23

with d_i the 0/1 diagonal of E.  Each equation only arises when its two
diagonal entries straddle the unit/radical split, so the solver's pivot
is a unit.  The eight patterns, in a fixed order:

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
when a_ii is radical).  T2 is handled through its corner embedding in
T3, and the remaining 3x3 shapes transport through the isomorphisms in
:mod:`qpolar.matrices`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutant import solve_commutant
from .m2 import quasipolar_witness_m2
from .matrices import (
    ISO_LOW3_TO_T3,
    ISO_T3_TO_LOW3,
    ISO_UP3_TO_T3,
    L3,
    LOW3,
    M2,
    S1,
    S2,
    SPLIT_L3,
    SPLIT_S1,
    SPLIT_S2,
    T2,
    T3,
    UP3,
    ShapedMatrix,
    UnsupportedShape,
    corner_embed_t2,
    corner_extract_t2,
    corner_projector,
)
from .rings import RingElement, TruncatedSeriesRing
from .series import quasipolar_witness_m2_series
from .witnesses import (
    Comm2Evidence,
    QuasipolarWitness,
    RadCleanWitness,
    WitnessInvalid,
    build_quasipolar,
    require_valid,
)

_CASE_OF_PATTERN = {
    ("J", "J", "J"): 1,
    ("U", "U", "U"): 2,
    ("U", "J", "J"): 3,
    ("J", "U", "J"): 4,
    ("J", "J", "U"): 5,
    ("J", "U", "U"): 6,
    ("U", "J", "U"): 7,
    ("U", "U", "J"): 8,
}


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


def classify_case(a: ShapedMatrix) -> CaseTag:
    """The unit/radical pattern of a T3 diagonal, numbered 1 through 8."""
    _require_shape(a, T3)
    pattern = tuple("J" if d.in_jacobson() else "U" for d in a.diagonal())
    return CaseTag(_CASE_OF_PATTERN[pattern], pattern)


def spectral_idempotent_t3(a: ShapedMatrix) -> ShapedMatrix:
    """The case-table idempotent E for a T3 matrix.

    Postconditions are re-checked on the way out: E*E = E, E*A = A*E,
    A - E a unit of T3, and A*E in the radical of T3; a failure raises
    WitnessInvalid.
    """
    _require_shape(a, T3)
    ring = a.ring
    zero, one = ring.zero, ring.one
    d = [1 if x.in_jacobson() else 0 for x in a.diagonal()]
    a11, a22, a33 = a.diagonal()
    a21, a23 = a.rows[1][0], a.rows[1][2]

    e21 = zero
    if d[0] != d[1]:
        rhs = a21 if d[1] > d[0] else -a21
        e21 = solve_commutant(a22, a11, rhs)
    e23 = zero
    if d[1] != d[2]:
        rhs = a23 if d[1] > d[2] else -a23
        e23 = solve_commutant(a22, a33, rhs)

    dd = [one if x else zero for x in d]
    e = ShapedMatrix(
        ring,
        T3,
        (
            (dd[0], zero, zero),
            (e21, dd[1], e23),
            (zero, zero, dd[2]),
        ),
    )
    if e * e != e:
        raise WitnessInvalid(f"case-table E is not idempotent for {a!r}")
    if e * a != a * e:
        raise WitnessInvalid(f"case-table E does not commute with {a!r}")
    if not (a - e).is_unit():
        raise WitnessInvalid(f"A - E is not a unit for {a!r}")
    if not (a * e).in_jacobson():
        raise WitnessInvalid(f"A*E is not radical for {a!r}")
    return e


def quasipolar_witness_t3(a: ShapedMatrix, view=None) -> QuasipolarWitness:
    """Quasipolar decomposition of a T3 matrix via the case table.

    Passing a finite oracle view upgrades the double-commutant evidence
    to an exhaustive check over every element commuting with A.
    """
    p = spectral_idempotent_t3(a)
    return _finish_witness(a, p, view)


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


def quasipolar_witness_t2(a: ShapedMatrix, view=None) -> QuasipolarWitness:
    """Quasipolar decomposition of an upper triangular 2x2 matrix.

    T2 sits inside T3 as the diag(1,1,0) corner, so the matrix is pushed
    through the embedding, decomposed there, and the idempotent is cut
    back out of the corner.
    """
    return _finish_witness(a, _t2_idempotent(a), view)


def _t2_idempotent(a: ShapedMatrix) -> ShapedMatrix:
    _require_shape(a, T2)
    proj = corner_projector(a.ring)
    return corner_extract_t2(proj * spectral_idempotent_t3(corner_embed_t2(a)) * proj)


def scalar_quasipolar(x: RingElement):
    """(p, u, q) for a single local-ring element: p is 0 for units, 1 otherwise."""
    ring = x.ring
    if x.is_unit():
        return ring.zero, x, ring.zero
    return ring.one, x + ring.one, x


_SPLITS = {L3: SPLIT_L3, S1: SPLIT_S1, S2: SPLIT_S2}


def quasipolar_witness_shape(a: ShapedMatrix, view=None) -> QuasipolarWitness:
    """Quasipolar decomposition for any shape with a constructive engine.

    This is the one dispatch from a matrix's ring and shape to its
    engine.  T3 and T2 go straight to the case table; M2 goes to the
    trace/determinant trichotomy, gated on the constant term over a
    series ring.  L3, S1 and S2 split as T2 x R; LOW3 and UP3 relabel
    onto T3 (UP3 via the product-reversing map, which transports
    witnesses all the same because p commutes with A).  Raises NotQuasipolarError for an
    obstructed M2 matrix.
    """
    shape = a.shape
    if shape == T3:
        return quasipolar_witness_t3(a, view=view)
    if shape == T2:
        return quasipolar_witness_t2(a, view=view)
    if shape == M2:
        if isinstance(a.ring, TruncatedSeriesRing):
            return quasipolar_witness_m2_series(a, view=view)
        return quasipolar_witness_m2(a, view=view)
    if shape in _SPLITS:
        split = _SPLITS[shape]
        t2_part, scalar_part = split.apply(a)
        p = split.build_source(_t2_idempotent(t2_part), scalar_quasipolar(scalar_part)[0])
    elif shape == LOW3:
        b = ISO_LOW3_TO_T3.apply(a)
        p = ISO_T3_TO_LOW3.apply(spectral_idempotent_t3(b))
    elif shape == UP3:
        b = ISO_UP3_TO_T3.apply(a)
        p = ISO_UP3_TO_T3.inverse().apply(spectral_idempotent_t3(b))
    else:
        raise UnsupportedShape(
            f"no constructive decomposition for shape {shape.name}; "
            "supported: T2, T3, L3, LOW3, UP3, S1, S2, M2"
        )
    return _finish_witness(a, p, view)


def _finish_witness(a: ShapedMatrix, p: ShapedMatrix, view) -> QuasipolarWitness:
    evidence = Comm2Evidence.CASE_CONSTRUCTION if view is None else Comm2Evidence.FINITE_EXHAUSTIVE
    return build_quasipolar(a, p, evidence, view)
