"""Quasipolar classification of full 2x2 matrices over a local ring.

For A in M2(R) with R commutative local, quasipolarity is decided by
where the trace and determinant sit:

  * det(A) a unit: A is invertible, spectral idempotent 0.
  * det(A) and tr(A) both radical: A is quasinilpotent, idempotent 1.
  * det(A) radical, tr(A) a unit: A is quasipolar exactly when the
    characteristic polynomial t^2 - tr*t + det has a root alpha in the
    radical.  The cofactor beta = tr - alpha is then a unit, and

        p = (beta - alpha)^-1 * (beta*I - A)

    is the spectral idempotent; Cayley-Hamilton gives p^2 = p and
    A*p = alpha*p, so the quasinilpotent part is alpha*p entrywise.

The root hunt depends on the ring: finite rings run Newton's method,
the p-local rationals test the discriminant for a rational square, and
truncated series lift a root of the constant term (see
:mod:`qpolar.series`).  Since p is a polynomial in A it lands in the
double commutant for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt

from .matrices import (
    M2,
    QuadraticCharPoly,
    ShapedMatrix,
    UnsupportedShape,
    char_poly_2x2,
)
from .rings import (
    LocalizedIntegers,
    LocalRing,
    QpolarError,
    TruncatedSeriesRing,
)
from .witnesses import QuasipolarWitness, WitnessInvalid, build_quasipolar


class NotQuasipolarError(QpolarError):
    """The matrix has no spectral idempotent over its ring."""


class PreconditionViolation(QpolarError):
    """A split was requested outside the det-radical, trace-unit case."""


class M2Kind(Enum):
    INVERTIBLE = "invertible"
    QUASINILPOTENT = "quasinilpotent"
    SPLIT = "split"
    NOT_QUASIPOLAR = "not-quasipolar"


@dataclass(frozen=True)
class M2Classification:
    kind: M2Kind
    roots: tuple | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.roots is not None:
            out["roots"] = [repr(r) for r in self.roots]
        if self.reason:
            out["reason"] = self.reason
        return out


def find_root_split(chi: QuadraticCharPoly, ring: LocalRing) -> tuple:
    """A (radical root, unit root) pair of chi, or NotQuasipolarError.

    Only meaningful when chi = t^2 - tr*t + det has det radical and tr a
    unit; anything else is a caller bug and raises PreconditionViolation.
    """
    if chi.det.is_unit() or chi.tr.in_jacobson():
        raise PreconditionViolation(
            "root split applies only when det is radical and trace is a unit"
        )
    if isinstance(ring, TruncatedSeriesRing):
        from .series import lift_split

        return lift_split(chi, ring)
    if isinstance(ring, LocalizedIntegers):
        return _zloc_root_split(chi, ring)
    # Over F_p and Z/p^k the radical root always exists and is unique:
    # chi' = 2t - tr is a unit on the radical, so Newton's method from 0
    # stays there and doubles the power of p dividing chi(alpha) per step.
    alpha = ring.zero
    for _ in range(ring.cardinality().bit_length()):
        value = chi.evaluate(alpha)
        if not value:
            return alpha, chi.tr - alpha
        alpha = alpha - value / (2 * alpha - chi.tr)
    raise WitnessInvalid(f"Newton's method found no radical root of {chi} in {ring!r}")


def _zloc_root_split(chi: QuadraticCharPoly, ring: LocalizedIntegers) -> tuple:
    disc = chi.tr * chi.tr - 4 * chi.det
    root = _fraction_sqrt(disc.raw)
    if root is None:
        raise NotQuasipolarError(
            f"{chi} has no radical root in {ring!r}: "
            f"discriminant {disc!r} is not a rational square"
        )
    # Z_(p) is integrally closed, so chi's rational roots (tr +- r)/2 lie in it;
    # det is radical, tr a unit and the maximal ideal prime: one root is radical.
    alpha = ring.element((chi.tr.raw + root) / 2)
    if alpha.is_unit():
        alpha = ring.element((chi.tr.raw - root) / 2)
    beta = chi.tr - alpha
    if not (chi.evaluate(alpha) == 0 and beta.is_unit()):
        raise WitnessInvalid(f"{alpha!r}, {beta!r} is not a radical/unit root split of {chi}")
    return alpha, beta


def _fraction_sqrt(q: Fraction | int):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def classify_m2(a: ShapedMatrix) -> M2Classification:
    """Trichotomy of a full 2x2 matrix by trace and determinant."""
    if a.shape != M2:
        raise UnsupportedShape(f"expected shape M2, got {a.shape.name}")
    chi = char_poly_2x2(a)
    if chi.det.is_unit():
        return M2Classification(M2Kind.INVERTIBLE)
    if chi.tr.in_jacobson():
        return M2Classification(M2Kind.QUASINILPOTENT)
    try:
        roots = find_root_split(chi, a.ring)
    except NotQuasipolarError as exc:
        return M2Classification(M2Kind.NOT_QUASIPOLAR, reason=str(exc))
    return M2Classification(M2Kind.SPLIT, roots=roots)


def quasipolar_witness_m2(a: ShapedMatrix, cls: M2Classification | None = None) -> QuasipolarWitness:
    """Quasipolar decomposition of a full 2x2 matrix.

    Raises NotQuasipolarError in the obstructed case.  The idempotent is
    always a polynomial in A, so no commutant search is needed.  A
    caller that already holds classify_m2(a) passes it as cls.
    """
    if cls is None:
        cls = classify_m2(a)
    ring = a.ring
    if cls.kind is M2Kind.NOT_QUASIPOLAR:
        raise NotQuasipolarError(cls.reason)
    if cls.kind is M2Kind.INVERTIBLE:
        p = ShapedMatrix.zero(ring, M2)
    elif cls.kind is M2Kind.QUASINILPOTENT:
        p = ShapedMatrix.identity(ring, M2)
    else:
        alpha, beta = cls.roots
        scale = (beta - alpha).inverse()
        p = (ShapedMatrix.identity(ring, M2).scale(beta) - a).scale(scale)
        if a * p != p.scale(alpha):
            raise WitnessInvalid(f"A*p is not alpha*p for {a!r}")
    return build_quasipolar(a, p)
