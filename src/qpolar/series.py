"""Root lifting from a local ring into its truncated power series ring.

A 2x2 matrix over R[[x]]/(x^m) whose constant term splits (radical root
alpha0, unit root beta0 of the constant characteristic polynomial)
stays quasipolar over the series ring: each constant root extends to a
series root coefficient by coefficient.  Writing the quadratic as

    y^2 - mu*y - lam = 0          (mu = tr, lam = -det)

and comparing coefficients of x^i gives

    (2*b0 - mu0) * b_i = lam_i + sum_{k<i} b_k*mu_{i-k}
                               - sum_{0<k<i} b_k*b_{i-k}

so every b_i is determined once the pivot 2*b0 - mu0 is a unit, which
it is whenever b0 is one root of a radical/unit split: the pivot equals
the difference of the two constant roots up to sign.  Conversely, when
the constant matrix is not quasipolar, neither is the series matrix, so
the constant term acts as an exact gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .m2 import NotQuasipolarError, M2Kind, classify_m2, find_root_split, quasipolar_witness_m2
from .matrices import M2, QuadraticCharPoly, ShapedMatrix, UnsupportedShape
from .rings import QpolarError, RingElement, TruncatedSeriesRing
from .witnesses import QuasipolarWitness, WitnessInvalid


class BadSeed(QpolarError):
    """The proposed constant term is not a root of the constant quadratic."""


class PivotNotUnit(QpolarError):
    """2*b0 - mu0 is not invertible, so the recursion cannot start."""


class NoConstantSplit(NotQuasipolarError):
    """The constant characteristic polynomial has no radical/unit root pair."""


class ConstantNotQuasipolar(NotQuasipolarError):
    """The constant-term matrix already fails, so the series matrix does too."""


@dataclass(frozen=True)
class SeriesQuadratic:
    """The quadratic y^2 - mu*y - lam = 0 over a truncated series ring."""

    mu: RingElement
    lam: RingElement

    def __post_init__(self):
        if self.mu.ring is not self.lam.ring or not isinstance(
            self.mu.ring, TruncatedSeriesRing
        ):
            raise UnsupportedShape("mu and lam must share one truncated series ring")

    @classmethod
    def from_char_poly(cls, chi: QuadraticCharPoly) -> "SeriesQuadratic":
        return cls(mu=chi.tr, lam=-chi.det)

    @property
    def ring(self) -> TruncatedSeriesRing:
        return self.mu.ring

    def holds_for(self, y: RingElement) -> bool:
        return y * y - self.mu * y - self.lam == self.ring.zero


def lift_root(sq: SeriesQuadratic, b0) -> RingElement:
    """Extend a constant root b0 to a series root of sq, coefficientwise.

    Raises BadSeed when b0 fails the constant quadratic and PivotNotUnit
    when 2*b0 - mu0 is not invertible.  The result is the unique root of
    sq with constant term b0 (unique because the pivot determines each
    coefficient from the earlier ones).
    """
    ring = sq.ring
    base = ring.base
    b0 = base.element(b0) if not isinstance(b0, RingElement) else b0
    if b0.ring is not base:
        raise UnsupportedShape(f"seed must live in {base!r}")
    mu0 = ring.constant_term(sq.mu)
    if b0 * b0 - b0 * mu0 - ring.constant_term(sq.lam) != base.zero:
        raise BadSeed(f"{b0!r} is not a root of the constant quadratic")
    pivot = b0 + b0 - mu0
    if not pivot.is_unit():
        raise PivotNotUnit(f"2*{b0!r} - {mu0!r} is not a unit in {base!r}")
    inv = pivot.inverse().raw
    normal, mu, lam = base.normal, sq.mu.raw, sq.lam.raw

    rb = [b0.raw]
    for i in range(1, ring.precision):
        acc = lam[i]
        for k in range(i):
            acc = acc + rb[k] * mu[i - k]
        for k in range(1, i):
            acc = acc - rb[k] * rb[i - k]
        rb.append(normal(inv * acc))
    y = ring.cook(rb)
    if not sq.holds_for(y):
        raise WitnessInvalid(f"lifted {y!r} is not a root of the series quadratic")
    return y


def lift_split(chi: QuadraticCharPoly, ring: TruncatedSeriesRing) -> tuple:
    """Lift the constant-term root split of chi to the series ring.

    Returns (alpha, beta) with alpha radical and beta a unit, both exact
    roots of chi at full precision.  Raises NoConstantSplit when the
    constant quadratic has no radical root over the base ring.
    """
    base = ring.base
    chi0 = QuadraticCharPoly(tr=ring.constant_term(chi.tr), det=ring.constant_term(chi.det))
    try:
        alpha0, _ = find_root_split(chi0, base)
    except NotQuasipolarError as exc:
        raise NoConstantSplit(str(exc)) from exc
    sq = SeriesQuadratic.from_char_poly(chi)
    alpha = lift_root(sq, alpha0)
    beta = chi.tr - alpha
    if chi.evaluate(beta) != ring.zero:
        raise WitnessInvalid(f"cofactor {beta!r} is not a root of {chi}")
    if not (alpha.in_jacobson() and beta.is_unit()):
        raise WitnessInvalid(f"lifted roots {alpha!r}, {beta!r} are not a radical/unit split")
    return alpha, beta


def constant_term_matrix(a: ShapedMatrix) -> ShapedMatrix:
    """The matrix of constant coefficients, over the base ring."""
    ring = a.ring
    if not isinstance(ring, TruncatedSeriesRing):
        raise UnsupportedShape(f"expected a series ring, got {ring!r}")
    rows = [[ring.constant_term(x) for x in row] for row in a.rows]
    return ShapedMatrix.from_rows(ring.base, a.shape, rows)


def quasipolar_witness_m2_series(a: ShapedMatrix) -> QuasipolarWitness:
    """Quasipolar decomposition over a series ring, gated on the constant term.

    A series is a unit or radical exactly when its constant term is, so
    classify_m2 over the series ring finds the constant matrix's kind;
    in the split case it splits the constant quadratic and lifts the
    radical root once (through lift_split).  If the constant matrix is
    not quasipolar the series matrix cannot be either, and
    ConstantNotQuasipolar is raised with the underlying reason.
    Otherwise the witness is built from that one classification.
    """
    if a.shape != M2:
        raise UnsupportedShape(f"expected shape M2, got {a.shape.name}")
    cls = classify_m2(a)
    if cls.kind is M2Kind.NOT_QUASIPOLAR:
        raise ConstantNotQuasipolar(
            f"constant term is not quasipolar: {cls.reason}"
        )
    return quasipolar_witness_m2(a, cls=cls)

