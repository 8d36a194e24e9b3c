"""Two fully pinned series decompositions over Z/4, used as regression anchors.

Both matrices live in M2 over a truncated series ring with base Z/4 and
exercise the split branch of the 2x2 engine end to end: constant-term
root split, coefficient lifting, and the assembled witness.  Expected
values here were fixed by hand (substitution into the quadratic, direct
idempotency checks) before the engine existed, so these are oracles for
the code rather than echoes of it.

The precision-8 matrix has off-diagonal tail -sum_{n>=1} (1+3^n) x^n;
over Z/4 the coefficient 1+3^n alternates 0 (n odd), 2 (n even), which
the builder asserts rather than hard-codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .m2 import M2Kind, classify_m2, quasipolar_witness_m2
from .matrices import M2, ShapedMatrix, char_poly_2x2
from .rings import IntegersMod, RingElement, TruncatedSeriesRing
from .witnesses import CheckReport, WitnessInvalid


@dataclass(frozen=True)
class WorkedExample:
    name: str
    matrix: ShapedMatrix
    constant_split: tuple
    alpha: RingElement
    beta: RingElement
    spectral: ShapedMatrix | None = None

    @property
    def ring(self) -> TruncatedSeriesRing:
        return self.matrix.ring


def _alternating_tail(ring: TruncatedSeriesRing) -> RingElement:
    """sum_{n>=1} (1+3^n) x^n over base Z/4, computed from the formula."""
    base = ring.base
    one, three = base.element(1), base.element(3)
    coeffs = [base.zero]
    for n in range(1, ring.precision):
        c = one + three**n
        if c != (base.zero if n % 2 else base.element(2)):
            raise WitnessInvalid(f"tail coefficient 1+3^{n} = {c!r} breaks the 0/2 alternation")
        coeffs.append(c)
    return ring.element(coeffs)


def example_precision8() -> WorkedExample:
    """Split (0, 3) over Z/4, precision 8; the radical root lifts to
    2x^2 + 2x^4 + 2x^6 while the unit root stays constant."""
    ring = TruncatedSeriesRing(IntegersMod(2, 2), 8)
    s = _alternating_tail(ring)
    a = ShapedMatrix.from_rows(
        ring,
        M2,
        [
            [ring.zero, -s],
            [ring.one, ring.element(3) - s],
        ],
    )
    base = ring.base
    return WorkedExample(
        name="z4-precision8",
        matrix=a,
        constant_split=(base.element(0), base.element(3)),
        alpha=ring.element([0, 0, 2, 0, 2, 0, 2, 0]),
        beta=ring.element(3),
    )


def example_precision2() -> WorkedExample:
    """Split (2, 3) over Z/4, precision 2, with the spectral idempotent
    pinned as well."""
    ring = TruncatedSeriesRing(IntegersMod(2, 2), 2)
    a = ShapedMatrix.from_rows(
        ring,
        M2,
        [
            ["3", "2 + 2*x"],
            ["2 + x", "2 + 3*x"],
        ],
    )
    base = ring.base
    return WorkedExample(
        name="z4-precision2",
        matrix=a,
        constant_split=(base.element(2), base.element(3)),
        alpha=ring.element([2, 1]),
        beta=ring.element([3, 2]),
        spectral=ShapedMatrix.from_rows(
            ring,
            M2,
            [
                ["2*x", "2"],
                ["2 + x", "1 + 2*x"],
            ],
        ),
    )


def all_examples() -> list:
    return [example_precision8(), example_precision2()]


def verify_example(ex: WorkedExample) -> CheckReport:
    """Recompute everything about a pinned example and compare.

    The matrix is classified once: that splits the constant quadratic
    and lifts its radical root, and the witness is built from the same
    classification.
    """
    cls = classify_m2(ex.matrix)
    if cls.kind is not M2Kind.SPLIT:
        raise WitnessInvalid(f"{ex.name} is {cls.kind.value}, not a root split")
    alpha, beta = cls.roots
    chi = char_poly_2x2(ex.matrix)
    entries = [
        ("constant_split", tuple(map(ex.ring.constant_term, cls.roots)) == ex.constant_split),
        ("alpha_lift", alpha == ex.alpha),
        ("beta_lift", beta == ex.beta),
        ("alpha_root", chi.evaluate(alpha) == ex.ring.zero),
        ("beta_root", chi.evaluate(beta) == ex.ring.zero),
        ("alpha_radical", alpha.in_jacobson()),
        ("beta_unit", beta.is_unit()),
    ]
    w = quasipolar_witness_m2(ex.matrix, cls=cls)
    entries.extend(w.report.entries)
    if ex.spectral is not None:
        entries.append(("spectral_matches", w.p == ex.spectral))
    return CheckReport(entries)
