"""Decomposition witnesses and their self-verification reports.

A quasipolar witness for a matrix A is an idempotent p commuting with
everything that commutes with A, such that A + p is a unit and A*p is
quasinilpotent.  A rad-clean witness is an idempotent e commuting with A
such that A - e is a unit and e*A*e lies in the radical of the corner
ring e*R*e.  Each declares its four matrices and ``checks()`` on one base,
which runs ``checks()`` once, at build, and stores the ``CheckReport`` as
``report``: every defining identity, each by name, so callers (and the
CLI) can show what was verified without computing it again.
Constructions in this package return only witnesses whose report passed.

Commuting is enough.  Let S be a masked subring over a commutative
Noetherian local ring (R, m), as every ring family here is, and p an
idempotent of S with pA = Ap, u = A + p a unit and (Ap)^k in J(S) for
some k <= n, which is what ``QuasipolarWitness.checks`` verifies.  Then
p lies in comm^2(A).  Proof: take X in S with XA = AX, and let q = Ap,
Y = (1-p)Xp and Z = pX(1-p).  Then uY = Yq and Zu = qZ, so
Y = u^-M Y q^M and Z = q^M Z u^-M for every M.  S/mS is finite-dimensional
over R/m, so J(S)^N <= mS for some N, and q^(kNj) lies in m^j S.  So Y
and Z lie in the intersection of the m^j S, which is 0 by Krull's
intersection theorem (S is a finitely generated R-module), and
pX = pXp = Xp.  Such a p is the unique quasipolar idempotent of A
(Koliha and Patricio, J. Aust. Math. Soc. 72, 2002).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrices import ShapedMatrix
from .rings import QpolarError


class CheckReport:
    """Named boolean checks, in a fixed order."""

    def __init__(self, entries):
        self.entries = tuple(entries)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.entries)

    @property
    def failed_names(self):
        return [name for name, ok in self.entries if not ok]

    def to_dict(self) -> dict:
        return {name: ok for name, ok in self.entries}

    def __repr__(self):
        state = "ok" if self.passed else "FAILED " + ",".join(self.failed_names)
        return f"CheckReport({state})"


def _radical_certificate(q: ShapedMatrix) -> bool:
    """q^k is radical for some k <= n, tried from k = 1 up.

    For x commuting with q, (q*x)^k = q^k * x^k is radical: q*x is
    nilpotent modulo the radical, so 1 + q*x is a unit and q is
    quasinilpotent in any shape ring.  On a triangular mask q^k is
    radical exactly when q is.
    """
    power = q
    for _ in range(1, q.shape.n):
        if power.in_jacobson():
            return True
        power = power * q
    return power.in_jacobson()


@dataclass(frozen=True)
class _Witness:
    """Four matrices, A first, and the report of their ``checks()``."""

    report: CheckReport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "report", self.checks())

    def to_dict(self) -> dict:
        out = {name: getattr(self, name).to_json() for name in self.__match_args__}
        return dict(out, checks=self.report.to_dict(), ok=self.report.passed)


@dataclass(frozen=True)
class QuasipolarWitness(_Witness):
    """p idempotent in the double commutant, A + p a unit, A*p quasinilpotent."""

    a: ShapedMatrix
    p: ShapedMatrix
    u: ShapedMatrix
    q: ShapedMatrix

    def checks(self) -> CheckReport:
        a, p, u, q = self.a, self.p, self.u, self.q
        ap = a * p
        return CheckReport(
            [
                ("p_idempotent", p * p == p),
                ("p_commutes_with_a", p * a == ap),
                ("u_equals_a_plus_p", u == a + p),
                ("u_unit", u.is_unit()),
                ("q_equals_a_times_p", q == ap),
                ("q_quasinilpotent_certificate", _radical_certificate(q)),
            ]
        )


@dataclass(frozen=True)
class RadCleanWitness(_Witness):
    """e idempotent commuting with A, A - e a unit, e*A*e radical in the corner."""

    a: ShapedMatrix
    e: ShapedMatrix
    v: ShapedMatrix
    corner_j: ShapedMatrix

    def checks(self) -> CheckReport:
        a, e, v, cj = self.a, self.e, self.v, self.corner_j
        ea = e * a
        return CheckReport(
            [
                ("e_idempotent", e * e == e),
                ("e_commutes_with_a", ea == a * e),
                ("v_equals_a_minus_e", v == a - e),
                ("v_unit", v.is_unit()),
                ("corner_j_equals_eae", cj == ea * e),
                ("corner_j_radical_diagonal", cj.in_jacobson()),
            ]
        )


class WitnessInvalid(QpolarError):
    """A construction failed one of the identities it promises."""


def require_valid(witness) -> None:
    """Raise unless every check in the witness's stored report passed."""
    report = witness.report
    if not report.passed:
        raise WitnessInvalid(
            f"witness checks failed: {', '.join(report.failed_names)} for {witness.a!r}"
        )


def build_quasipolar(a: ShapedMatrix, p: ShapedMatrix):
    """The quasipolar witness of A for idempotent p, required valid."""
    w = QuasipolarWitness(a=a, p=p, u=a + p, q=a * p)
    require_valid(w)
    return w
