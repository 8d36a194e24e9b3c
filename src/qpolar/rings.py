"""Commutative local rings with exact arithmetic.

Four kinds of ring are provided, all local (unique maximal ideal):

* ``PrimeField(p)``        -- Z/p for a prime p, spelled ``F<p>``
* ``IntegersMod(p, k)``    -- Z/p^k, spelled ``Z<p>^<k>``
* ``LocalizedIntegers(p)`` -- Z localized at p, i.e. fractions m/n with
  p not dividing n, spelled ``Zloc<p>``
* ``TruncatedSeriesRing(base, m)`` -- base[[x]]/(x^m) for another ring
  from this list, spelled ``series(<ring>,<m>)``

Because every ring here is local, an element is either a unit or lies in
the Jacobson radical; ``in_jacobson`` is defined as ``not is_unit`` and
the tests exercise that dichotomy exhaustively on the finite kinds.

An element is immutable and stores one canonical ``raw`` value, the value
every kernel computes with: an ``int`` residue in [0, p^k) for ``F<p>``
and ``Z<p>^<k>``; for ``Zloc<p>`` the ``int`` numerator of an integral
value and the reduced ``Fraction`` otherwise (the two mix exactly under
+ and *, and p-local fractions are closed under both); for a series the
tuple of its coefficients' raw values, constant term first, with
truncated +, - and *.  Equality, hashing, truth and text read it.

Each ring has one arithmetic hook, ``normal(x)``: the canonical raw value
of a raw sum, difference or product x (reduced modulo p^k, an integral
fraction as its numerator, a series coefficient by coefficient).
``cook(x)`` wraps ``normal(x)`` in an element, once per result.  The
element operators are built on it (``a * b`` is ``cook(a.raw * b.raw)``,
and so for + and unary -), as are the matrix, series and lift kernels,
which cook once per entry; so series arithmetic, a series over a series
and a matrix entry's sum of products build no base-ring element.  All
arithmetic is exact; nothing floats.  Each ring builds its ``zero`` and
``one`` once, when it is constructed.

``payload`` is an element as outside readers see it, from the ring's
``payload`` hook: the residue ``int``, always a ``Fraction`` for
``Zloc<p>``, and the tuple of base-ring elements for a series.

A ring is identified by its spelling, the text ``parse_ring`` reads
back, so ``F2`` and ``Z2^1`` differ.  An ``int`` becomes an element
through ``cook``, and an element prints by ``format_raw`` of its raw value.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product
from math import log10


class QpolarError(Exception):
    """Base class for every error raised by this package."""


class RingMismatch(QpolarError):
    """Two elements from different rings were combined."""


class NotAUnit(QpolarError):
    """Inversion was requested for a non-unit."""


class InfiniteRing(QpolarError):
    """Enumeration was requested for a ring without finitely many elements."""


class InvalidElement(QpolarError):
    """A value does not describe an element of the target ring."""


class RingParseError(QpolarError):
    """A ring or element literal could not be parsed."""


# Miller-Rabin with the primes up to 41 as bases decides primality
# exactly below MAX_PRIME (Sorenson & Webster, 2017); larger p are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981
# int <-> str refuses over 4,300 digits, so a longer modulus could not print.
MAX_MODULUS_DIGITS = 4300


def _is_prime(n: int) -> bool:
    if n >= MAX_PRIME:
        raise InvalidElement(f"primality of {n} is not decided at or above {MAX_PRIME}")
    if n < 2 or n in _PRIME_BASES:
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # n passes base b when b^d = 1 or b^(d * 2^r) = -1 for some r < s.
    return not any(
        pow(b, d, n) != 1 and all(pow(b, d << r, n) != n - 1 for r in range(s))
        for b in _PRIME_BASES
    )


class RingElement:
    """An element of a :class:`LocalRing`, with operator overloads.

    Integers coerce automatically (``a + 1`` works in any ring); elements
    of distinct rings never mix.  ``raw`` is the canonical raw value.
    """

    __slots__ = ("ring", "raw")

    def __init__(self, ring: LocalRing, raw):
        self.ring = ring
        self.raw = raw

    @property
    def payload(self):
        return self.ring.payload(self.raw)

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if not (other.ring is self.ring or other.ring == self.ring):
                raise RingMismatch(f"cannot combine {self.ring} with {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.add(self, self.ring.neg(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.add(o, self.ring.neg(self))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.mul(self, o)

    __rmul__ = __mul__

    def __neg__(self):
        return self.ring.neg(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.mul(self, self.ring.inverse(o))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.ring.inverse(self) ** (-n)
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = other if isinstance(other, RingElement) else self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.ring is o.ring or self.ring == o.ring) and self.raw == o.raw

    def __hash__(self):
        return hash((self.ring, self.raw))

    def __bool__(self):
        return bool(self.raw)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self)

    def in_jacobson(self) -> bool:
        return self.ring.in_jacobson(self)

    def inverse(self) -> RingElement:
        return self.ring.inverse(self)

    def __repr__(self):
        return self.ring.format_raw(self.raw)


class LocalRing:
    """Shared behaviour for the four ring kinds.

    A constructor sets ``spelling``, which alone decides equality, hash
    and repr; arithmetic, coercion and text run on raw values and ``cook``.
    """

    spelling: str

    def __eq__(self, other):
        return isinstance(other, LocalRing) and other.spelling == self.spelling

    def __hash__(self):
        return hash(self.spelling)

    def __repr__(self):
        return self.spelling

    def element(self, value) -> RingElement:
        """Value as an element: a member as is, an ``int`` through cook."""
        if isinstance(value, RingElement):
            if not (value.ring is self or value.ring == self):
                raise RingMismatch(f"{value!r} is not in {self}")
            return value
        if isinstance(value, int):
            return self.cook(value)
        raise InvalidElement(f"cannot build an element of {self} from {value!r}")

    def parse(self, text: str) -> RingElement:
        raise NotImplementedError

    def add(self, a: RingElement, b: RingElement) -> RingElement:
        return self.cook(a.raw + b.raw)

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        return self.cook(a.raw * b.raw)

    def neg(self, a: RingElement) -> RingElement:
        return self.cook(-a.raw)

    def is_unit(self, a: RingElement) -> bool:
        raise NotImplementedError

    def inverse(self, a: RingElement) -> RingElement:
        raise NotImplementedError

    def in_jacobson(self, a: RingElement) -> bool:
        # The local dichotomy: non-units are exactly the radical.
        return not self.is_unit(a)

    def elements(self):
        raise NotImplementedError

    def cardinality(self) -> int:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    def format_raw(self, x) -> str:
        """The text of the element whose raw value is x."""
        try:
            return str(x)
        except ValueError:  # Python's int -> str digit limit
            raise QpolarError(f"an element of {self} has too many digits to print") from None

    def cook(self, x) -> RingElement:
        """The canonical element for a raw sum or product x."""
        return RingElement(self, self.normal(x))

    def normal(self, x):
        """The canonical raw value of a raw sum or product x."""
        return x

    def payload(self, x):
        """The payload outside readers see for the canonical raw value x."""
        return x

    def _build_constants(self) -> None:
        self._zero, self._one = self.element(0), self.element(1)

    # Plain properties over values built once: a tracer may wrap them.
    @property
    def zero(self) -> RingElement:
        return self._zero

    @property
    def one(self) -> RingElement:
        return self._one


class _ModularRing(LocalRing):
    """Common code for Z/p and Z/p^k; raw values and payloads are residues in [0, modulus)."""

    def __init__(self, p: int, k: int, spelling: str):
        if not _is_prime(p):
            raise InvalidElement(f"{p} is not prime")
        if k < 1:
            raise InvalidElement(f"exponent must be positive, got {k}")
        if k >= MAX_MODULUS_DIGITS / log10(p):
            raise InvalidElement(f"{p}^{k} has more than {MAX_MODULUS_DIGITS} digits")
        self.p = p
        self.k = k
        self.modulus = p**k
        self.normal = self.modulus.__rmod__  # x % modulus; map calls it with no Python frame
        self.spelling = spelling
        self._build_constants()

    def parse(self, text: str) -> RingElement:
        try:
            return self.element(int(text.strip()))
        except ValueError:
            raise RingParseError(f"bad integer literal {text!r} for {self}") from None

    def is_unit(self, a):
        return a.raw % self.p != 0

    def inverse(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{a!r} is not a unit in {self}")
        return RingElement(self, pow(a.raw, -1, self.modulus))

    def elements(self):
        for r in range(self.modulus):
            yield RingElement(self, r)

    def cardinality(self):
        return self.modulus

    @property
    def is_finite(self):
        return True


class PrimeField(_ModularRing):
    """The field Z/p, spelled ``F<p>``."""

    def __init__(self, p: int):
        super().__init__(p, 1, f"F{p}")


class IntegersMod(_ModularRing):
    """The local ring Z/p^k, spelled ``Z<p>^<k>``."""

    def __init__(self, p: int, k: int):
        super().__init__(p, k, f"Z{p}^{k}")


class LocalizedIntegers(LocalRing):
    """Z localized at a prime p: fractions m/n with p not dividing n.

    A raw value is an ``int`` when integral and a reduced ``Fraction``
    otherwise; a payload is always a ``Fraction``.  A value is a unit
    exactly when p does not divide its numerator.
    """

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InvalidElement(f"{p} is not prime")
        self.p = p
        self.spelling = f"Zloc{p}"
        self._build_constants()

    def element(self, value) -> RingElement:
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise InvalidElement(f"{value} has denominator divisible by {self.p}")
            return self.cook(value)
        return super().element(value)

    def parse(self, text: str) -> RingElement:
        s = text.strip()
        if "e" in s.lower():  # Fraction("1e10000000") alone takes seconds
            raise RingParseError(f"exponent notation {text!r} is not accepted for {self}")
        try:
            f = Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise RingParseError(f"bad fraction literal {text!r} for {self}") from None
        try:
            return self.element(f)
        except InvalidElement as exc:
            raise RingParseError(str(exc)) from None

    def normal(self, x):
        return x.numerator if x.denominator == 1 else x

    def payload(self, x):
        return Fraction(x)

    def is_unit(self, a):
        return a.raw.numerator % self.p != 0

    def inverse(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{a!r} is not a unit in {self}")
        return self.cook(1 / Fraction(a.raw))

    def elements(self):
        raise InfiniteRing(f"{self} has infinitely many elements")

    def cardinality(self):
        raise InfiniteRing(f"{self} has infinitely many elements")

    @property
    def is_finite(self):
        return False


class _RawSeries(tuple):
    """A series' raw value: its coefficients' raw values, constant term first.

    ``+``, ``-`` and ``*`` take operands of one length and truncate there.
    It is false when every coefficient is, so zero skips work when nested.
    """

    __slots__ = ()

    def __bool__(self):
        return any(self)

    def __add__(self, other):
        return _RawSeries(map(operator.add, self, other))

    def __sub__(self, other):
        return _RawSeries(map(operator.sub, self, other))

    def __neg__(self):
        return _RawSeries(map(operator.neg, self))

    def __mul__(self, other):
        m = len(self)
        out = [self[0] - self[0]] * m  # the base's raw zero, of its raw type
        ys = [(j, y) for j, y in enumerate(other) if y]
        for i, x in enumerate(self):
            if not x:
                continue
            for j, y in ys:
                if i + j >= m:
                    break
                out[i + j] = out[i + j] + x * y
        return _RawSeries(out)


class TruncatedSeriesRing(LocalRing):
    """base[[x]]/(x^m): power series in x over ``base``, truncated at x^m.

    A raw value holds exactly m canonical raw coefficients, constant term
    first; a payload is the tuple of base elements.  A series is a unit iff
    its constant term is; inverses are computed coefficient by coefficient
    from the convolution identity.
    """

    def __init__(self, base: LocalRing, precision: int):
        if precision < 1:
            raise InvalidElement(f"precision must be positive, got {precision}")
        self.base = base
        self.precision = precision
        self.spelling = f"series({base},{precision})"
        self._build_constants()

    def element(self, value) -> RingElement:
        # Also a base element or an int as a constant, or a coefficient list.
        if isinstance(value, int) or (
            isinstance(value, RingElement) and (value.ring is self.base or value.ring == self.base)
        ):
            value = [value]
        if isinstance(value, (list, tuple)):
            raws = [self.base.element(c).raw for c in value[: self.precision]]
            raws += [self.base.zero.raw] * (self.precision - len(raws))
            return RingElement(self, _RawSeries(raws))
        return super().element(value)

    def parse(self, text: str) -> RingElement:
        # Accepts "c0 + c1*x + c2*x^2 + ..." with integer or fraction
        # coefficients; bare "x" and "x^k" mean coefficient one.
        coeffs = [self.base.zero.raw] * self.precision
        src = text.strip()
        if not src:
            raise RingParseError("empty series literal")
        if "^-" in "".join(src.split()):
            raise RingParseError(f"negative power in {text!r}")
        for raw in src.replace("-", "+-").split("+"):
            term = raw.strip()
            if not term:
                continue
            negate = term.startswith("-")
            if negate:
                term = term[1:].strip()
            if "*" in term:
                cpart, xpart = (s.strip() for s in term.split("*", 1))
            elif term.startswith("x"):
                cpart, xpart = "1", term
            else:
                cpart, xpart = term, ""
            if xpart == "":
                power = 0
            elif xpart == "x":
                power = 1
            elif xpart.startswith("x^"):
                try:
                    power = int(xpart[2:])
                except ValueError:
                    raise RingParseError(f"bad power {xpart!r} in {text!r}") from None
            else:
                raise RingParseError(f"bad term {raw.strip()!r} in {text!r}")
            c = self.base.parse(cpart).raw
            if power < self.precision:
                coeffs[power] = coeffs[power] - c if negate else coeffs[power] + c
        return self.cook(coeffs)

    def normal(self, x):
        return _RawSeries(map(self.base.normal, x))

    def payload(self, x):
        return tuple(map(self.base.cook, x))

    def constant_term(self, a) -> RingElement:
        return self.base.cook(a.raw[0])

    def is_unit(self, a):
        return self.base.is_unit(self.constant_term(a))

    def inverse(self, a):
        # b0 = a0^-1, then a*b = 1 forces b_i = -a0^-1 * sum a_k b_{i-k}.
        if not self.is_unit(a):
            raise NotAUnit(f"{a!r} is not a unit in {self}")
        base = self.base
        normal, xs, zero = base.normal, a.raw, base.zero.raw
        bs = [base.inverse(self.constant_term(a)).raw]
        for i in range(1, self.precision):
            s = sum((xs[k] * bs[i - k] for k in range(1, i + 1) if xs[k]), zero)
            bs.append(normal(-(bs[0] * s)))
        return self.cook(bs)

    def elements(self):
        raws = [x.raw for x in self.base.elements()]
        for combo in product(raws, repeat=self.precision):
            yield RingElement(self, _RawSeries(combo))

    def cardinality(self):
        return self.base.cardinality() ** self.precision

    @property
    def is_finite(self):
        return self.base.is_finite

    def format_raw(self, x):
        terms = []
        for power, c in enumerate(x):
            if not c:
                continue
            cs = self.base.format_raw(c)
            wrapped = f"({cs})" if ("+" in cs or " " in cs) else cs
            if power == 0:
                terms.append(cs)
            elif power == 1:
                terms.append("x" if cs == "1" else f"{wrapped}*x")
            else:
                terms.append(f"x^{power}" if cs == "1" else f"{wrapped}*x^{power}")
        if not terms:
            return "0"
        return " + ".join(terms).replace("+ -", "- ")


# The largest product of nested precisions parse_ring accepts: zero and one
# are m-tuples and a dense product costs m^2 coefficient products, so a
# larger m would spend its memory and time before any check could fail.
# Past 12 levels a precision must be 1; deeper spellings are not recursed.
MAX_SERIES_PRECISION = 4096
MAX_SERIES_DEPTH = 12


def parse_ring(text: str) -> LocalRing:
    """Parse a ring spelling: F<p>, Z<p>^<k>, Zloc<p>, series(<ring>,<m>)."""
    s = text.strip()
    if not s:
        raise RingParseError("empty ring spelling")
    if s.startswith("series"):
        rest = s[len("series") :].strip()
        if not (rest.startswith("(") and rest.endswith(")")):
            raise RingParseError(f"expected series(<ring>,<m>) in {text!r}")
        if s.count("series") > MAX_SERIES_DEPTH:
            raise RingParseError(f"series nested deeper than {MAX_SERIES_DEPTH} levels")
        # The precision is an int, so the last comma splits off the base.
        base_text, comma, m_text = rest[1:-1].rpartition(",")
        if not comma:
            raise RingParseError(f"missing precision in {text!r}")
        try:
            m = int(m_text.strip())
        except ValueError:
            raise RingParseError(f"bad precision in {text!r}") from None
        try:
            base = parse_ring(base_text)
        except RingParseError as exc:  # name the spelling as typed, not its base part
            raise RingParseError(f"{exc} in {text!r}") from None
        span, inner_ring = m, base
        while isinstance(inner_ring, TruncatedSeriesRing):
            span, inner_ring = span * inner_ring.precision, inner_ring.base
        if span > MAX_SERIES_PRECISION:
            raise RingParseError(f"precision {span} exceeds the cap {MAX_SERIES_PRECISION} in {text!r}")
        return _construct(text, TruncatedSeriesRing, base, m)
    if s.startswith("Zloc"):
        try:
            p = int(s[4:])
        except ValueError:
            raise RingParseError(f"bad prime in {text!r}") from None
        return _construct(text, LocalizedIntegers, p)
    if s.startswith("Z"):
        body = s[1:]
        if "^" not in body:
            raise RingParseError(f"expected Z<p>^<k> in {text!r} (use F<p> for fields)")
        ptext, ktext = body.split("^", 1)
        try:
            p, k = int(ptext), int(ktext)
        except ValueError:
            raise RingParseError(f"bad Z<p>^<k> spelling in {text!r}") from None
        return _construct(text, IntegersMod, p, k)
    if s.startswith("F"):
        try:
            p = int(s[1:])
        except ValueError:
            raise RingParseError(f"bad prime in {text!r}") from None
        return _construct(text, PrimeField, p)
    raise RingParseError(f"unrecognized ring spelling {text!r}")


def _construct(text: str, kind, *args) -> LocalRing:
    # The constructors check primes, exponents and precisions.
    try:
        return kind(*args)
    except InvalidElement as exc:
        raise RingParseError(f"{exc} in {text!r}") from None
