"""Definition-level brute force over finite carriers.

Everything in this module works straight from the definitions by
enumeration: commutants by scanning the whole carrier, units by looking
for two-sided inverses, quasinilpotence by testing 1 + a*x against every
commuting x, radicals by the quasi-regularity test.  None of it consults
the constructive engines or the unit and radical tests that
``ShapedMatrix`` reads off a mask; that independence is what makes it
usable as ground truth for them.

Units, commutation, radical and quasinilpotence are defined once, on the
corner ring e*R*e (:class:`_Corner`).  The whole ring is the corner at
the identity, so a view's own units, commutants, radical and
quasinilpotence test are reads of that one corner, and the Peirce-corner
check uses the same code on e*R*e and (1-e)*R*(1-e).  Membership of p in
comm^2(a) is one test, comm(a) <= comm(p).

A :class:`FiniteRingView` is built once per (ring, shape) pair; it
tabulates scalar arithmetic and represents each matrix as a tuple of
scalar indices over the shape's mask, which keeps the big sweeps inside
plain tuple and list operations.  The ring itself is the view of
``TN(1)``: one position, so each key is one scalar index.  Its key arithmetic is generated per
view: one straight-line function each for product, sum and difference,
written from the shape's product terms as nested lookups in the scalar
tables, and from the same terms one list comprehension each for a row
``[a*b for b in bs]`` and a column ``[b*a for b in bs]``.  The scans over
a carrier take a whole row per call, through the class-level
``FiniteRingView._mul_row`` and ``_mul_col``; single products go through
``_mul``.  Wrapping those three methods counts every key product.

A corner of N keys costs N^2 key products for its units and its
commutation relation together, and keeps the relation as N^2 flag bytes.
Until the whole-ring corner exists, one key's commutant is a scan of 2N
products, so a single ``qp decompose --oracle`` check stays O(N); the
exhaustive verbs build that corner and read every commutant from it.
N^2 is capped at 2^24, which admits 4,096 keys; the ns x ns scalar
tables are capped at 10^6 entries.  Both caps are checked before
anything is enumerated or tabulated.
"""

from __future__ import annotations

from itertools import compress, product, repeat
from operator import eq

from .matrices import Shape, ShapedMatrix
from .rings import InfiniteRing, LocalRing, QpolarError

KEY_PRODUCT_CAP = 2**24
TABLE_CAP = 10**6


class NotIdempotent(QpolarError):
    """corner_validate_key was handed an e with e*e != e."""


def _straight_line(npos: int, slots: list, tables: dict, hoist: str = ""):
    """Compile ``f(a, b)`` returning the tuple of ``slots``, expressions in
    the tables and the scalar indices ``a0, b0, a1, b1, ...`` of the keys.
    With ``hoist``, statements run once per call, compile instead ``f(a, bs)``
    returning the list of those tuples, one per key b in ``bs``."""
    a = "".join(f"a{i}, " for i in range(npos))
    b = "".join(f"b{i}, " for i in range(npos))
    value = f"({', '.join(slots)},)"
    body = f"{hoist}\n return [{value} for {b}in b]" if hoist else f"{b}= b\n return {value}"
    namespace = dict(tables)
    exec(f"def f(a, b):\n {a}= a\n {body}", namespace)
    return namespace["f"]


class _Relation:
    """The relation a*b == b*a on a carrier, one flag byte per ordered pair.

    Read like the view's commutant cache (``in`` and ``get``), it gives each
    carrier element's commutant in carrier order, so the whole ring's
    relation replaces that cache once the whole-ring corner exists.
    """

    __slots__ = ("carrier", "_flags", "_index")

    def __init__(self, carrier: tuple, flags: bytearray):
        self.carrier = carrier
        self._flags = flags
        self._index = {k: i for i, k in enumerate(carrier)}

    def __contains__(self, a) -> bool:
        return a in self._index

    def get(self, a) -> tuple:
        return tuple(compress(self.carrier, self._row(a)))

    def within(self, a, p) -> bool:
        """comm(a) <= comm(p), as flag rows read as integers."""
        return not int.from_bytes(self._row(a), "big") & ~int.from_bytes(self._row(p), "big")

    def _row(self, a) -> bytearray:
        n = len(self.carrier)
        row = self._index[a] * n
        return self._flags[row : row + n]


class _Corner:
    """The corner ring e*R*e with identity e: its carrier, units, commutation
    relation, radical and quasinilpotence test.  The whole ring is the corner
    at the identity.

    One pass over the unordered pairs {a, b} of the N carrier elements makes
    a*b and b*a once each (a*a once): N^2 key products, from which it keeps
    both the units (by two-sided inverses) and the relation a*b == b*a.
    """

    __slots__ = ("identity", "carrier", "units", "commuting", "_jacobson", "_units_minus_e",
                 "_view")

    def __init__(self, view: FiniteRingView, e_key, carrier: tuple):
        self._view = view
        self.identity = e_key
        self.carrier = carrier
        mul, mul_row, mul_col = view._mul, view._mul_row, view._mul_col
        n = len(carrier)
        flags = bytearray(n * n)
        rights = set()
        lefts = set()
        for i, a in enumerate(carrier):
            rest = carrier[i + 1 :]
            ab = mul_row(a, rest)
            ba = mul_col(a, rest)
            commute = bytes(map(eq, ab, ba))
            # Row i right of the diagonal, and column i below it.
            row = i * n
            flags[row + i + 1 : row + n] = flags[row + n + i :: n] = commute
            # x*y == e gives x a right inverse and y a left one.
            if mul(a, a) == e_key:
                rights.add(a)
                lefts.add(a)
            if e_key in ab:
                rights.add(a)
                lefts.update(compress(rest, map(eq, ab, repeat(e_key))))
            if e_key in ba:
                lefts.add(a)
                rights.update(compress(rest, map(eq, ba, repeat(e_key))))
        flags[:: n + 1] = b"\x01" * n
        self.units = frozenset(rights & lefts)
        self.commuting = _Relation(carrier, flags)
        self._jacobson = self._units_minus_e = None

    @property
    def jacobson(self) -> frozenset:
        # x radical iff e - x*y is a corner unit for every corner y, that is,
        # iff the row x*y lies in e - U.  y = e (x*e = x) is tested first.
        if self._jacobson is None:
            view = self._view
            sub, e_key, units = view._sub, self.identity, self.units
            shifted = {sub(e_key, u) for u in units}
            self._jacobson = frozenset(
                x for x in self.carrier
                if sub(e_key, x) in units and shifted.issuperset(view._mul_row(x, self.carrier))
            )
        return self._jacobson

    def is_qnil(self, a, commuting) -> bool:
        """a is quasinilpotent here: e + a*x is a corner unit for every x in
        ``commuting``, the corner elements that commute with a; that is, the
        row a*x lies in U - e."""
        if self._units_minus_e is None:
            sub = self._view._sub
            self._units_minus_e = {sub(u, self.identity) for u in self.units}
        return self._units_minus_e.issuperset(self._view._mul_row(a, commuting))


class FiniteRingView:
    """Exhaustive arithmetic over a finite shaped-matrix ring."""

    def __init__(self, ring: LocalRing, shape: Shape):
        if not ring.is_finite:
            raise InfiniteRing(f"cannot enumerate a view over {ring}")
        self.ring = ring
        self.shape = shape
        self.positions = shape.positions
        ns, npos = ring.cardinality(), len(self.positions)
        if ns ** (2 * npos) > KEY_PRODUCT_CAP or ns * ns > TABLE_CAP:
            raise InfiniteRing(
                f"view of {ring} / {shape.name} exceeds its caps: "
                f"N^2 <= {KEY_PRODUCT_CAP} key products for N keys, "
                f"and {TABLE_CAP} scalar-table entries"
            )
        self.scalars = list(ring.elements())
        sidx = {s: i for i, s in enumerate(self.scalars)}
        self._sidx = sidx
        self._add_s = [[sidx[a + b] for b in self.scalars] for a in self.scalars]
        self._mul_s = [[sidx[a * b] for b in self.scalars] for a in self.scalars]
        self._neg_s = [sidx[-a] for a in self.scalars]
        self._zero_s = sidx[ring.zero]
        self._one_s = sidx[ring.one]

        pos_index = {p: i for i, p in enumerate(self.positions)}
        terms = shape.product_terms()
        self._prod_terms = [
            [(pos_index[(i, k)], pos_index[(k, j)]) for k in terms[(i, j)]]
            for (i, j) in self.positions
        ]
        diag = [pos_index[(i, i)] for i in range(shape.n)]

        # A sum starts at its first term; adding it to zero changes nothing.
        def sums(term):
            out = []
            for (ia, ib), *rest in self._prod_terms:
                expr = term(ia, ib)
                for ia, ib in rest:
                    expr = f"A[{expr}][{term(ia, ib)}]"
                out.append(expr)
            return out

        transposed = [list(col) for col in zip(*self._mul_s)]
        tables = {"A": self._add_s, "M": self._mul_s, "N": self._neg_s, "T": transposed}
        slots = range(npos)
        self._mul_k = _straight_line(npos, sums(lambda i, j: f"M[a{i}][b{j}]"), tables)
        # Sums and differences are not counted, so they need no class-level method.
        self._add = _straight_line(npos, [f"A[a{i}][b{i}]" for i in slots], tables)
        self._sub = _straight_line(npos, [f"A[a{i}][N[b{i}]]" for i in slots], tables)
        # A row a*b hoists M[a_i]; a column b*a reads M[b_i][a_j] as T[a_j][b_i].
        self._row_k = _straight_line(npos, sums(lambda i, j: f"r{i}[b{j}]"), tables,
                                     "; ".join(f"r{i} = M[a{i}]" for i in slots))
        self._col_k = _straight_line(npos, sums(lambda i, j: f"c{j}[b{i}]"), tables,
                                     "; ".join(f"c{i} = T[a{i}]" for i in slots))

        self.keys = tuple(product(range(ns), repeat=npos))
        z, o = self._zero_s, self._one_s
        self.zero_key = tuple(z for _ in range(npos))
        self.one_key = tuple(o if i in diag else z for i in range(npos))

        self._comm_cache: dict | _Relation = {}
        self._qnil_cache: dict = {}
        self._idempotents: tuple | None = None
        self._corners: dict = {}

    # -- key arithmetic ----------------------------------------------------
    # Class-level, so that wrapping FiniteRingView._mul, _mul_row and _mul_col
    # sees every product.

    def _mul(self, a, b):
        return self._mul_k(a, b)

    def _mul_row(self, a, bs) -> list:
        return self._row_k(a, bs)  # [a*b for b in bs]

    def _mul_col(self, a, bs) -> list:
        return self._col_k(a, bs)  # [b*a for b in bs]

    # -- conversions ---------------------------------------------------------

    def key_of(self, value):
        if not (isinstance(value, ShapedMatrix) and value.shape == self.shape):
            raise QpolarError(f"{value!r} does not live in this view")
        sidx = self._sidx
        return tuple(sidx[value.rows[i][j]] for (i, j) in self.positions)

    def value_of(self, key):
        n = self.shape.n
        zero = self.ring.zero
        grid = [[zero] * n for _ in range(n)]
        for slot, (i, j) in enumerate(self.positions):
            grid[i][j] = self.scalars[key[slot]]
        return ShapedMatrix(self.ring, self.shape, tuple(tuple(r) for r in grid))

    # -- lazily built global structure ----------------------------------------

    @property
    def units(self) -> frozenset:
        return self._corner(self.one_key).units

    def inverse_key(self, key):
        if key not in self.units:
            return None
        return self.keys[self._mul_row(key, self.keys).index(self.one_key)]

    @property
    def idempotent_keys(self) -> tuple:
        if self._idempotents is None:
            mul = self._mul
            self._idempotents = tuple(k for k in self.keys if mul(k, k) == k)
        return self._idempotents

    @property
    def jacobson_keys(self) -> frozenset:
        return self._corner(self.one_key).jacobson

    # -- key-level queries (cached) --------------------------------------------

    def commutant_keys(self, a) -> tuple:
        # A dict of 2N-product scans until the whole-ring corner exists,
        # then that corner's relation, which holds every key.
        got = self._comm_cache.get(a)
        if got is None:
            keys = self.keys
            got = tuple(compress(keys, map(eq, self._mul_row(a, keys), self._mul_col(a, keys))))
            self._comm_cache[a] = got
        return got

    def double_commutant_keys(self, a) -> tuple:
        self._corner(self.one_key)  # every key's commutant is read
        return tuple(x for x in self.keys if self.in_double_commutant(x, a))

    def in_double_commutant(self, p, a) -> bool:
        """p commutes with everything that commutes with a: comm(a) <= comm(p)."""
        if isinstance(self._comm_cache, _Relation):
            return self._comm_cache.within(a, p)
        return set(self.commutant_keys(p)).issuperset(self.commutant_keys(a))

    def is_qnil_key(self, a) -> bool:
        got = self._qnil_cache.get(a)
        if got is None:
            got = self._corner(self.one_key).is_qnil(a, self.commutant_keys(a))
            self._qnil_cache[a] = got
        return got

    def quasipolar_search_keys(self, a) -> tuple:
        add, units, idems = self._add, self.units, self.idempotent_keys
        found = []
        # p*a and a*p for every idempotent p, as one column and one row.
        for p, pa, ap in zip(idems, self._mul_col(a, idems), self._mul_row(a, idems)):
            if pa != ap:
                continue
            if not self.in_double_commutant(p, a):
                continue
            if add(a, p) not in units:
                continue
            if not self.is_qnil_key(ap):
                continue
            found.append(p)
        return tuple(found)

    def rad_clean_search_keys(self, a) -> tuple:
        mul, sub = self._mul, self._sub
        units, idems = self.units, self.idempotent_keys
        found = []
        for e, ea, ae in zip(idems, self._mul_col(a, idems), self._mul_row(a, idems)):
            if ea != ae:
                continue
            if sub(a, e) not in units:
                continue
            if mul(ea, e) in self._corner(e).jacobson:
                found.append(e)
        return tuple(found)

    def _corner(self, e_key) -> _Corner:
        got = self._corners.get(e_key)
        if got is None:
            if e_key == self.one_key:
                carrier = self.keys  # 1*k*1 = k: no products needed
            else:
                row = self._mul_row(e_key, self.keys)
                carrier = tuple(dict.fromkeys(self._mul_col(e_key, row)))
            got = self._corners[e_key] = _Corner(self, e_key, carrier)
            if e_key == self.one_key:
                self._comm_cache = got.commuting
        return got

    def corner_validate_key(self, a, e) -> bool:
        mul, sub = self._mul, self._sub
        if mul(e, e) != e:
            raise NotIdempotent(f"{self.value_of(e)!r} is not idempotent")
        if mul(e, a) != mul(a, e):
            raise QpolarError("corner_validate_key needs e commuting with a")
        f = sub(self.one_key, e)
        if mul(a, e) not in self._corner(e).units:
            return False
        af = mul(a, f)
        corner_f = self._corner(f)
        return corner_f.is_qnil(af, corner_f.commuting.get(af))


_VIEW_CACHE: dict = {}


def get_view(ring: LocalRing, shape: Shape) -> FiniteRingView:
    """Shared, memoized view per (ring, shape); views are expensive to build."""
    key = (ring, shape)
    got = _VIEW_CACHE.get(key)
    if got is None:
        got = _VIEW_CACHE[key] = FiniteRingView(ring, shape)
    return got
