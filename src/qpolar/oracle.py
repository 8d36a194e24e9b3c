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

A corner's units and its commutants come from one pass over the mask
positions.  Entry t of a*b and of b*a reads only the slots in t's
product terms (3 of T3's 5 at most), so the pass projects the carrier
onto those slots and evaluates the two entries once per unordered pair of
distinct projections, through the class-level
``FiniteRingView._entry_row``; wrapping it counts every evaluation.  Each
projection's flags are spread to carrier order and the positions are met
as ints.  Every commutant is one such int over its carrier, bit i set
when the element commutes with carrier[i] (carrier[0] at the most
significant end), so comm(a) <= comm(p) is one int test.  The view caches
each key's commutant: until the whole-ring corner exists, it is a scan of
2N products, so a single ``qp decompose --oracle`` check stays O(N); the
exhaustive verbs build that corner, whose pass fills the cache at once.
N^2 is capped at 2^24, which admits 4,096 keys; the ns x ns scalar
tables are capped at 10^6 entries.  Both caps are checked before
anything is enumerated or tabulated.
"""

from __future__ import annotations

from itertools import compress, product, starmap
from operator import and_, eq, itemgetter

from .matrices import Shape, ShapedMatrix
from .rings import InfiniteRing, LocalRing, QpolarError

KEY_PRODUCT_CAP = 2**24
TABLE_CAP = 10**6

# Flag bytes 0 and 1 as the binary digits that int(..., 2) reads, and back.
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


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


def _members(carrier: tuple, bits: int) -> tuple:
    """The elements of carrier whose bits are set, carrier[0] at the most
    significant end."""
    return tuple(compress(carrier, f"{bits:0{len(carrier)}b}".encode().translate(_FLAGS)))


def _two_sided(e_t, pairs) -> bytes:
    """Flags for x*y == e == y*x at one position."""
    return bytes(map((e_t, e_t).__eq__, pairs))


def _commute(e_t, pairs) -> bytes:
    """Flags for x*y == y*x at one position."""
    return bytes(starmap(eq, pairs))


class _Corner:
    """The corner ring e*R*e with identity e: its carrier, units, commutants,
    radical and quasinilpotence test.  The whole ring is the corner at the
    identity.

    Units and commutants come from one pass over the mask positions.  Entry
    t of a*b and of b*a reads only the slots in t's product terms, so the
    pass evaluates the pair of entries once for each pair of distinct
    projections of the carrier onto those slots, spreads each projection's
    flags to carrier order and meets the positions as ints.  x is a unit when
    some y has x*y == e == y*x.  The commutants are built with the units for
    the whole ring, which every comm^2 check reads, and on first read
    elsewhere.
    """

    __slots__ = ("identity", "carrier", "units", "_commuting", "_jacobson", "_units_minus_e",
                 "_view")

    def __init__(self, view: FiniteRingView, e_key, carrier: tuple, commuting: bool):
        self._view = view
        self.identity = e_key
        self.carrier = carrier
        met = self._meet([_two_sided, _commute] if commuting else [_two_sided])
        self.units = frozenset(compress(carrier, met[0]))
        self._commuting = dict(zip(carrier, met[1])) if commuting else None
        self._jacobson = self._units_minus_e = None

    def _meet(self, tests) -> list:
        """For each test, one int per carrier element x whose bit i (counted
        as in :func:`_members`) is set when the test holds for (x,
        carrier[i]) at every mask position.  A test maps e's entry e_t and
        the pairs ((u*v)_t, (v*u)_t), v over distinct projections, to one
        flag byte per pair; both tests are symmetric in u and v."""
        view, carrier, e_key = self._view, self.carrier, self.identity
        met = [None] * len(tests)
        for t, slots in enumerate(view._entry_slots):
            proj = list(zip(*(map(itemgetter(s), carrier) for s in slots)))
            distinct = list(dict.fromkeys(proj))
            n = len(distinct)
            order = list(map(dict(zip(distinct, range(n))).__getitem__, proj))
            # A projection's row of binary digits, spread to carrier order.
            if n <= 256:
                order_bytes = bytes(order)
                spread = lambda row: order_bytes.translate(row.ljust(256, b"0"))
            else:
                pick = itemgetter(*order)
                spread = lambda row: bytes(pick(row))
            # An n x n digit table per test, each row evaluated from the
            # diagonal on and copied down its column.
            tables = [bytearray(n * n) for _ in tests]
            for i, u in enumerate(distinct):
                pairs = view._entry_row(t, u, distinct[i:])
                for table, test in zip(tables, tests):
                    table[i * n + i : i * n + n] = table[i * n + i :: n] = (
                        test(e_key[t], pairs).translate(_DIGITS))
            for k, table in enumerate(tables):
                rows = [int(spread(table[i : i + n]), 2) for i in range(0, n * n, n)]
                got = list(map(rows.__getitem__, order))
                met[k] = got if met[k] is None else list(map(and_, met[k], got))
        return met

    @property
    def commuting(self) -> dict:
        """Each carrier element's commutant, as bits over the carrier."""
        if self._commuting is None:
            self._commuting = dict(zip(self.carrier, self._meet([_commute])[0]))
        return self._commuting

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
        def sums(term, terms=self._prod_terms):
            out = []
            for (ia, ib), *rest in terms:
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
        # Entry t of a row and of a column at once, on keys projected onto
        # the slots of t's product terms.
        self._entry_slots, self._entry_k = [], []
        for terms in self._prod_terms:
            local = {s: i for i, s in enumerate(sorted({s for term in terms for s in term}))}
            on = [[(local[ia], local[ib]) for ia, ib in terms]]
            hoist = "; ".join(f"r{i} = M[a{i}]; c{i} = T[a{i}]" for i in local.values())
            entries = sums(lambda i, j: f"r{i}[b{j}]", on) + sums(lambda i, j: f"c{j}[b{i}]", on)
            self._entry_slots.append(tuple(local))
            self._entry_k.append(_straight_line(len(local), entries, tables, hoist))

        self.keys = tuple(product(range(ns), repeat=npos))
        z, o = self._zero_s, self._one_s
        self.zero_key = tuple(z for _ in range(npos))
        self.one_key = tuple(o if i in diag else z for i in range(npos))

        self._comm_cache: dict = {}
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

    def _entry_row(self, t, a, bs) -> list:
        return self._entry_k[t](a, bs)  # [((a*b)_t, (b*a)_t) for b in bs], on projections

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
        return _members(self.keys, self._commutant(a))

    def _commutant(self, a) -> int:
        # A 2N-product scan until the whole-ring corner fills the cache.
        got = self._comm_cache.get(a)
        if got is None:
            keys = self.keys
            flags = bytes(map(eq, self._mul_row(a, keys), self._mul_col(a, keys)))
            got = self._comm_cache[a] = int(flags.translate(_DIGITS), 2)
        return got

    def double_commutant_keys(self, a) -> tuple:
        self._corner(self.one_key)  # every key's commutant is read
        return tuple(x for x in self.keys if self.in_double_commutant(x, a))

    def in_double_commutant(self, p, a) -> bool:
        """p commutes with everything that commutes with a: comm(a) <= comm(p)."""
        return not self._commutant(a) & ~self._commutant(p)

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
            whole = e_key == self.one_key
            if whole:
                carrier = self.keys  # 1*k*1 = k: no products needed
            else:
                row = self._mul_row(e_key, self.keys)
                carrier = tuple(dict.fromkeys(self._mul_col(e_key, row)))
            got = self._corners[e_key] = _Corner(self, e_key, carrier, whole)
            if whole:  # its carrier is self.keys: every key's commutant at once
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
        return corner_f.is_qnil(af, _members(corner_f.carrier, corner_f.commuting[af]))


_VIEW_CACHE: dict = {}


def get_view(ring: LocalRing, shape: Shape) -> FiniteRingView:
    """Shared, memoized view per (ring, shape); views are expensive to build."""
    key = (ring, shape)
    got = _VIEW_CACHE.get(key)
    if got is None:
        got = _VIEW_CACHE[key] = FiniteRingView(ring, shape)
    return got
