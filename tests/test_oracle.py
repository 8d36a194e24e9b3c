"""Checks for the brute-force ground truth itself.

The oracle is only useful if it computes the definitions correctly, so
these tests pin small hand-checkable cases and cross-check the tabled
key arithmetic against direct matrix arithmetic.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
from itertools import compress, repeat
from operator import eq
from pathlib import Path

import pytest

from qpolar import (
    InfiniteRing,
    IntegersMod,
    L3,
    LOW3,
    LocalizedIntegers,
    M2,
    M3,
    NotIdempotent,
    NotQuasipolarError,
    PrimeField,
    QpolarError,
    S1,
    S2,
    T2,
    T3,
    TN,
    TruncatedSeriesRing,
    UP3,
    WitnessInvalid,
    classify_m2,
    get_view,
    parse_matrix,
    parse_ring,
    quasipolar_witness_shape,
    t3_case_sweep,
    t3_rad_clean_sweep,
    uniqueness_sweep,
)
from qpolar import oracle, sweeps
from qpolar.cli import main
from qpolar.matrices import Shape, ShapedMatrix
from qpolar.oracle import FiniteRingView
from qpolar.sweeps import m2_agreement_sweep, oracle_recheck, t2_exhaustive_sweep

KERNEL_SHAPES = (T2, T3, L3, LOW3, UP3, S1, S2, M2)


def m2_of(ring, a, b, c, d):
    return ShapedMatrix.from_rows(ring, M2, [[a, b], [c, d]])


def scalar(x):
    """The ring element x as a 1x1 matrix: the ring itself is TN(1)."""
    return ShapedMatrix.from_rows(x.ring, TN(1), [[x]])


def count_key_products(monkeypatch) -> list:
    """A list that grows by one per key product, on fresh views: one per
    ``_mul`` call, and the length of each ``_mul_row`` or ``_mul_col`` result."""
    monkeypatch.setattr(oracle, "_VIEW_CACHE", {})
    calls = []

    def counted(kernel, size):
        def wrapper(self, a, b):
            out = kernel(self, a, b)
            calls.extend(repeat(None, size(out)))
            return out

        return wrapper

    monkeypatch.setattr(FiniteRingView, "_mul", counted(FiniteRingView._mul, lambda _: 1))
    for name in ("_mul_row", "_mul_col"):
        monkeypatch.setattr(FiniteRingView, name, counted(getattr(FiniteRingView, name), len))
    return calls


def count_entry_evaluations(monkeypatch) -> list:
    """A list that grows by one per pair of projections whose entries a
    corner's mask-position pass evaluates: the length of each ``_entry_row``."""
    calls = []
    entry_row = FiniteRingView._entry_row

    def counted(self, t, a, bs):
        out = entry_row(self, t, a, bs)
        calls.extend(repeat(None, len(out)))
        return out

    monkeypatch.setattr(FiniteRingView, "_entry_row", counted)
    return calls


class TestCommutant:
    def test_nilpotent_jordan_block_over_f2(self, f2):
        view = get_view(f2, M2)
        n = m2_of(f2, 0, 1, 0, 0)
        comm = view.commutant_keys(view.key_of(n))
        assert len(comm) == 4
        expected = {
            view.key_of(m2_of(f2, a, b, 0, a)) for a in (0, 1) for b in (0, 1)
        }
        assert set(comm) == expected

    def test_central_elements_commute_with_everything(self, f2):
        view = get_view(f2, M2)
        total = len(view.keys)
        assert len(view.commutant_keys(view.zero_key)) == total
        assert len(view.commutant_keys(view.one_key)) == total

    def test_double_commutant_is_inside_commutant(self, f2):
        view = get_view(f2, T3)
        for key in view.keys[:: max(1, len(view.keys) // 40)]:
            a = view.value_of(key)
            comm = set(view.commutant_keys(key))
            assert set(view.double_commutant_keys(key)) <= comm

    def test_double_commutant_contains_zero_one_and_a(self, f3):
        view = get_view(f3, M2)
        for a in (
            m2_of(f3, 1, 2, 0, 1),
            m2_of(f3, 0, 1, 2, 0),
            m2_of(f3, 2, 0, 0, 2),
        ):
            dc = set(view.double_commutant_keys(view.key_of(a)))
            assert {view.zero_key, view.one_key, view.key_of(a)} <= dc

    def test_double_commutant_of_zero_is_the_center(self, f2):
        view = get_view(f2, T3)
        mul = view._mul
        center = {
            k
            for k in view.keys
            if all(mul(k, y) == mul(y, k) for y in view.keys)
        }
        assert set(view.double_commutant_keys(view.zero_key)) == center

    def test_key_tables_agree_with_direct_matrix_arithmetic(self, f2):
        # Recompute comm^2 of a corner idempotent without the index tables.
        view = get_view(f2, T3)
        e = ShapedMatrix.from_rows(f2, T3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        carrier = [view.value_of(k) for k in view.keys]
        comm = [x for x in carrier if x * e == e * x]
        direct = {x for x in carrier if all(x * y == y * x for y in comm)}
        assert {view.value_of(k) for k in view.double_commutant_keys(view.key_of(e))} == direct


class TestQuasinilpotence:
    def test_scalar_radical_is_qnil_and_units_are_not(self, z4):
        view = get_view(z4, TN(1))
        key = {x: view.key_of(scalar(z4.element(x))) for x in range(4)}
        assert view.is_qnil_key(key[2])
        assert view.is_qnil_key(key[0])
        assert not view.is_qnil_key(key[1])
        assert not view.is_qnil_key(key[3])

    def test_rank_one_doubling_matrix_is_qnil_over_z4(self, z4):
        view = get_view(z4, M2)
        assert view.is_qnil_key(view.key_of(m2_of(z4, 1, 1, 1, 1)))
        assert not view.is_qnil_key(view.one_key)

    def test_radical_elements_are_qnil(self, f2, z4):
        for ring, shape in ((f2, T3), (f2, M2), (z4, M2)):
            view = get_view(ring, shape)
            for k in view.jacobson_keys:
                assert view.is_qnil_key(k)

    def test_qnil_elements_admit_the_identity_witness(self, f2):
        view = get_view(f2, M2)
        for k in view.keys:
            if view.is_qnil_key(k):
                assert view.one_key in view.quasipolar_search_keys(k)


class TestSearches:
    def test_trivial_memberships(self, z4):
        view = get_view(z4, M2)
        zero, one = view.zero_key, view.one_key
        assert one in view.quasipolar_search_keys(zero)
        assert zero in view.quasipolar_search_keys(one)
        assert one in view.rad_clean_search_keys(zero)
        assert zero in view.rad_clean_search_keys(one)

    def test_unit_and_radical_scalars(self, z8):
        view = get_view(z8, TN(1))
        for s in z8.elements():
            key = view.key_of(scalar(s))
            if s.is_unit():
                assert view.zero_key in view.quasipolar_search_keys(key)
            else:
                assert view.one_key in view.quasipolar_search_keys(key)

    def test_search_results_satisfy_the_definition(self, f3):
        view = get_view(f3, M2)
        a = m2_of(f3, 1, 0, 0, 2)
        found = [view.value_of(k) for k in view.quasipolar_search_keys(view.key_of(a))]
        assert found
        for p in found:
            assert p * p == p
            assert (a + p).det2().is_unit()
            assert view.in_double_commutant(view.key_of(p), view.key_of(a))

    def test_rad_clean_search_matches_manual_check(self, z4):
        view = get_view(z4, M2)
        a = m2_of(z4, 1, 0, 0, 2)
        found = [view.value_of(k) for k in view.rad_clean_search_keys(view.key_of(a))]
        assert found
        for e in found:
            assert e * e == e
            assert (a - e).det2().is_unit()


class TestCornerValidation:
    def test_rejects_non_idempotents(self, z4):
        view = get_view(z4, M2)
        with pytest.raises(NotIdempotent):
            view.corner_validate_key(view.one_key, view.key_of(m2_of(z4, 2, 0, 0, 0)))

    def test_rejects_non_commuting_idempotent(self, f2):
        view = get_view(f2, M2)
        a = m2_of(f2, 0, 1, 0, 0)
        e = m2_of(f2, 1, 0, 0, 0)
        assert a * e != e * a
        with pytest.raises(QpolarError):
            view.corner_validate_key(view.key_of(a), view.key_of(e))

    def test_units_pass_with_the_identity_corner(self, z4):
        view = get_view(z4, M2)
        a = view.key_of(m2_of(z4, 1, 2, 0, 3))
        assert view.corner_validate_key(a, view.one_key)
        assert not view.corner_validate_key(a, view.zero_key)

    def test_radicals_pass_with_the_zero_corner(self, z4):
        view = get_view(z4, M2)
        a = view.key_of(m2_of(z4, 2, 0, 2, 2))
        assert view.corner_validate_key(a, view.zero_key)

    def test_split_matrices_pass_with_the_complement_idempotent(self, z4):
        # The decomposition idempotent p and the corner idempotent 1 - p
        # certify the same structure from opposite ends.
        from qpolar import quasipolar_witness_m2

        view = get_view(z4, M2)
        one = view.value_of(view.one_key)
        checked = 0
        for key in view.keys:
            a = view.value_of(key)
            if classify_m2(a).kind.value != "split":
                continue
            w = quasipolar_witness_m2(a)
            assert view.corner_validate_key(key, view.key_of(one - w.p))
            checked += 1
            if checked >= 24:
                break
        assert checked == 24


class TestViewPlumbing:
    def test_key_value_round_trip(self, z4):
        view = get_view(z4, T3)
        a = ShapedMatrix.from_rows(z4, T3, [[1, 0, 0], [2, 3, 1], [0, 0, 2]])
        assert view.value_of(view.key_of(a)) == a

    def test_key_of_rejects_foreign_values(self, z4, f2):
        view = get_view(z4, T3)
        with pytest.raises(QpolarError):
            view.key_of(m2_of(z4, 1, 0, 0, 1))
        with pytest.raises(QpolarError):
            view.key_of(z4.element(1))

    @pytest.mark.parametrize("ring", [IntegersMod(3, 1), PrimeField(5)], ids=repr)
    def test_oracle_recheck_refuses_a_witness_over_another_ring(self, ring):
        # Same shape, other ring: refused as foreign, not by a missing scalar.
        view = get_view(PrimeField(3), T2)
        a = ShapedMatrix.from_rows(ring, T2, [[1, 1], [0, 0]])
        with pytest.raises(QpolarError, match="does not live in this view"):
            oracle_recheck(quasipolar_witness_shape(a), view)

    def test_views_are_shared(self, z4):
        assert get_view(z4, T3) is get_view(z4, T3)
        assert get_view(z4, TN(1)) is get_view(z4, TN(1))
        assert get_view(z4, T3) is not get_view(z4, M2)

    def test_infinite_rings_are_refused(self):
        with pytest.raises(InfiniteRing):
            FiniteRingView(LocalizedIntegers(2), TN(1))

    def test_oversized_carriers_are_refused(self):
        with pytest.raises(InfiniteRing):
            FiniteRingView(IntegersMod(2, 3), M3)

    def test_oversized_scalar_tables_are_refused_before_enumeration(self, monkeypatch):
        # 2,048 scalars fit the key cap as 2,048 TN1 keys, but not as
        # 2,048^2 table entries.
        def enumerate_nothing(ring):
            raise RuntimeError(f"enumerated {ring} before checking the cap")

        ring = TruncatedSeriesRing(PrimeField(2), 11)
        assert oracle.TABLE_CAP < ring.cardinality() ** 2 <= oracle.KEY_PRODUCT_CAP
        monkeypatch.setattr(TruncatedSeriesRing, "elements", enumerate_nothing)
        with pytest.raises(InfiniteRing, match="exceeds"):
            FiniteRingView(ring, TN(1))

    def test_shapes_are_compared_by_value(self, z4, monkeypatch):
        monkeypatch.setattr(oracle, "_VIEW_CACHE", {})
        assert get_view(z4, Shape("T3", 3, T3.mask)) is get_view(z4, T3)
        # Same name, other mask: another carrier, so another view.
        impostor = Shape("T3", 3, UP3.mask)
        assert get_view(z4, impostor) is not get_view(z4, T3)
        with pytest.raises(QpolarError):
            get_view(z4, T3).key_of(ShapedMatrix.identity(z4, impostor))

    def test_unit_scan_is_two_sided(self, z4):
        view = get_view(z4, T3)
        mul = view._mul
        one = view.one_key
        for k in view.units:
            inv = view.inverse_key(k)
            assert mul(k, inv) == one
            assert mul(inv, k) == one
        assert view.inverse_key(view.zero_key) is None


# The interpreted key arithmetic the generated kernels replaced, kept as
# the reference they must agree with.


def loop_mul(view, a, b):
    at, mt = view._add_s, view._mul_s
    out = []
    for terms in view._prod_terms:
        acc = view._zero_s
        for ia, ib in terms:
            acc = at[acc][mt[a[ia]][b[ib]]]
        out.append(acc)
    return tuple(out)


def loop_add(view, a, b):
    return tuple(view._add_s[x][y] for x, y in zip(a, b))


def loop_sub(view, a, b):
    return tuple(view._add_s[x][view._neg_s[y]] for x, y in zip(a, b))


class TestGeneratedKernels:
    @pytest.mark.parametrize(
        "case",
        [(s, "F2") for s in KERNEL_SHAPES] + [(TN(1), "Z8"), (M2, "Z4")],
        ids=lambda c: "scalar" if c[0].n == 1 else c[0].name + ("" if c[1] == "F2" else "-Z2^2"),
    )
    def test_equal_to_the_loop_on_every_key_pair(self, f2, z4, z8, case):
        # Every matrix shape over F2; the scalars, as TN1, over Z/8; M2 over
        # Z2^2, where a row a*b and a column b*a differ.
        shape, name = case
        view = FiniteRingView({"F2": f2, "Z4": z4, "Z8": z8}[name], shape)
        keys = view.keys
        for a in keys:
            for b in keys:
                assert view._mul(a, b) == loop_mul(view, a, b)
                assert view._add(a, b) == loop_add(view, a, b)
                assert view._sub(a, b) == loop_sub(view, a, b)
            assert view._mul_row(a, keys) == [loop_mul(view, a, b) for b in keys]
            assert view._mul_col(a, keys) == [loop_mul(view, b, a) for b in keys]
            assert view._mul_row(a, ()) == view._mul_col(a, []) == []
        # A row over a sub-corner carrier e*R*e, in carrier order.
        e = next((e for e in view.idempotent_keys if e not in (view.zero_key, view.one_key)), None)
        if e is not None:
            carrier = view._corner(e).carrier
            assert 1 < len(carrier) < len(keys)
            for a in carrier:
                assert view._mul_row(a, carrier) == [loop_mul(view, a, b) for b in carrier]
                assert view._mul_col(a, carrier) == [loop_mul(view, b, a) for b in carrier]

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: s.name)
    def test_agree_with_matrix_arithmetic(self, z4, shape):
        view = get_view(z4, shape)
        rng = random.Random(20131)
        val = view.value_of
        for _ in range(200):
            a, b = rng.choice(view.keys), rng.choice(view.keys)
            assert val(view._mul(a, b)) == val(a) * val(b)
            assert val(view._add(a, b)) == val(a) + val(b)
            assert val(view._sub(a, b)) == val(a) - val(b)

    @pytest.mark.parametrize(
        "sweep,ring,products,evaluations",
        [
            # The whole-ring corner's pass, whose relation answers every comm^2
            # check, evaluates m(m+1)/2 pairs at a position with m distinct
            # projections: 27 and 64 at T3's two off-diagonal positions, 3
            # and 4 at its three diagonal ones.  59,049 and 1,048,576 key
            # products (N^2 for N = 243 and 1,024) while that corner took a
            # product for every pair of keys; over Z2^2, 2,344,960 before the
            # one-pass corner.
            (t3_case_sweep, PrimeField(3), 0, 774),
            (t3_case_sweep, IntegersMod(2, 2), 0, 4_190),
            # The passes: 512 projections at T2's off-diagonal position and
            # 8 at each diagonal one; 64 at each of M2's four positions.
            # 296,448 and 81,792 key products while the whole-ring corner took
            # a product for every pair of keys (N^2 = 262,144 and 65,536).
            # 296,960 and 81,696 before the search read p*a and a*p as one
            # column and one row, reusing a*p for the qnil test (-512 and
            # -288), and before each qnil test computed its whole row instead
            # of stopping at the first non-unit (+0 and +384).
            # 1,078,144 and 245,376 while each comm^2 check scanned
            # commutants; 1,172,352 and 258,176 before that, while each
            # witness was rechecked on top of the search that subsumes it.
            (lambda ring: uniqueness_sweep(ring, T2), IntegersMod(2, 3), 34_304, 131_400),
            (lambda ring: uniqueness_sweep(ring, M2), IntegersMod(2, 2), 16_256, 8_320),
        ],
        ids=["t3-case-F3", "t3-case-Z2^2", "t2-exhaustive-Z2^3", "m2-agreement-Z2^2"],
    )
    def test_sweep_costs_pinned_key_products(self, monkeypatch, sweep, ring, products,
                                             evaluations):
        # A cost pin: units and commutants come from one pass over the mask
        # positions, and every product and entry evaluation stays visible on
        # a class-level method.
        calls = count_key_products(monkeypatch)
        entries = count_entry_evaluations(monkeypatch)
        report = sweep(ring)
        assert not report.failures
        assert len(calls) == products
        assert len(entries) == evaluations

    @pytest.mark.parametrize("shape", [T2, M2, L3], ids=lambda s: s.name)
    def test_sweeps_require_the_only_search_hit(self, z4, monkeypatch, shape):
        # The quasipolar idempotent over a commutative local ring is unique,
        # so a search that also finds another idempotent is a failure.
        monkeypatch.setattr(oracle, "_VIEW_CACHE", {})
        search = FiniteRingView.quasipolar_search_keys

        def one_more(view, a):
            found = search(view, a)
            extra = next(e for e in view.idempotent_keys if e not in found)
            return found + (extra,)

        monkeypatch.setattr(FiniteRingView, "quasipolar_search_keys", one_more)
        report = uniqueness_sweep(z4, shape)
        assert len(report.failures) == report.total
        assert "expected" in report.failures[0]

    @pytest.mark.parametrize(
        "kept,shape", [(t2_exhaustive_sweep, T2), (m2_agreement_sweep, M2)],
        ids=["t2_exhaustive_sweep", "m2_agreement_sweep"],
    )
    def test_kept_sweep_names_run_the_uniqueness_sweep(self, z4, kept, shape):
        # The two names stay only for the benchmark tracer's spans.
        assert kept(z4).to_dict() == uniqueness_sweep(z4, shape).to_dict()


ENGINE_SHAPES = (T2, T3, L3, LOW3, UP3, S1, S2, TN(1), M2)


@pytest.mark.parametrize("spelling", ["F2", "F3", "Z2^2"])
@pytest.mark.parametrize("shape", ENGINE_SHAPES, ids=lambda s: s.name)
def test_uniqueness_sweep_covers_every_engine_shape(shape, spelling):
    # Over a commutative local ring the quasipolar idempotent is unique, so
    # on every carrier the search finds exactly what the engine builds.
    ring = parse_ring(spelling)
    report = uniqueness_sweep(ring, shape)
    assert report.failures == []
    assert report.total == ring.cardinality() ** len(shape.positions)
    assert sum(report.counts.values()) == report.total


def _engine_fails_on(name, exc):
    real = getattr(sweeps, name)

    def patch(target):
        def engine(a):
            if a == target:
                raise exc("planted")
            return real(a)

        return engine

    return sweeps, name, patch


def _wrong_rad_clean_e():
    # A is not idempotent, so the oracle's rad-clean search never finds it.
    real = sweeps.rad_clean_witness_t3

    def patch(target):
        return lambda a: dataclasses.replace(real(a), e=a) if a == target else real(a)

    return sweeps, "rad_clean_witness_t3", patch


def _corner_disagrees(complement_only):
    real = FiniteRingView.corner_validate_key

    def patch(target):
        def corner(view, a, e):
            if a != view.key_of(target):
                return real(view, a, e)
            complements = {view._sub(view.one_key, p) for p in view.quasipolar_search_keys(a)}
            return complement_only and e not in complements

        return corner

    return FiniteRingView, "corner_validate_key", patch


# Each case breaks one matrix for the sweep that `qp oracle` runs on the
# shape and check: (shape, check, (owner, name, patch of the target), problem).
SWEEP_FAULTS = {
    "t3-case-engine-raises": (
        T3, "quasipolar", _engine_fails_on("quasipolar_witness_t3", WitnessInvalid), "planted"),
    "uniqueness-engine-obstructed": (
        M2, "quasipolar", _engine_fails_on("quasipolar_witness_shape", NotQuasipolarError), "planted"),
    "rad-clean-wrong-e": (T3, "rad-clean", _wrong_rad_clean_e(), "constructed e missing"),
    "corner-search-disagrees": (T3, "corner", _corner_disagrees(False), "search=hit corner=miss"),
    "corner-complement-fails": (T3, "corner", _corner_disagrees(True), "complement of found p"),
}
SWEEP_TARGETS = {T3: "[1,0,0;1,1,1;0,0,1]", M2: "[1,1;0,1]"}


@pytest.mark.parametrize("case", SWEEP_FAULTS)
def test_a_sweep_reports_the_one_matrix_that_misbehaves(monkeypatch, capsys, case):
    shape, check, (owner, name, patch), problem = SWEEP_FAULTS[case]
    target = parse_matrix(PrimeField(2), shape, SWEEP_TARGETS[shape])
    assert target * target != target
    monkeypatch.setattr(owner, name, patch(target))
    argv = ["oracle", "--ring", "F2", "--shape", shape.name, "--check", check]
    assert main(argv + ["--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["passed"] is False
    assert len(report["failures"]) == 1
    assert report["failures"][0].startswith(f"{target!r}: ")
    assert problem in report["failures"][0]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "MISMATCHES FOUND"


# The view's own scans and the inline corner loop that the whole-ring
# corner replaced, kept as the reference it must agree with.


def loop_units(view):
    """Units and each unit's first right inverse, by the full N^2 scan."""
    mul, one = view._mul, view.one_key
    rights, lefts = {}, set()
    for a in view.keys:
        for b in view.keys:
            if mul(a, b) == one:
                rights.setdefault(a, b)
                lefts.add(b)
    units = set(rights) & lefts
    return frozenset(units), {a: rights[a] for a in units}


def loop_jacobson(view, units):
    mul, sub, one = view._mul, view._sub, view.one_key
    return frozenset(
        x for x in view.keys if all(sub(one, mul(x, y)) in units for y in view.keys)
    )


def loop_is_qnil(view, a, units):
    mul, add, one = view._mul, view._add, view.one_key
    return all(add(one, mul(a, x)) in units for x in view.commutant_keys(a))


def loop_corner(view, e):
    """Carrier of e*R*e through products, and its units by the two-sided scan."""
    mul = view._mul
    seen = {}
    for k in view.keys:
        seen.setdefault(mul(mul(e, k), e))
    carrier = tuple(seen)
    rights, lefts = set(), set()
    for a in carrier:
        for b in carrier:
            if mul(a, b) == e:
                rights.add(a)
                lefts.add(b)
    return carrier, rights & lefts


def loop_corner_validate(view, a, e):
    mul, add = view._mul, view._add
    f = view._sub(view.one_key, e)
    if mul(a, e) not in loop_corner(view, e)[1]:
        return False
    af = mul(a, f)
    carrier, f_units = loop_corner(view, f)
    for x in carrier:
        if mul(x, af) != mul(af, x):
            continue
        if add(f, mul(af, x)) not in f_units:
            return False
    return True


class TestWholeRingCorner:
    @pytest.mark.parametrize(
        "case",
        [(s, "F2") for s in KERNEL_SHAPES] + [(TN(1), "Z8"), (M2, "Z4")],
        ids=lambda c: f"{'scalar' if c[0].n == 1 else c[0].name}-{c[1]}",
    )
    def test_equal_to_the_view_scans_on_every_key(self, f2, z4, z8, case):
        # Every matrix shape over F2; the scalars, as TN1, over Z/8; M2 over Z2^2.
        shape, name = case
        ring = {"F2": f2, "Z4": z4, "Z8": z8}[name]
        view = FiniteRingView(ring, shape)
        units, inverses = loop_units(view)
        assert view.units == units
        assert view.jacobson_keys == loop_jacobson(view, units)
        for k in view.keys:
            assert view.inverse_key(k) == inverses.get(k)
            assert view.is_qnil_key(k) == loop_is_qnil(view, k, units)
        carrier = view._corner(view.one_key).carrier
        assert carrier == loop_corner(view, view.one_key)[0]

    @pytest.mark.parametrize("shape", (M2, T3), ids=lambda s: s.name)
    def test_corner_validate_equal_to_the_inline_loop(self, f2, shape):
        view = FiniteRingView(f2, shape)
        pairs = 0
        for k in view.keys:
            for e in view.idempotent_keys:
                if view.in_double_commutant(e, k):
                    assert view.corner_validate_key(k, e) == loop_corner_validate(view, k, e)
                    pairs += 1
        assert pairs > len(view.keys)

    def test_t3_rad_clean_sweep_over_f3_costs_pinned(self, monkeypatch):
        # The unit pass runs once per corner, shared by units, the radical
        # and every qnil test; idempotent corners build no relation.
        # 115,580 key products while each corner took a product for every
        # pair of its keys (59,049 for the whole ring alone).  103,595 while
        # the radical scan stopped at the first y with e - x*y no unit; each
        # survivor of the y = e test now computes its whole row (+12,561),
        # and the search reuses e*a for e*a*e (-576).
        calls = count_key_products(monkeypatch)
        entries = count_entry_evaluations(monkeypatch)
        report = t3_rad_clean_sweep(PrimeField(3))
        assert not report.failures
        assert len(calls) == 51_292
        assert len(entries) == 3_656
        view = get_view(PrimeField(3), T3)
        assert view.units is view._corner(view.one_key).units
        assert all(c._commuting is None for e, c in view._corners.items() if e != view.one_key)


def pairwise_corner(view, corner):
    """A corner's units and commutants by the pairwise loop the mask-position
    pass replaced: a row a*b and a column b*a for every carrier element a."""
    e, carrier = corner.identity, corner.carrier
    rights, lefts, commutants = set(), set(), {}
    for a in carrier:
        ab, ba = view._mul_row(a, carrier), view._mul_col(a, carrier)
        commutants[a] = tuple(compress(carrier, map(eq, ab, ba)))
        if e in ab:
            rights.add(a)
        if e in ba:
            lefts.add(a)
    return frozenset(rights & lefts), commutants


class TestMaskPositionPass:
    @pytest.mark.parametrize(
        "ring,shape,projections",
        [(IntegersMod(2, 2), T3, 64), (IntegersMod(2, 3), T2, 512), (PrimeField(2), M3, 32)],
        ids=["T3-Z2^2", "T2-Z2^3", "M3-F2"],
    )
    def test_whole_ring_equal_to_the_pairwise_loop(self, ring, shape, projections):
        # Each case's most projections at one position, from 32 (M3 over F2)
        # to 512 (T2 over Z2^3), all through the one construction.
        view = FiniteRingView(ring, shape)
        most = max(len(set(zip(*([k[s] for k in view.keys] for s in slots))))
                   for slots in view._entry_slots)
        assert most == projections
        corner = view._corner(view.one_key)
        units, commutants = pairwise_corner(view, corner)
        assert corner.units == units == loop_units(view)[0]
        assert all(oracle._members(corner.carrier, corner.commuting[a]) == want
                   for a, want in commutants.items())

    def test_every_idempotent_corner_of_tn4_equal_to_the_pairwise_loop(self, f2):
        view = FiniteRingView(f2, TN(4))
        assert len(view.idempotent_keys) == 162
        for e in view.idempotent_keys:
            corner = view._corner(e)
            units, commutants = pairwise_corner(view, corner)
            assert corner.units == units
            assert all(oracle._members(corner.carrier, corner.commuting[a]) == want
                       for a, want in commutants.items())

    @pytest.mark.slow
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_whole_ring_corner_at_the_cap_grows_memory_by_less_than_n_squared_bytes(self):
        # T2 over Z2^4: 4,096 keys, N^2 at the cap; a fresh process, so the
        # peak before the corner is the view's own.
        script = (
            "import resource\n"
            "from qpolar import IntegersMod, T2\n"
            "from qpolar.oracle import FiniteRingView\n"
            "view = FiniteRingView(IntegersMod(2, 4), T2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "view._corner(view.one_key)\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "print(len(view.keys), grown * 1024)\n"
        )
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        n, grown = map(int, proc.stdout.split())
        assert n == 4096
        assert grown < n * n


class TestCommutationRelation:
    @pytest.mark.parametrize(
        "case", [(T3, "F2"), (M2, "Z4"), (TN(1), "Z8")], ids=["T3-F2", "M2-Z2^2", "TN1-Z8"]
    )
    def test_equal_to_the_loop_on_every_key_of_every_corner(self, f2, z4, z8, case):
        shape, name = case
        view = FiniteRingView({"F2": f2, "Z4": z4, "Z8": z8}[name], shape)
        mul = view._mul
        for e in view.idempotent_keys:
            corner = view._corner(e)
            for a in corner.carrier:
                want = tuple(x for x in corner.carrier if mul(x, a) == mul(a, x))
                assert oracle._members(corner.carrier, corner.commuting[a]) == want

    @pytest.mark.parametrize("case", [(T3, "F2"), (M2, "Z4")], ids=["T3-F2", "M2-Z2^2"])
    def test_commutants_unchanged_once_the_whole_ring_corner_exists(self, f2, z4, case):
        # Scans before, relation reads after: the same tuples and comm^2 answers.
        shape, name = case
        view = FiniteRingView({"F2": f2, "Z4": z4}[name], shape)

        def answers():
            comm = [view.commutant_keys(k) for k in view.keys]
            comm2 = [[view.in_double_commutant(e, k) for e in view.idempotent_keys]
                     for k in view.keys]
            return comm, comm2

        before = answers()
        assert not view._corners
        view._corner(view.one_key)
        # Every key is now a hit in the commutant cache.
        assert all(k in view._comm_cache for k in view.keys)
        assert answers() == before

    def test_decompose_with_oracle_scans_two_commutants_and_builds_no_corner(
        self, capsys, monkeypatch
    ):
        from qpolar.cli import main

        calls = count_key_products(monkeypatch)
        argv = ["decompose", "--ring", "Z2^2", "--shape", "T3",
                "--matrix", "[1,0,0; 1,2,1; 0,0,3]", "--oracle"]
        assert main(argv) == 0
        assert "evidence: finite-exhaustive" in capsys.readouterr().out
        view = get_view(IntegersMod(2, 2), T3)
        assert len(calls) <= 4 * len(view.keys)
        assert not view._corners
