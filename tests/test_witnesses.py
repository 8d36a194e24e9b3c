"""One verification path: stored check reports, typed errors, and cost pins.

The cost pins count calls by wrapping functions for the duration of one
test.  They are deterministic bounds on how often a request builds or
checks a result; raise one only with a changelog entry that says why.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qpolar
from qpolar import (
    M2,
    T3,
    QuasipolarWitness,
    RadCleanWitness,
    TruncatedSeriesRing,
    WitnessInvalid,
    parse_matrix,
    parse_ring,
    parse_shape,
    quasipolar_witness_shape,
    quasipolar_witness_t3,
    rad_clean_witness_t3,
    require_valid,
)
from qpolar import cli, m2, series, triangular
from qpolar.matrices import ShapedMatrix
from qpolar.oracle import get_view
from qpolar.witnesses import _radical_certificate

SRC = Path(qpolar.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _t3(z4):
    return ShapedMatrix.from_rows(z4, T3, [[1, 0, 0], [1, 2, 1], [0, 0, 3]])


class TestStoredReport:
    def test_report_is_computed_at_construction(self, z4):
        w = quasipolar_witness_t3(_t3(z4))
        assert w.report.passed
        assert w.report.entries == w.checks().entries
        assert w.to_dict()["checks"] == w.report.to_dict()

    def test_tampered_idempotent_fails_its_stored_report(self, z4):
        w = quasipolar_witness_t3(_t3(z4))
        bad = dataclasses.replace(w, p=w.p.scale(z4.element(2)))
        assert {"p_idempotent", "u_equals_a_plus_p"} <= set(bad.report.failed_names)
        assert bad.to_dict()["ok"] is False
        with pytest.raises(WitnessInvalid, match="p_idempotent"):
            require_valid(bad)

    def test_tampered_unit_fails_its_stored_report(self, z4):
        w = quasipolar_witness_t3(_t3(z4))
        bad = dataclasses.replace(w, u=w.u + ShapedMatrix.identity(z4, T3))
        assert bad.report.failed_names[0] == "u_equals_a_plus_p"
        with pytest.raises(WitnessInvalid, match="u_equals_a_plus_p"):
            require_valid(bad)

    def test_tampered_rad_clean_witness_is_refused(self, z4):
        a = _t3(z4)
        w = rad_clean_witness_t3(a)
        bad = RadCleanWitness(a=a, e=w.e, v=a + w.e, corner_j=w.corner_j)
        assert "v_equals_a_minus_e" in bad.report.failed_names
        with pytest.raises(WitnessInvalid):
            require_valid(bad)

    def test_refusal_survives_optimized_mode(self):
        script = (
            "import dataclasses, sys\n"
            "from qpolar import IntegersMod, T3, WitnessInvalid, quasipolar_witness_t3, require_valid\n"
            "from qpolar.matrices import ShapedMatrix\n"
            "z4 = IntegersMod(2, 2)\n"
            "a = ShapedMatrix.from_rows(z4, T3, [[1, 0, 0], [1, 2, 1], [0, 0, 3]])\n"
            "w = quasipolar_witness_t3(a)\n"
            "bad = dataclasses.replace(w, p=w.p.scale(z4.element(2)))\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit('not running under -O')\n"
            "try:\n"
            "    require_valid(bad)\n"
            "except WitnessInvalid:\n"
            "    print('refused:', ','.join(bad.report.failed_names))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("refused: p_idempotent")


def _count(monkeypatch, owner, name, keep=lambda *args: True):
    """Wrap owner.name for this test; returns a one-item list holding the count."""
    calls = [0]
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if keep(*args):
            calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _count_checks(monkeypatch):
    return (
        _count(monkeypatch, QuasipolarWitness, "checks"),
        _count(monkeypatch, RadCleanWitness, "checks"),
    )


def _run(capsys, argv):
    code = cli.main(argv)
    capsys.readouterr()
    assert code == 0


class TestCostPins:
    def test_t3_decompose_builds_one_idempotent_and_checks_two_witnesses(self, monkeypatch, capsys):
        idempotents = _count(monkeypatch, triangular, "spectral_idempotent_t3")
        qp_checks, rc_checks = _count_checks(monkeypatch)
        _run(capsys, ["decompose", "--ring", "Z2^2", "--shape", "T3",
                      "--matrix", "[1,0,0; 1,2,1; 0,0,3]", "--format", "json"])
        assert (idempotents[0], qp_checks[0], rc_checks[0]) == (1, 1, 1)

    @pytest.mark.parametrize(
        "ring,shape,matrix",
        [
            ("Z2^2", "T2", "[2,1; 0,1]"),
            ("Z2^2", "L3", "[1,0,0; 0,2,0; 3,0,2]"),
            ("Z2^2", "LOW3", "[2,0,0; 0,1,0; 1,3,2]"),
            ("Z2^2", "UP3", "[1,0,2; 0,2,1; 0,0,3]"),
            ("Z2^2", "S1", "[2,0,1; 0,3,0; 0,0,2]"),
            ("Z2^2", "S2", "[1,0,0; 0,2,0; 0,3,1]"),
            ("F3", "M2", "[1,1; 0,0]"),
            ("Zloc2", "M2", "[1,2; 2,4]"),
            ("series(Z2^2,8)", "M2", "[1,0; 0,2]"),
            ("F2", "TN1", "[1]"),
        ],
    )
    def test_other_decomposes_check_one_witness(self, monkeypatch, capsys, ring, shape, matrix):
        qp_checks, rc_checks = _count_checks(monkeypatch)
        _run(capsys, ["decompose", "--ring", ring, "--shape", shape, "--matrix", matrix])
        assert (qp_checks[0], rc_checks[0]) == (1, 0)

    @pytest.mark.parametrize("verb", [["lift"], ["decompose", "--shape", "M2"]])
    def test_series_split_lifts_once(self, monkeypatch, capsys, verb):
        lifts = _count(monkeypatch, series, "lift_root")
        base_splits = _count(
            monkeypatch, m2, "find_root_split",
            keep=lambda chi, ring: not isinstance(ring, TruncatedSeriesRing),
        )
        qp_checks, _ = _count_checks(monkeypatch)
        _run(capsys, [*verb, "--ring", "series(Z2^2,8)", "--matrix", "[1,0; 0,2]"])
        assert (lifts[0], base_splits[0], qp_checks[0]) == (1, 1, 1)

    @pytest.mark.parametrize(
        "shape,matrix",
        [
            ("T2", "[2,1; 0,1]"),
            ("T3", "[1,0,0; 1,2,1; 0,0,3]"),
            ("L3", "[1,0,0; 0,2,0; 3,0,2]"),
            ("LOW3", "[2,0,0; 0,1,0; 1,3,2]"),
            ("UP3", "[1,0,2; 0,2,1; 0,0,3]"),
            ("S1", "[2,0,1; 0,3,0; 0,0,1]"),
            ("S2", "[1,0,0; 0,2,0; 0,3,1]"),
        ],
    )
    def test_building_the_idempotent_makes_no_products(self, monkeypatch, shape, matrix):
        # Products counted up to the moment the idempotent is handed to
        # the witness builder; every matrix here has an off-diagonal solve.
        a = parse_matrix(parse_ring("Z2^2"), parse_shape(shape), matrix)
        products = _count(monkeypatch, ShapedMatrix, "__mul__")
        seen = []
        build = triangular.build_quasipolar

        def counted_build(a, p):
            seen.append(products[0])
            return build(a, p)

        monkeypatch.setattr(triangular, "build_quasipolar", counted_build)
        quasipolar_witness_shape(a)
        assert seen == [0]

    def test_checks_compute_each_shared_product_once(self, monkeypatch, z4):
        # a*p serves both the commutation and the q check, e*a both the
        # commutation and the corner check: 3 and 4 products.
        a = _t3(z4)
        qp, rc = quasipolar_witness_t3(a), rad_clean_witness_t3(a)
        products = _count(monkeypatch, ShapedMatrix, "__mul__")
        assert qp.checks().passed
        assert products[0] == 3
        products[0] = 0
        assert rc.checks().passed
        assert products[0] == 4

    @pytest.mark.parametrize(
        "matrix,count",
        [("[1,1; 0,1]", 3), ("[1,0; 0,2]", 3), ("[2,2; 2,2]", 3), ("[2,1; 0,2]", 4)],
        ids=["invertible", "split", "radical", "quasinilpotent"],
    )
    def test_only_a_nonradical_m2_quasinilpotent_part_costs_a_power(
        self, monkeypatch, z4, matrix, count
    ):
        # The certificate tries q itself first; q^2 is formed only when q
        # has a unit entry.
        w = quasipolar_witness_shape(parse_matrix(z4, M2, matrix))
        products = _count(monkeypatch, ShapedMatrix, "__mul__")
        assert w.checks().passed
        assert products[0] == count

    def test_formatting_a_zloc_series_witness_makes_no_fraction_compares(self, monkeypatch):
        # A zero test reads the raw value, so skipping each zero
        # coefficient while formatting compares no Fraction.
        ring = parse_ring("series(Zloc2,8)")
        w = quasipolar_witness_shape(parse_matrix(ring, M2, "[1 + x, 1/3*x; 2, 2 + 3*x^2]"))
        compares = _count(monkeypatch, Fraction, "__eq__")
        assert w.a.rows[0][1].payload[1].payload == Fraction(1, 3)
        assert compares[0] == 1  # the wrapper sees Fraction compares
        compares[0] = 0
        text = repr(w)
        assert compares[0] == 0
        assert text.startswith("QuasipolarWitness(a=[1 + x, 1/3*x; 2, 2 + 3*x^2], p=")


@pytest.mark.parametrize(
    "ring,shape", [("F2", M2), ("Z2^2", M2), ("F2", T3)], ids=lambda x: getattr(x, "name", x)
)
def test_radical_certificate_is_the_oracle_quasinilpotence(ring, shape):
    # On every key, some q^k (k <= n) is radical exactly when the oracle
    # finds q quasinilpotent from the definition.
    view = get_view(parse_ring(ring), shape)
    for key in view.keys:
        assert _radical_certificate(view.value_of(key)) == view.is_qnil_key(key), key


# The carriers of the module docstring's lemma test: 4,669 keys in all.
LEMMA_CARRIERS = [
    ("F2", "T3"), ("Z2^2", "T3"), ("F3", "T3"),
    ("Z2^2", "M2"), ("F3", "M2"), ("series(F2,2)", "M2"),
    ("F2", "M3"), ("F3", "TN3"), ("F2", "TN4"), ("Z2^3", "T2"),
]


def test_commuting_is_enough_on_every_key():
    # The witness checks alone, read in the oracle's units and radical:
    # p idempotent, pA = Ap, A + p a unit, some (Ap)^k (k <= n) radical.
    # Exactly one idempotent passes for every key, and it is in comm^2(A).
    total = 0
    for ring, shape in LEMMA_CARRIERS:
        view = get_view(parse_ring(ring), parse_shape(shape))
        mul, add, n = view._mul, view._add, view.shape.n
        units, radical, idems = view.units, view.jacobson_keys, view.idempotent_keys
        for a in view.keys:
            found = []
            for p, pa, ap in zip(idems, view._mul_col(a, idems), view._mul_row(a, idems)):
                if pa != ap or add(a, p) not in units:
                    continue
                power = ap
                for _ in range(1, n):
                    if power in radical:
                        break
                    power = mul(power, ap)
                if power in radical:
                    found.append(p)
            assert len(found) == 1, (ring, shape, a, found)
            assert view.in_double_commutant(found[0], a), (ring, shape, a)
        total += len(view.keys)
    assert total == 4_669
