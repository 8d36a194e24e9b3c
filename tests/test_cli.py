"""Command line surface: output stability, JSON fidelity, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qpolar.cli as cli
from qpolar import (
    PrimeField,
    QuasipolarWitness,
    TruncatedSeriesRing,
    matrix_from_json,
)
from qpolar.cli import main
from qpolar.commutant import BLEACHED_EVALUATION_CAP
from qpolar.rings import MAX_PRIME, MAX_SERIES_PRECISION, parse_ring

T3_ARGS = [
    "decompose",
    "--ring",
    "Z2^2",
    "--shape",
    "T3",
    "--matrix",
    "[1,0,0; 1,2,1; 0,0,3]",
]

LIFT_ARGS = ["lift", "--ring", "series(Z2^2,8)", "--matrix", "[1,0; 0,2]"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDeterminism:
    def test_text_output_is_stable(self, capsys):
        _, first = run(capsys, T3_ARGS)
        _, second = run(capsys, T3_ARGS)
        assert first == second

    def test_json_output_is_stable_and_sorted(self, capsys):
        _, first = run(capsys, T3_ARGS + ["--format", "json"])
        _, second = run(capsys, T3_ARGS + ["--format", "json"])
        assert first == second
        payload = json.loads(first)
        assert list(payload) == sorted(payload)


class TestJsonFidelity:
    def test_witness_round_trips_through_json(self, capsys):
        # A decompose and a lift document each rebuild their witness from
        # a, p, u and q, and the rebuilt checks are the printed ones.
        for argv in (T3_ARGS, LIFT_ARGS):
            code, out = run(capsys, argv + ["--format", "json"])
            assert code == 0
            payload = json.loads(out)
            w = payload["witness"]
            rebuilt = QuasipolarWitness(**{name: matrix_from_json(w[name]) for name in "apuq"})
            assert rebuilt.checks().passed is w["ok"] is payload["ok"] is True
            assert rebuilt.checks().to_dict() == w["checks"]

    def test_classify_json_matches_the_library(self, capsys):
        code, out = run(
            capsys,
            [
                "classify-m2",
                "--ring",
                "Zloc2",
                "--matrix",
                "[0,-2; 1,1]",
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "not-quasipolar"
        assert "discriminant" in payload["reason"]


def _decompose(ring, shape, matrix, *extra):
    return ["decompose", "--ring", ring, "--shape", shape, "--matrix", matrix, *extra]


class TestEvidenceLabel:
    # The CLI prints one comm^2 evidence label per witness: polynomial-in-a
    # for M2, finite-exhaustive after an --oracle recheck, and otherwise
    # case-construction.
    @pytest.mark.parametrize(
        "argv,label",
        [
            (_decompose("Z2^2", "T3", "[1,0,0; 1,2,1; 0,0,3]"), "case-construction"),
            (_decompose("Z2^2", "T3", "[1,0,0; 1,2,1; 0,0,3]", "--oracle"), "finite-exhaustive"),
            (_decompose("F3", "T2", "[1,1; 0,0]"), "case-construction"),
            (_decompose("F3", "T2", "[1,1; 0,0]", "--oracle"), "finite-exhaustive"),
            (_decompose("F2", "L3", "[1,0,0; 0,0,0; 1,0,0]"), "case-construction"),
            (_decompose("F2", "L3", "[1,0,0; 0,0,0; 1,0,0]", "--oracle"), "finite-exhaustive"),
            (_decompose("F3", "TN1", "[2]"), "case-construction"),
            (_decompose("F3", "TN1", "[2]", "--oracle"), "finite-exhaustive"),
            (_decompose("Zloc2", "S1", "[1/3,0,5; 0,2,0; 0,0,4]"), "case-construction"),
            (_decompose("F3", "M2", "[1,1; 1,2]"), "polynomial-in-a"),
            (_decompose("F3", "M2", "[1,1; 1,2]", "--oracle"), "polynomial-in-a"),
            (_decompose("series(F2,2)", "M2", "[1,0; 0,0]", "--oracle"), "polynomial-in-a"),
            (LIFT_ARGS, "polynomial-in-a"),
        ],
        ids=[
            "T3", "T3-oracle", "T2", "T2-oracle", "L3", "L3-oracle", "TN1", "TN1-oracle",
            "S1-Zloc2", "M2", "M2-oracle", "M2-series-oracle", "lift",
        ],
    )
    def test_text_and_json_print_the_label(self, capsys, argv, label):
        code, out = run(capsys, argv)
        assert code == 0
        assert out.splitlines().count(f"evidence: {label}") == 1
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["witness"]["comm2_evidence"] == label


class TestExitCodes:
    def test_decompose_succeeds(self, capsys):
        code, out = run(capsys, T3_ARGS)
        assert code == 0
        assert "verified" in out

    def test_obstructed_matrix_is_a_clean_negative(self, capsys):
        code, out = run(
            capsys,
            [
                "decompose",
                "--ring",
                "Zloc2",
                "--shape",
                "M2",
                "--matrix",
                "[0,-2; 1,1]",
            ],
        )
        assert code == 0
        assert "not quasipolar" in out
        assert "discriminant" in out

    def test_bad_ring_spelling(self, capsys):
        code, _ = run(capsys, ["bleached", "--ring", "banana"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,why",
        [
            (["oracle", "--ring", "F2", "--shape", "T2", "--check", "rad-clean"],
             "rad-clean sweep is defined for shape T3"),
            (["oracle", "--ring", "F2", "--shape", "L3"], "no oracle sweep for shape L3"),
            (["lift", "--ring", "F3", "--matrix", "[1,0; 0,2]"], "lift needs a series ring"),
        ],
        ids=["rad-clean-T2", "oracle-L3", "lift-F3"],
    )
    def test_verb_refusals_print_only_a_reason(self, capsys, argv, why):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert why in captured.err
        assert captured.out == ""

    def test_bad_matrix_literal(self, capsys):
        code, _ = run(
            capsys,
            ["decompose", "--ring", "F2", "--shape", "T3", "--matrix", "[1,0; 0,1]"],
        )
        assert code == 2

    def test_bad_shape_name(self, capsys):
        code, _ = run(
            capsys,
            ["decompose", "--ring", "F2", "--shape", "T9", "--matrix", "[1]"],
        )
        assert code == 2

    def test_full_3x3_has_no_engine(self, capsys, monkeypatch):
        # The refusal names the missing engine, with or without --oracle,
        # before any view is built: not the view's caps (F3) or its ring (Zloc2).
        def build_no_view(ring, shape):
            raise AssertionError(f"built a view of {ring} / {shape.name}")

        monkeypatch.setattr(cli, "get_view", build_no_view)
        for ring in ("F2", "F3", "Zloc2"):
            for extra in ([], ["--oracle"]):
                code = main(_decompose(ring, "M3", "[1,0,0; 0,1,0; 0,0,1]", *extra))
                assert code == 2
                assert "no constructive decomposition for shape M3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape,matrix",
        [("T3", "[1,0,0; 0,1,0; 0,0,1]"), ("M2", "[0,-2; 1,1]")],
        ids=["T3", "M2-obstructed"],
    )
    def test_an_oracle_over_zloc_is_refused_for_its_view(self, capsys, shape, matrix):
        # The obstructed M2 matrix too: the view is refused before the engine runs.
        assert main(_decompose("Zloc2", shape, matrix, "--oracle")) == 2
        assert "cannot enumerate a view over Zloc2" in capsys.readouterr().err

    def test_oracle_over_a_huge_series_ring_is_refused_fast(self, capsys, monkeypatch):
        # The carrier cap is checked before any scalar is enumerated.
        def enumerate_nothing(ring):
            raise RuntimeError(f"enumerated {ring} before checking the cap")

        monkeypatch.setattr(TruncatedSeriesRing, "elements", enumerate_nothing)
        start = time.perf_counter()
        code = main(["decompose", "--ring", "series(Z2^2,8)", "--shape", "M2",
                     "--matrix", "[1,0; 0,0]", "--oracle"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_oracle_over_too_many_keys_is_refused_fast(self, capsys, monkeypatch):
        # F11 / T3 has 161,051 keys: few enough for a key cap of 10^6, but
        # its unit scan alone would take 2.6e10 key products.
        def enumerate_nothing(ring):
            raise RuntimeError(f"enumerated {ring} before checking the cap")

        monkeypatch.setattr(PrimeField, "elements", enumerate_nothing)
        start = time.perf_counter()
        code = main(["oracle", "--ring", "F11", "--shape", "T3"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_absurd_series_precision_is_refused_fast(self, capsys):
        start = time.perf_counter()
        code = main(["lift", "--ring", "series(F2,100000000)", "--matrix", "[1,0; 0,0]"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert str(MAX_SERIES_PRECISION) in capsys.readouterr().err
        ring = parse_ring(f"series(F2,{MAX_SERIES_PRECISION})")
        assert ring.precision == MAX_SERIES_PRECISION == 4096

    @pytest.mark.parametrize(
        "ring,want",
        [("F2305843009213693951", 0), ("F618970019642690137449562111", 2)],
    )
    def test_large_primes_are_decided_or_refused_fast(self, capsys, ring, want):
        # 2^61 - 1 is decided by Miller-Rabin; 2^89 - 1 lies above MAX_PRIME.
        start = time.perf_counter()
        code = main(["classify-m2", "--ring", ring, "--matrix", "[1,0; 0,2]"])
        assert time.perf_counter() - start < 1.0
        assert code == want
        captured = capsys.readouterr()
        if want:
            assert str(MAX_PRIME) in captured.err
        else:
            assert "kind: invertible" in captured.out

    @pytest.mark.parametrize(
        "ring,why",
        [
            ("Z2^20000", "digits"),
            ("Z2^1000000000", "digits"),
            ("series(" * 1200 + "F2" + ",2)" * 1200, "nested deeper"),
            ("series(series(F2,512),512)", str(MAX_SERIES_PRECISION)),
        ],
        ids=["long-modulus", "huge-exponent", "deep-nesting", "nested-precision"],
    )
    def test_costly_ring_spellings_are_refused_fast(self, capsys, ring, why):
        # A residue past 4,300 digits cannot print; deep nesting would
        # recurse past Python's limit; nested precisions multiply.
        start = time.perf_counter()
        code = main(["classify-m2", "--ring", ring, "--matrix", "[1,0; 0,0]"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert why in capsys.readouterr().err

    def test_a_modulus_below_the_digit_cap_still_parses(self):
        assert parse_ring("Z2^14000").modulus == 2**14000

    @pytest.mark.parametrize(
        "matrix",
        [
            f"[{3**8000}, {5**5000}; 0, {2 * 7**4000}]",
            "[1e5000, 0; 0, 2]",
            "[1e10000000, 0; 0, 2]",
        ],
        ids=["long-witness-entry", "exponent", "huge-exponent"],
    )
    def test_zloc_values_past_the_digit_limit_are_refused_fast(self, capsys, matrix):
        # Every literal has under 4,300 digits, but the first witness's
        # entries do not and cannot print; exponent notation is refused
        # before Fraction expands it.
        start = time.perf_counter()
        code = main(["decompose", "--ring", "Zloc2", "--shape", "T2", "--matrix", matrix])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_bleached_over_too_many_elements_is_refused_fast(self, capsys, monkeypatch):
        # F1000003 would take about 2*10^12 map evaluations; the bound comes
        # from its cardinality before any element is enumerated.
        def enumerate_nothing(ring):
            raise RuntimeError(f"enumerated {ring} before checking the cap")

        monkeypatch.setattr(PrimeField, "elements", enumerate_nothing)
        monkeypatch.setattr(TruncatedSeriesRing, "elements", enumerate_nothing)
        for ring in ("F1000003", "series(F3,5)"):
            start = time.perf_counter()
            code = main(["bleached", "--ring", ring])
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert str(BLEACHED_EVALUATION_CAP) in capsys.readouterr().err

    def test_bleached_over_a_field_counts_its_one_radical(self, capsys):
        # 2 * 127 * 126 = 32,004 evaluations: under the cap.
        code = main(["bleached", "--ring", "F127", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["report"]["pairs_checked"] == 126

    def test_lift_requires_a_series_ring(self, capsys):
        code, _ = run(
            capsys,
            ["lift", "--ring", "Z2^2", "--matrix", "[1,0; 0,2]"],
        )
        assert code == 2

    def test_closed_stdout_pipe_exits_141_without_a_traceback(self):
        # A pipe whose reader is already gone, like `qp ... | head -c 100`
        # once head has exited: the first write fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qpolar.cli", *T3_ARGS, "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 141


class TestVerbs:
    def test_decompose_with_oracle_recheck(self, capsys):
        code, out = run(capsys, T3_ARGS + ["--oracle"])
        assert code == 0
        assert "verified" in out

    def test_lift_reports_both_roots(self, capsys):
        code, out = run(
            capsys,
            [
                "lift",
                "--ring",
                "series(Z2^2,8)",
                "--matrix",
                "[1,0; 0,2]",
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constant_kind"] == "split"
        assert payload["alpha"] == "2"
        assert payload["beta"] == "1"

    def test_oracle_sweep_passes(self, capsys):
        code, out = run(
            capsys,
            ["oracle", "--ring", "F2", "--shape", "T3", "--check", "quasipolar"],
        )
        assert code == 0
        assert "0 failures" in out or "ok" in out

    def test_bleached_check_passes(self, capsys):
        code, out = run(
            capsys, ["bleached", "--ring", "Z2^2", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["ok"] is True
        assert report["pairs_checked"] == 4

    def test_surjective_mode(self, capsys):
        code, out = run(
            capsys,
            ["bleached", "--ring", "F3", "--mode", "surjective", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["report"]["mode"] == "surjective"

    def test_verify_t3(self, capsys):
        code, out = run(capsys, ["verify-t3", "--ring", "F2", "--format", "json"])
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["name"] for r in reports] == ["t3-case", "t3-rad-clean"]
        assert all(r["passed"] for r in reports)

    def test_verify_examples(self, capsys):
        code, out = run(capsys, ["verify-examples"])
        assert code == 0
        assert "z4-precision8" in out
        assert "z4-precision2" in out

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def run_all(capsys, argv):
    """(exit code, stdout, stderr) of one request, argparse refusals included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    def test_two_requests_build_one_parser(self, capsys, monkeypatch):
        # A new bound: raise it only with a CHANGES.md entry that says why.
        calls = [0]
        build = cli.build_parser

        def counted():
            calls[0] += 1
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        run(capsys, T3_ARGS)
        run(capsys, T3_ARGS + ["--format", "json"])
        assert calls[0] == 1

    def test_importing_the_cli_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import qpolar.cli as cli\n"
            "print(len(built), cli._PARSER is None)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        ).stdout
        assert out.split() == ["0", "True"]

    def test_a_reused_parser_answers_like_a_new_one(self, capsys, monkeypatch):
        sequence = [
            T3_ARGS + ["--oracle", "--format", "json"],
            T3_ARGS,
            ["classify-m2", "--ring", "Zloc2", "--matrix", "[0,-2; 1,1]"],
            ["decompose", "--ring", "F2", "--shape"],  # argparse refusal
            T3_ARGS,
        ]
        monkeypatch.setattr(cli, "_PARSER", None)
        reused = [run_all(capsys, argv) for argv in sequence]
        assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0]
        assert "expected one argument" in reused[3][2]
        for argv, got in zip(sequence, reused):
            monkeypatch.setattr(cli, "_PARSER", None)
            assert run_all(capsys, argv) == got
