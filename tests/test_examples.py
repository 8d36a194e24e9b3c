"""Worked examples re-derived end to end."""

import pytest

from qpolar import (
    all_examples,
    example_precision2,
    example_precision8,
    verify_example,
)
from qpolar import TruncatedSeriesRing, m2, series
from qpolar.matrices import ShapedMatrix


def test_catalog_lists_both_examples():
    assert [ex.name for ex in all_examples()] == ["z4-precision8", "z4-precision2"]


def test_precision8_verifies_with_every_check():
    report = verify_example(example_precision8())
    assert report.passed
    names = [name for name, _ in report.entries]
    assert "constant_split" in names
    assert "alpha_root" in names
    assert "beta_unit" in names


def test_precision8_alpha_has_the_alternating_tail():
    ex = example_precision8()
    alpha, _ = ex.alpha, ex.beta
    assert alpha.payload == tuple(
        ex.ring.base.element(0 if n % 2 else 2) if n else ex.ring.base.element(0)
        for n in range(8)
    )


def test_precision2_pins_the_spectral_idempotent():
    ex = example_precision2()
    report = verify_example(ex)
    assert report.passed
    assert ex.spectral == ShapedMatrix.from_rows(
        ex.ring, ex.matrix.shape, [["2*x", "2"], ["2 + x", "1 + 2*x"]]
    )
    assert "spectral_matches" in [name for name, _ in report.entries]


def test_constant_splits_match_the_pinned_pairs():
    p8, p2 = example_precision8(), example_precision2()
    assert tuple(map(str, p8.constant_split)) == ("0", "3")
    assert tuple(map(str, p2.constant_split)) == ("2", "3")


@pytest.mark.parametrize("build", [example_precision8, example_precision2])
def test_each_example_splits_once_and_lifts_once(monkeypatch, build):
    # A cost pin: the constant quadratic is split over the base ring once
    # and its radical root lifted once, however many checks read them.
    counts = {"split": 0, "lift": 0}
    find_root_split, lift_root = m2.find_root_split, series.lift_root

    def counted_split(chi, ring):
        if not isinstance(ring, TruncatedSeriesRing):
            counts["split"] += 1
        return find_root_split(chi, ring)

    def counted_lift(*args):
        counts["lift"] += 1
        return lift_root(*args)

    # series imports find_root_split by name for the base-ring split.
    monkeypatch.setattr(m2, "find_root_split", counted_split)
    monkeypatch.setattr(series, "find_root_split", counted_split)
    monkeypatch.setattr(series, "lift_root", counted_lift)
    assert verify_example(build()).passed
    assert counts == {"split": 1, "lift": 1}
