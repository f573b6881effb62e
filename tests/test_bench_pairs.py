"""The statistics ``tools/bench_pairs.py`` writes into every ``BENCH_*.json``:
wins per pair, the median gap against the parent's interquartile range,
``within_bound``, the gate on each end-to-end metric, ``gain_met``, the rule a
claimed gain must meet, and ``unresolved``, a parent spread wider than the
bound."""

import importlib.util
from pathlib import Path

import pytest


def bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMPARE = bench_pairs().compare


def pairs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


def test_lower_better_gain():
    out = COMPARE(pairs([1.0, 1.1, 1.2, 1.3], [0.8, 0.9, 1.0, 1.1]), "lower", 0.25)
    assert out["better"] == "lower" and out["bound"] == 0.25
    assert out["wins"] == {"change": 4, "parent": 0, "tie": 0}
    assert out["parent"]["median"] == pytest.approx(1.15)
    assert out["parent"]["iqr"] == pytest.approx(0.15)     # 1.075 .. 1.225
    assert out["change"]["runs"] == [0.8, 0.9, 1.0, 1.1]
    assert out["median_rel_change"] == pytest.approx(-0.2 / 1.15)
    assert out["median_gap_exceeds_parent_iqr"]
    assert out["within_bound"]


def test_higher_better_gain_and_worsening():
    gain = COMPARE(pairs([0.9] * 4, [1.0] * 4), "higher", 0.01)
    assert gain["wins"] == {"change": 4, "parent": 0, "tie": 0}
    assert gain["median_gap_exceeds_parent_iqr"] and gain["within_bound"]
    loss = COMPARE(pairs([1.0] * 4, [0.9] * 4), "higher", 0.05)
    assert loss["wins"] == {"change": 0, "parent": 4, "tie": 0}
    assert not loss["median_gap_exceeds_parent_iqr"]
    assert not loss["within_bound"]
    # the same runs of a lower-better metric are a gain
    assert COMPARE(pairs([1.0] * 4, [0.9] * 4), "lower", 0.05)["wins"]["change"] == 4


def test_ties():
    out = COMPARE(pairs([1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0]), "lower", 0.25)
    assert out["wins"] == {"change": 0, "parent": 0, "tie": 4}
    assert out["median_rel_change"] == 0.0
    assert not out["median_gap_exceeds_parent_iqr"]
    assert out["within_bound"]


@pytest.mark.parametrize("better, parent, at_bound, past_bound", [
    ("lower", 2.0, 2.5, 2.5000001),
    ("higher", 1.0, 0.75, 0.7499999),
])
def test_worsening_exactly_at_the_bound_is_within(better, parent, at_bound, past_bound):
    # a relative worsening equal to the bound passes; any more fails
    assert COMPARE(pairs([parent] * 4, [at_bound] * 4), better, 0.25)["within_bound"]
    assert not COMPARE(pairs([parent] * 4, [past_bound] * 4), better, 0.25)["within_bound"]


def test_gap_must_exceed_parent_iqr():
    # every pair won, but the median gap is within the parent's spread
    spread = COMPARE(pairs([1.0, 2.0, 3.0, 4.0], [0.9, 1.9, 2.9, 3.9]), "lower", 0.25)
    assert spread["wins"]["change"] == 4
    assert spread["parent"]["iqr"] == pytest.approx(1.5)
    assert not spread["median_gap_exceeds_parent_iqr"]
    # a gap equal to the IQR does not exceed it: parent quartiles 1 and 3,
    # medians 2 and 0
    equal = COMPARE(pairs([1.0, 1.0, 3.0, 3.0], [-1.0, -1.0, 1.0, 1.0]), "lower", 0.25)
    assert equal["parent"]["iqr"] == 2.0
    assert equal["parent"]["median"] - equal["change"]["median"] == 2.0
    assert not equal["median_gap_exceeds_parent_iqr"]
    wider = COMPARE(pairs([1.0, 1.0, 3.0, 3.0], [-1.5, -1.5, 0.5, 0.5]), "lower", 0.25)
    assert wider["median_gap_exceeds_parent_iqr"]


def claim_runs(wins: int, n: int):
    # the change wins ``wins`` pairs by 0.5 and loses the rest by 0.01; its
    # median gap is far beyond the parent's interquartile range (< 0.05)
    parent = [10.0 + 0.01 * i for i in range(n)]
    change = [p - 0.5 if i < wins else p + 0.01 for i, p in enumerate(parent)]
    return pairs(parent, change)


def test_gain_met_at_nine_of_ten():
    out = COMPARE(claim_runs(9, 10), "lower", 0.25)
    assert out["wins"] == {"change": 9, "parent": 1, "tie": 0}
    assert out["median_gap_exceeds_parent_iqr"] and out["gain_met"]


def test_gain_not_met_at_eight_of_ten():
    out = COMPARE(claim_runs(8, 10), "lower", 0.25)
    assert out["wins"]["change"] == 8
    assert out["median_gap_exceeds_parent_iqr"] and not out["gain_met"]


def test_gain_not_met_at_five_pairs():
    # five of five won, but fewer than ten pairs cannot carry a claim
    out = COMPARE(claim_runs(5, 5), "lower", 0.25)
    assert out["wins"]["change"] == 5
    assert out["median_gap_exceeds_parent_iqr"] and not out["gain_met"]


def test_ties_count_for_neither_side():
    # 9 wins and one tie in 10 pairs meet the rule; 8 wins and 2 ties do not,
    # though the parent wins none
    nine = claim_runs(9, 10)
    nine[9]["change"] = nine[9]["parent"]
    assert COMPARE(nine, "lower", 0.25)["wins"] == {"change": 9, "parent": 0, "tie": 1}
    assert COMPARE(nine, "lower", 0.25)["gain_met"]
    eight = claim_runs(8, 10)
    for p in eight[8:]:
        p["change"] = p["parent"]
    assert COMPARE(eight, "lower", 0.25)["wins"] == {"change": 8, "parent": 0, "tie": 2}
    assert not COMPARE(eight, "lower", 0.25)["gain_met"]


def test_unresolved_spread():
    # parent IQR 1.5 over median 2.5 (0.6) exceeds the bound 0.25
    wide = [1.0, 2.0, 3.0, 4.0]
    assert COMPARE(pairs(wide, wide), "lower", 0.25)["unresolved"]
    assert not COMPARE(pairs(wide, wide), "lower", 0.75)["unresolved"]
    # resolved when every change run beats every parent run, in the
    # metric's own direction
    assert not COMPARE(pairs(wide, [0.1, 0.2, 0.3, 0.4]), "lower", 0.25)["unresolved"]
    assert COMPARE(pairs(wide, [0.1, 0.2, 0.3, 0.4]), "higher", 0.25)["unresolved"]
    assert not COMPARE(pairs(wide, [5.0, 6.0, 7.0, 8.0]), "higher", 0.25)["unresolved"]
    # a tight parent is resolved whatever the change does
    assert not COMPARE(pairs([1.0] * 4, wide), "lower", 0.25)["unresolved"]
