"""The pairing summary of tools/ab_pairs.py on canned benchmark result lines (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "predict_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _line(predict_s, rounds_per_s, failed=0, attempted=5):
    metrics = {"predict_s": {"value": predict_s, "unit": "s"}, "rounds_per_s": {"value": rounds_per_s, "unit": "1/s"}}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


PARENT = [_line(1.5, 100.0), _line(1.6, 98.0), _line(1.4, 103.0), _line(1.55, 99.0, failed=1)]
CHANGE = [_line(1.0, 101.0), _line(1.7, 97.0), _line(0.9, 104.0), _line(1.0, 99.0, attempted=6)]


def test_wins_follow_each_metrics_direction():
    rows, _ = ab_pairs.summarize(METRICS, PARENT, CHANGE)
    by_name = {row["metric"]: row for row in rows}
    assert by_name["predict_s"]["wins"] == 3  # lower is better; pair 1 is a loss
    assert by_name["rounds_per_s"]["wins"] == 2  # higher is better; pair 3 is a tie, not a win
    assert all(row["pairs"] == 4 for row in rows)


def test_medians_quartiles_and_the_iqr_gap():
    rows, _ = ab_pairs.summarize(METRICS, PARENT, CHANGE)
    predict = rows[0]
    assert predict["parent"] == pytest.approx((1.425, 1.525, 1.5875))
    assert predict["change"][1] == 1.0
    assert predict["beyond_iqr"]  # |1.0 - 1.525| > 1.5875 - 1.425
    assert not rows[1]["beyond_iqr"]  # medians 99.5 vs 100.0 inside the parent's spread


def test_paired_ratio_is_the_median_of_each_pairs_change_over_parent():
    rows, _ = ab_pairs.summarize(METRICS, PARENT, CHANGE)
    # predict_s ratios 0.6667, 1.0625, 0.6429, 0.6452: the median of the middle two
    assert rows[0]["paired"] == pytest.approx((1.0 / 1.55 + 1.0 / 1.5) / 2)
    assert rows[1]["paired"] == pytest.approx((1.0 + 104.0 / 103.0) / 2)  # 1.0, 1.0097 in the middle


def test_paired_ratio_differs_from_the_ratio_of_the_side_medians():
    parent = [_line(1.0, 100.0), _line(2.0, 100.0), _line(3.0, 100.0)]
    change = [_line(2.0, 100.0), _line(3.0, 100.0), _line(1.0, 100.0)]
    rows, ops = ab_pairs.summarize(METRICS, parent, change)
    assert rows[0]["parent"][1] == rows[0]["change"][1] == 2.0
    assert rows[0]["paired"] == 1.5  # pair ratios 2.0, 1.5 and 1/3
    assert ab_pairs.report(rows, ops).splitlines()[1].split()[-4:-2] == ["+0.0%", "+50.0%"]


def test_paired_ratio_is_undefined_when_a_parent_value_is_zero():
    rows, _ = ab_pairs.summarize(METRICS, [_line(0.0, 100.0), *PARENT[1:]], CHANGE)
    assert rows[0]["paired"] is None and rows[1]["paired"] is not None
    assert "    n/a" in ab_pairs.report(rows, {}).splitlines()[1]


def test_failed_and_attempted_ops_per_side():
    _, ops = ab_pairs.summarize(METRICS, PARENT, CHANGE)
    assert ops == {"parent": (1, 20), "change": (0, 21)}


def test_report_prints_one_row_per_metric_and_the_ops():
    text = ab_pairs.report(*ab_pairs.summarize(METRICS, PARENT, CHANGE))
    lines = text.splitlines()
    assert len(lines) == 1 + len(METRICS) + 2
    assert lines[1].startswith("predict_s") and " 3/4 " in lines[1] and lines[1].endswith("yes")
    assert lines[0].split()[-4:] == ["change", "paired", "wins", "gap>IQR"]
    assert lines[1].split()[-4:-2] == ["-34.4%", "-34.4%"]  # the side medians' change, then the paired one
    assert lines[2].split()[-4:-2] == ["+0.5%", "+0.5%"]
    assert lines[-2:] == ["parent ops: 1 failed / 20 attempted", "change ops: 0 failed / 21 attempted"]


def test_a_single_pair_has_its_value_as_every_quartile():
    rows, _ = ab_pairs.summarize(METRICS, PARENT[:1], CHANGE[:1])
    assert rows[0]["parent"] == (1.5, 1.5, 1.5)


def test_unequal_run_counts_are_rejected():
    with pytest.raises(ValueError, match="3 parent runs against 4 change runs"):
        ab_pairs.summarize(METRICS, PARENT[:3], CHANGE)


def _verdicts(parent, change):
    rows, _ = ab_pairs.summarize(METRICS, [_line(*p) for p in parent], [_line(*c) for c in change])
    return [row["verdict"] for row in rows]


# ten parent runs: predict_s median 1.0, quartiles [0.9725, 1.0275] (IQR 0.055); rounds_per_s all 100
_PARENT10 = [(1.0 + 0.01 * (i - 4.5), 100.0) for i in range(10)]


def test_a_gain_wins_nine_of_ten_pairs_past_the_parents_iqr():
    change = [(p - 0.1, r + 5.0) for p, r in _PARENT10[:9]] + [(_PARENT10[9][0] + 0.1, 99.0)]
    assert _verdicts(_PARENT10, change) == ["gain", "gain"]  # rounds_per_s: higher is better, 9/10 wins


def test_eight_wins_or_a_gap_inside_the_iqr_is_no_gain():
    eight = [(p - 0.1, r) for p, r in _PARENT10[:8]] + [(p + 0.1, r) for p, r in _PARENT10[8:]]
    assert _verdicts(_PARENT10, eight)[0] == "same"
    inside = [(p - 0.02, r) for p, r in _PARENT10]  # 10/10 wins, but the medians 0.02 apart
    assert _verdicts(_PARENT10, inside)[0] == "same"


def test_worse_is_a_median_past_the_metrics_bound():
    slower = [(1.3 * p, 0.7 * r) for p, r in _PARENT10]  # both 25% bounds passed, each in its own direction
    assert _verdicts(_PARENT10, slower) == ["worse", "worse"]
    within = [(1.2 * p, 0.8 * r) for p, r in _PARENT10]  # 10/10 losses, but inside the bound
    assert _verdicts(_PARENT10, within) == ["same", "same"]


def test_report_prints_each_metrics_verdict_after_its_name():
    lines = ab_pairs.report(*ab_pairs.summarize(METRICS, PARENT, CHANGE)).splitlines()
    assert lines[0].split()[:2] == ["metric", "verdict"]
    # 3/4 wins is short of 9 in 10; rounds_per_s moved 0.5%
    assert [line.split()[:2] for line in lines[1:3]] == [["predict_s", "same"], ["rounds_per_s", "same"]]
