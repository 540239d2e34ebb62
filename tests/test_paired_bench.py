"""The verdict of ``tools/paired_bench.py`` on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

METRICS = {
    "goodput": {"better": "higher", "bound": 0.25},
    "setup_s": {"better": "lower", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}
#: ten parent runs: goodput median 1000, quartiles 995.75 and 1004.25
PARENT = {
    "goodput": [990.0, 995.0, 1000.0, 1005.0, 1010.0, 992.0, 998.0, 1002.0, 1008.0, 1000.0],
    "setup_s": [0.10] * 10,
    "peak_rss_mb": [40.0] * 10,
}


def runs(goodput, setup_s=None, peak_rss_mb=None):
    return {"goodput": goodput, "setup_s": setup_s or PARENT["setup_s"],
            "peak_rss_mb": peak_rss_mb or PARENT["peak_rss_mb"]}


def test_quartiles_interpolate_between_order_statistics():
    assert paired_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert paired_bench.quartiles([1.0, 2.0]) == {"q1": 1.25, "median": 1.5, "q3": 1.75}
    assert paired_bench.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_every_pair_won_by_more_than_the_parent_iqr_is_a_gain():
    out = paired_bench.verdict(PARENT, runs([g + 80.0 for g in PARENT["goodput"]]), METRICS, "goodput")
    assert out["claim"]["pairs_won"] == 10
    assert out["claim"]["median_difference"] == pytest.approx(80.0)
    assert out["claim"]["parent_iqr"] == pytest.approx(8.5)
    assert out["claim"]["gain"] and out["passed"]
    assert out["metrics"]["goodput"]["relative_gain"] == pytest.approx(0.08)
    assert out["regressions"] == [] and out["unresolved"] == []


def test_eight_of_ten_pairs_is_no_gain():
    change = [g + 80.0 for g in PARENT["goodput"]]
    change[3] = change[7] = 900.0
    out = paired_bench.verdict(PARENT, runs(change), METRICS, "goodput")
    assert out["claim"]["pairs_won"] == 8
    assert not out["claim"]["gain"] and not out["passed"]


def test_nine_of_ten_pairs_is_enough():
    change = [g + 80.0 for g in PARENT["goodput"]]
    change[0] = 900.0
    out = paired_bench.verdict(PARENT, runs(change), METRICS, "goodput")
    assert out["claim"]["pairs_won"] == 9 and out["claim"]["gain"]


def test_a_win_inside_the_parent_spread_is_no_gain():
    out = paired_bench.verdict(PARENT, runs([g + 5.0 for g in PARENT["goodput"]]), METRICS, "goodput")
    assert out["claim"]["pairs_won"] == 10
    assert out["claim"]["median_difference"] == pytest.approx(5.0)
    assert out["claim"]["parent_iqr"] == pytest.approx(8.5)
    assert not out["claim"]["gain"]


def test_ties_count_for_neither_side():
    out = paired_bench.verdict(PARENT, runs(list(PARENT["goodput"])), METRICS, "goodput")
    assert out["metrics"]["goodput"]["pairs_won"] == out["metrics"]["goodput"]["pairs_lost"] == 0
    assert not out["claim"]["gain"]
    # with no claim, an unchanged run passes
    assert paired_bench.verdict(PARENT, runs(list(PARENT["goodput"])), METRICS, None)["passed"]


def test_lower_is_better_metrics_win_by_going_down():
    out = paired_bench.verdict(PARENT, runs(PARENT["goodput"], setup_s=[0.08] * 10), METRICS, "setup_s")
    assert out["metrics"]["setup_s"]["pairs_won"] == 10
    assert out["metrics"]["setup_s"]["relative_gain"] == pytest.approx(0.2)
    assert out["claim"]["gain"]


def test_a_metric_worse_than_its_bound_fails_the_verdict():
    # peak RSS up 12 % against a 10 % bound, while goodput gains
    change = runs([g + 80.0 for g in PARENT["goodput"]], peak_rss_mb=[44.8] * 10)
    out = paired_bench.verdict(PARENT, change, METRICS, "goodput")
    assert out["claim"]["gain"]
    assert out["regressions"] == ["peak_rss_mb"]
    assert out["metrics"]["peak_rss_mb"]["status"] == "regressed"
    assert not out["passed"]
    # 8 % worse stays within the bound
    out = paired_bench.verdict(PARENT, runs(PARENT["goodput"], peak_rss_mb=[43.2] * 10), METRICS, None)
    assert out["regressions"] == [] and out["passed"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = dict(PARENT, setup_s=[0.05, 0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.15, 0.15, 0.15])
    change = runs(PARENT["goodput"], setup_s=[0.1] * 10)
    out = paired_bench.verdict(parent, change, METRICS, None)
    assert out["metrics"]["setup_s"]["status"] == "unresolved"
    assert out["unresolved"] == ["setup_s"]
    # unless every change run beats every parent run
    out = paired_bench.verdict(parent, runs(PARENT["goodput"], setup_s=[0.04] * 10), METRICS, None)
    assert out["unresolved"] == []


def test_fewer_than_ten_pairs_is_no_gain():
    # every pair won by far more than the parent's spread, but only five pairs
    parent = {m: v[:5] for m, v in PARENT.items()}
    change = {m: list(v) for m, v in parent.items()}
    change["goodput"] = [g + 80.0 for g in parent["goodput"]]
    out = paired_bench.verdict(parent, change, METRICS, "goodput")
    assert out["claim"]["pairs_won"] == out["claim"]["pairs"] == 5
    assert not out["claim"]["gain"] and not out["passed"]
    # one pair won is no gain either
    single = {m: v[:1] for m, v in change.items()}
    out = paired_bench.verdict({m: v[:1] for m, v in parent.items()}, single, METRICS, "goodput")
    assert not out["claim"]["gain"]


def test_an_unresolved_metric_fails_the_verdict():
    parent = dict(PARENT, setup_s=[0.05, 0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.15, 0.15, 0.15])
    change = runs([g + 80.0 for g in PARENT["goodput"]], setup_s=[0.1] * 10)
    out = paired_bench.verdict(parent, change, METRICS, "goodput")
    assert out["unresolved"] == ["setup_s"] and out["regressions"] == []
    assert out["claim"]["gain"]
    assert not out["passed"]


def record(goodput, failed):
    return {"metrics": {"goodput": {"value": goodput}, "setup_s": {"value": 0.1},
                        "peak_rss_mb": {"value": 40.0}},
            "failed": failed, "attempted": 100, "output_sha256": "ab"}


def test_more_failed_operations_clear_the_gain():
    pairs = [{"parent": record(g, 0), "change": record(g + 80.0, 0)} for g in PARENT["goodput"]]
    out = paired_bench.summarize(pairs, METRICS, "goodput")
    assert out["claim"]["gain"] and out["passed"]
    pairs[4]["change"] = record(PARENT["goodput"][4] + 80.0, 1)
    out = paired_bench.summarize(pairs, METRICS, "goodput")
    assert out["change_failed_frac"] > out["parent_failed_frac"] == 0.0
    assert not out["claim"]["gain"] and not out["passed"]
