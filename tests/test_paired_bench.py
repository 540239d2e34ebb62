"""The verdict of ``tools/paired_bench.py`` on synthetic paired runs."""

import importlib.util
import json
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


def test_a_zero_parent_median_is_unresolved_and_keeps_its_quartiles(capsys):
    # every unit failing its output check reads goodput 0 on both sides
    zero = runs([0.0] * 10)
    out = paired_bench.verdict(zero, runs([0.0] * 9 + [5.0]), METRICS, None)
    goodput = out["metrics"]["goodput"]
    assert goodput["status"] == "unresolved" and goodput["relative_gain"] is None
    assert goodput["parent"] == {"q1": 0.0, "median": 0.0, "q3": 0.0}
    assert goodput["change"] == {"q1": 0.0, "median": 0.0, "q3": 0.0}
    assert goodput["pairs_won"] == 1 and goodput["pairs_lost"] == 0
    assert out["unresolved"] == ["goodput"] and out["regressions"] == []
    assert not out["passed"]
    # the other metrics are judged as ever, and the summary prints
    assert out["metrics"]["setup_s"]["status"] == "within bound"
    paired_bench.print_summary("w", 1, {**out, "parent_failed_frac": 1.0, "change_failed_frac": 1.0,
                                        "parent_output_sha256": ["ab"], "change_output_sha256": ["ab"]})
    assert "goodput      change n/a" in capsys.readouterr().out


def record(goodput, failed):
    return {"metrics": {"goodput": {"value": goodput}, "setup_s": {"value": 0.1},
                        "peak_rss_mb": {"value": 40.0}},
            "failed": failed, "attempted": 100, "output_sha256": "ab",
            "check_failures": [f"trial {k}: rewards differ from a replay of the trial" for k in range(failed)],
            "unscaled_goodput": goodput * 1.5, "reference_s": 0.01}


def test_more_failed_operations_clear_the_gain():
    pairs = [{"parent": record(g, 0), "change": record(g + 80.0, 0)} for g in PARENT["goodput"]]
    out = paired_bench.summarize(pairs, METRICS, "goodput")
    assert out["claim"]["gain"] and out["passed"]
    pairs[4]["change"] = record(PARENT["goodput"][4] + 80.0, 1)
    out = paired_bench.summarize(pairs, METRICS, "goodput")
    assert out["change_failed_frac"] > out["parent_failed_frac"] == 0.0
    assert not out["claim"]["gain"] and not out["passed"]


def test_each_run_keeps_its_failed_count_and_check_failures():
    pairs = [{"parent": record(g, 0), "change": record(g, 0)} for g in PARENT["goodput"]]
    pairs[6]["parent"] = record(PARENT["goodput"][6], 2)
    out = paired_bench.summarize(pairs, METRICS, None)
    assert len(out["parent_runs"]) == len(out["change_runs"]) == 10
    assert out["parent_runs"][6] == {"failed": 2, "attempted": 100,
                                     "check_failures": ["trial 0: rewards differ from a replay of the trial",
                                                        "trial 1: rewards differ from a replay of the trial"],
                                     "unscaled_goodput": PARENT["goodput"][6] * 1.5, "reference_s": 0.01}
    assert [r["failed"] for r in out["parent_runs"]] == [0] * 6 + [2] + [0] * 3
    assert out["change_runs"] == [{"failed": 0, "attempted": 100, "check_failures": [],
                                   "unscaled_goodput": g * 1.5, "reference_s": 0.01} for g in PARENT["goodput"]]
    assert out["parent_failed_frac"] == 2 / 1000


#: a stand-in for ``perfbench/run.py``: it writes the result file of a run
#: whose commands took reference-loop times 9, 12 and 10 ms, and prints its record
FAKE_RUN = """\
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = pathlib.Path(".perfbench_out")
out.mkdir(exist_ok=True)
result = {"output_sha256": "ab", "check_failures": [], "provenance": {"seed": int(args["--seed"])},
          "unscaled_goodput_samples": [2.0e5, 1.0e5, 3.0e5], "reference_s": [0.009, 0.012, 0.010]}
(out / f"result-{args['--workload']}-seed{args['--seed']}-trace0.json").write_text(json.dumps(result))
print(json.dumps({"correct": True, "attempted": 8, "failed": 0, "metrics": {
    "goodput": {"value": 1.0}, "setup_s": {"value": 0.1}, "peak_rss_mb": {"value": 40.0}}}))
"""


def test_each_run_keeps_its_unscaled_goodput_and_reference_loop(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    rec = paired_bench.run_once(tmp_path, "w", 7, 0.1)
    assert rec["unscaled_goodput"] == 2.0e5 and rec["reference_s"] == 0.010
    assert rec["provenance"] == {"seed": 7} and rec["failed"] == 0
    out = paired_bench.summarize([{"parent": rec, "change": rec}] * 2, METRICS, None)
    assert out["change_runs"] == [{"failed": 0, "attempted": 8, "check_failures": [],
                                   "unscaled_goodput": 2.0e5, "reference_s": 0.010}] * 2


# --- suite mode -------------------------------------------------------------

#: ``pytest -q --durations=0`` output of a run with one failure and one error
FAILING_RUN = """\
.FsE.....                                                                [100%]
==================================== ERRORS ====================================
___________________________ ERROR at setup of test_d ___________________________
E   RuntimeError
=================================== FAILURES ===================================
____________________________________ test_b ____________________________________
E   assert 0
============================== slowest durations ===============================
18.30s setup    tests/test_acceptance.py::test_3
15.80s setup    tests/test_acceptance.py::test_4
10.70s call     tests/test_acceptance.py::test_2_balancer_regret_bound
3.40s call     tests/test_demos.py::test_demo_exits_zero[balance pacing.py]
2.30s call     tests/test_submodular.py::test_cut_table
2.00s call     tests/a.py::t1
1.00s teardown tests/a.py::t2
0.90s call     tests/a.py::t3
0.80s call     tests/a.py::t4
0.70s call     tests/a.py::t5
0.60s call     tests/a.py::t6
0.01s call     tests/a.py::t7

(13 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_x.py::test_b[a - b] - assert 0
ERROR tests/test_x.py::test_d - RuntimeError
1 failed, 6 passed, 1 skipped, 1 error in 76.12s (0:01:16)
"""


def test_suite_output_gives_counts_failed_ids_and_the_ten_slowest():
    out = paired_bench.parse_suite_output(FAILING_RUN)
    assert out["passed"] == 6
    assert out["failed"] == 2  # the error counts as failed
    assert out["failed_tests"] == ["tests/test_x.py::test_b[a - b]", "tests/test_x.py::test_d"]
    assert len(out["slowest"]) == paired_bench.SLOWEST == 10
    assert out["slowest"][0] == [18.3, "setup", "tests/test_acceptance.py::test_3"]
    assert out["slowest"][3][2] == "tests/test_demos.py::test_demo_exits_zero[balance pacing.py]"
    assert out["slowest"][-1] == [0.7, "call", "tests/a.py::t5"]
    # quartiles of 18.3, 15.8, 10.7, 3.4, 2.3, 2.0, 1.0, 0.9, 0.8, 0.7
    assert out["slowest_quartiles"] == pytest.approx({"q1": 0.925, "median": 2.15, "q3": 8.875})


def test_a_passing_summary_line_and_its_plural_forms():
    out = paired_bench.parse_suite_output("....\n465 passed, 2 warnings, 3 errors in 76.12s (0:01:16)\n")
    assert out["passed"] == 465 and out["failed"] == 3 and out["failed_tests"] == []
    assert out["slowest"] == [] and out["slowest_quartiles"] is None
    assert paired_bench.parse_suite_output("465 passed in 9.5s\n")["failed"] == 0


def test_output_without_a_summary_line_is_an_error():
    with pytest.raises(ValueError):
        paired_bench.parse_suite_output("ImportError while loading conftest\n")


def suite_run(wall, failed=0):
    return {"wall_s": wall, "passed": 465 - failed, "failed": failed,
            "failed_tests": [f"tests/t.py::test_{i}" for i in range(failed)],
            "slowest": [], "slowest_quartiles": None}


def test_the_suite_verdict_judges_wall_time():
    pairs = [{"parent": suite_run(100.0 + i), "change": suite_run(60.0 + i)} for i in range(10)]
    out = paired_bench.summarize_suite(pairs, "wall_s")
    assert out["claim"]["gain"] and out["passed"]
    assert out["metrics"]["wall_s"]["relative_gain"] == pytest.approx(40.0 / 104.5)
    # slower by more than SUITE_BOUND is a regression
    pairs = [{"parent": suite_run(100.0), "change": suite_run(130.0)} for _ in range(3)]
    out = paired_bench.summarize_suite(pairs, None)
    assert out["regressions"] == ["wall_s"] and not out["passed"]


@pytest.mark.parametrize("side", paired_bench.SIDES)
def test_a_failed_test_on_either_side_fails_the_suite_verdict(side):
    pairs = [{"parent": suite_run(100.0 + i), "change": suite_run(60.0 + i)} for i in range(10)]
    assert paired_bench.summarize_suite(pairs, "wall_s")["passed"]
    pairs[6][side] = suite_run(pairs[6][side]["wall_s"], failed=1)
    out = paired_bench.summarize_suite(pairs, "wall_s")
    assert out[f"{side}_failed_tests"] == ["tests/t.py::test_0"]
    assert out[f"{side}_runs"][6]["failed"] == 1
    assert not out["claim"]["gain"] and not out["passed"]


# --- in-process mode --------------------------------------------------------

#: a stand-in for ``onlineusm.cli``: it sleeps, allocates and writes what
#: its sibling module ``work`` says, through a relative import as the
#: package does
STUB_CLI = """\
import time
from . import work


def main(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    ballast = bytearray(work.BALLAST)
    time.sleep(work.DELAY)
    with open(args["--output"], "w") as fh:
        fh.write(work.TEXT + args["--n"])
    print("summary")
    return 0 if ballast is not None else 1
"""


#: a stand-in for ``onlineusm.cli`` that rejects its arguments as the CLI
#: does: a message on stderr and exit status 2
FAILING_CLI = """\
import sys


def main(argv):
    print("unknown balance adversary 'pattern:X'", file=sys.stderr)
    return 2
"""


#: a stand-in for ``perfbench/workloads.py``: a frozen dataclass, as the
#: benchmark's, whose argv puts ``--output`` between other arguments
STUB_WORKLOADS = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    n: int

    def argv(self, seed, output):
        return ["--n", str(self.n * seed), "--output", output, "--summary", "yes"]


WORKLOADS = {"tiny": Workload(2)}
"""


def stub_copy(root, delay, text="rows\n", ballast=0, cli=STUB_CLI):
    package = root / "src" / "onlineusm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli)
    (package / "work.py").write_text(f"DELAY = {delay}\nTEXT = {text!r}\nBALLAST = {ballast}\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    return root


def stub_copies(tmp_path, parent, change):
    return {"parent": stub_copy(tmp_path / "pa", **parent), "change": stub_copy(tmp_path / "ch", **change)}


#: the metric of calls that are not forked
WALL = {"wall_s": paired_bench.IN_PROCESS_METRICS["wall_s"]}


def test_in_process_reports_the_slower_side(tmp_path):
    copies = stub_copies(tmp_path, {"delay": 0.02}, {"delay": 0.0})
    runs = paired_bench.run_in_process(copies, ["--n", "4"], 4, False, tmp_path)
    out = paired_bench.summarize_in_process(runs, WALL, None)
    wall = out["metrics"]["wall_s"]
    assert wall["pairs_won"] == 4 and wall["relative_gain"] > 0.5
    assert wall["parent"]["median"] >= 0.02 > wall["change"]["median"]
    assert out["identical"] and out["passed"]
    assert out["parent_output_sha256"] == out["change_output_sha256"]
    # the two copies swapped: the change is now the slower side and fails the bound
    runs = paired_bench.run_in_process(stub_copies(tmp_path / "swap", {"delay": 0.0}, {"delay": 0.02}),
                                       ["--n", "4"], 4, False, tmp_path)
    out = paired_bench.summarize_in_process(runs, WALL, None)
    assert out["metrics"]["wall_s"]["pairs_lost"] == 4
    assert out["regressions"] == ["wall_s"] and not out["passed"]


def test_in_process_flags_differing_output_bytes(tmp_path):
    copies = stub_copies(tmp_path, {"delay": 0.0}, {"delay": 0.0, "text": "other rows\n"})
    runs = paired_bench.run_in_process(copies, ["--n", "4"], 2, False, tmp_path)
    out = paired_bench.summarize_in_process(runs, WALL, "wall_s")
    assert not out["identical"] and not out["passed"] and not out["claim"]["gain"]
    assert out["parent_output_sha256"] != out["change_output_sha256"]


def test_in_process_forked_calls_record_peak_rss(tmp_path):
    copies = stub_copies(tmp_path, {"delay": 0.0}, {"delay": 0.0, "ballast": 64 * 2**20})
    runs = paired_bench.run_in_process(copies, ["--n", "4"], 2, True, tmp_path)
    out = paired_bench.summarize_in_process(runs, paired_bench.IN_PROCESS_METRICS, None)
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change"]["median"] - rss["parent"]["median"] > 50
    assert rss["status"] == "regressed"
    assert out["identical"]


def test_in_process_entries_share_the_file_with_runs(tmp_path):
    path = tmp_path / "BENCH.json"
    header = {"tool": "t", "revisions": {}, "host": {}}
    paired_bench.write_out(path, header, {"workload": "w", "seed": 1, "x": 1})
    paired_bench.write_out(path, header, {"command": "c", "fork": False, "x": 1}, "in_process")
    paired_bench.write_out(path, header, {"command": "c", "fork": False, "x": 2}, "in_process")
    paired_bench.write_out(path, header, {"command": "c", "fork": True, "x": 3}, "in_process")
    paired_bench.write_out(path, header, {"workload": "w", "seed": 7, "x": 4})
    data = json.loads(path.read_text())
    assert [e["x"] for e in data["runs"]] == [1, 4]
    assert [e["x"] for e in data["in_process"]] == [2, 3]


def test_a_failing_forked_call_raises():
    with pytest.raises(RuntimeError, match="forked call failed") as raised:
        paired_bench.forked(lambda: {}["missing"])
    assert "KeyError: 'missing'" in str(raised.value)


@pytest.mark.parametrize("fork", [False, True])
def test_a_failing_command_raises_with_its_stderr(tmp_path, fork):
    copies = stub_copies(tmp_path, {"delay": 0.0, "cli": FAILING_CLI}, {"delay": 0.0})
    with pytest.raises(RuntimeError, match="returned 2") as raised:
        paired_bench.run_in_process(copies, ["--n", "4"], 1, fork, tmp_path)
    assert "unknown balance adversary 'pattern:X'" in str(raised.value)


def test_a_workloads_argv_is_taken_from_its_copy_without_the_output(tmp_path):
    copies = stub_copies(tmp_path, {"delay": 0.02}, {"delay": 0.0})
    argv = paired_bench.workload_argv(copies["change"], "tiny", 3)
    assert argv == ["--n", "6", "--summary", "yes"]
    runs = paired_bench.run_in_process(copies, argv, 2, False, tmp_path)
    out = paired_bench.summarize_in_process(runs, WALL, None)
    assert out["metrics"]["wall_s"]["pairs_won"] == 2 and out["identical"]
    # the call appended its own --output, and the stub wrote the workload's --n there
    assert (tmp_path / "change.out").read_text() == "rows\n6"
    assert "paired_bench_workloads" not in paired_bench.sys.modules
    with pytest.raises(ValueError, match="no workload 'usm-n8-cycle'"):
        paired_bench.workload_argv(copies["change"], "usm-n8-cycle", 1)


@pytest.mark.parametrize("argv", [["--in-process", "--suite"], ["--command", "x"], ["--workload", "w", "--fork"],
                                  ["--suite", "--fork"]])
def test_in_process_options_go_together(argv):
    with pytest.raises(SystemExit) as raised:
        paired_bench.main(["--parent", "a", "--change", "b", *argv])
    assert raised.value.code == 2


def test_the_benchmarks_own_workloads_give_their_argv():
    argv = paired_bench.workload_argv(ROOT, "usm-n8-cycle", 7)
    assert "--output" not in argv and argv[:2] == ["simulate-usm", "--n"]
    assert argv[argv.index("--seed") + 1] == "7"


def test_each_side_records_its_package_size(tmp_path):
    copies = stub_copies(tmp_path, {"delay": 0.0}, {"delay": 0.0})
    package = copies["change"] / "src" / "onlineusm"
    # binds DELAY, a name of its own and the submodule work; _hidden is private
    (package / "__init__.py").write_text("from .work import DELAY\nvalue = 1\n_hidden = 2\n")
    (package / "extra.py").write_text("a = 1\nb = 2")  # no newline at the end: wc -l counts 1
    stub = STUB_CLI.count("\n") + 3  # cli.py and the three lines of work.py
    assert paired_bench.size_of(copies["parent"]) == {"src_lines": stub, "exported_names": 0}
    assert paired_bench.size_of(copies["change"]) == {"src_lines": stub + 3 + 1, "exported_names": 3}
