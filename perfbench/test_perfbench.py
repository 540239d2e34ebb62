"""Tests of the benchmark itself: the output checker, the tracer, the
metric lists in BENCHMARK.json and the exit without a source tree.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench
from check import check_output
from tracing import Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

#: the workloads at a size that runs in well under a second
TINY = {
    "usm-n8-cycle": dict(rounds=40, trials=2),
    "usm-n18-cycle": dict(n=9, rounds=40, trials=2),
    "usm-n10-adaptive": dict(n=6, rounds=40, trials=2),
    "offline-n16": dict(n=8, trials=300),
}


def run_cli(workload: Workload, seed: int, out: Path, *extra: str) -> str:
    """Run the workload's command in-process; returns what it printed."""
    from onlineusm import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(workload.argv(seed, str(out)) + list(extra)) == 0
    return stdout.getvalue()


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_the_checker(name, tmp_path):
    workload = replace(WORKLOADS[name], **TINY[name])
    out = tmp_path / "out"
    # The adaptive kind reports the wrong regret unless oracles are retained
    # (ROADMAP item 1); retention yields the true values the checker expects.
    extra = ("--keep-transcripts",) if name == "usm-n10-adaptive" else ()
    result = check_output(workload, 3, str(out), run_cli(workload, 3, out, *extra))
    assert result.reasons == []
    assert result.units == (1 if workload.offline else workload.trials)
    if not workload.offline:
        assert 1 <= result.queries_per_round <= 4 * workload.n + 2


@pytest.mark.parametrize("row, keep_regret_consistent", [(15, False), (39, True)])
def test_checker_rejects_a_perturbed_cum_opt(tmp_path, row, keep_regret_consistent):
    workload = replace(WORKLOADS["usm-n8-cycle"], **TINY["usm-n8-cycle"])
    out = tmp_path / "out.csv"
    stdout = run_cli(workload, 3, out)
    lines = out.read_text().splitlines()
    index = 1 + workload.rounds + row  # header, then trial 0, then trial 1
    cells = lines[index].split(",")
    cum_opt = float(cells[4]) + 0.25
    cells[4] = format(cum_opt, ".12g")
    if keep_regret_consistent:
        cells[5] = format(0.5 * cum_opt - float(cells[3]), ".12g")
    lines[index] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    result = check_output(workload, 3, str(out), stdout)
    assert result.failed == {1}


@pytest.mark.parametrize("adversary", ["fresh-random", "adaptive:punish-last-set"])
@pytest.mark.parametrize("retain", [False, True])
def test_checker_flags_the_stale_table_regret(tmp_path, adversary, retain):
    # ROADMAP item 1: without oracle retention, value tables are cached under
    # reused ids, so cum_opt is wrong for these kinds (n=6, T=300, seed 1).
    workload = Workload("repro", n=6, rounds=300, trials=1, adversary=adversary,
                        subroutine="balancer")
    out = tmp_path / "out.json"
    extra = ("--keep-transcripts",) if retain else ()
    result = check_output(workload, 1, str(out), run_cli(workload, 1, out, *extra))
    assert result.failed == (set() if retain else {0})


def test_tracer_counts_layers_without_changing_output(tmp_path):
    from onlineusm import framework

    workload = replace(WORKLOADS["usm-n8-cycle"], **TINY["usm-n8-cycle"])
    plain = run_cli(workload, 3, tmp_path / "plain.csv")
    original = framework.run_round
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cli(workload, 3, tmp_path / "traced.csv")
    finally:
        tracer.uninstall()
    assert framework.run_round is original
    assert traced == plain
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    stats = tracer.layer_stats()
    rounds = workload.rounds * workload.trials
    assert stats["cli.main"]["calls"] == 1
    assert stats["framework.run_usm_game"]["calls"] == workload.trials
    assert stats["framework.run_round"]["calls"] == rounds
    assert stats["balance.decide"]["calls"] == stats["balance.update"]["calls"] == rounds * workload.n
    assert stats["submodular.peek"]["calls"] == rounds
    assert stats["submodular.evaluate"]["calls"] <= rounds * (2 * workload.n + 2)
    for layer in stats.values():
        assert 0.0 <= layer["self_s"] <= layer["busy_s"] + 1e-9


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {w.name for w in WORKLOADS.values() if w.gated}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert all(m["unit"] == bench.unit_of(m["name"]) for m in spec["per_layer"])


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "usm-n8-cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
