"""Benchmark of the ``onlineusm`` CLI: goodput, set-up time and memory.

    python3 perfbench/run.py --workload usm-n8-cycle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout.  For each workload (see
``workloads.py``) it

* times set-up in several fresh processes (``import onlineusm`` plus one
  construction of the instance) and reports the median as ``setup_s``,
  scaled to the nominal host speed like ``goodput`` (below);
* runs the workload's CLI command (``onlineusm.cli.main``) repeatedly in
  one fresh process for ``--seconds`` and reports the median ``goodput``
  and that process's ``peak_rss_mb``.  A command's goodput is its work
  whose output passed the check (trial-rounds, or offline sweeps) per
  second of wall time, scaled to a nominal host speed: multiplied by
  r / REFERENCE_NOMINAL_S, where r is how long a fixed pure-Python loop
  took just before and after the command.  On a shared host the same
  command's wall time drifts by a third over minutes; the loop drifts
  with it, so the scaled rate stays steady.  The unscaled rates are kept
  in the result file;
* checks every output: the first in full with ``check.py``, the rest by
  their sha256, which must equal the first's (the commands are seeded);
* with ``--trace 1`` alternates untraced and traced commands and reports
  per-layer metrics from ``tracing.py`` plus ``trace.overhead_frac``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (checked units: trials of the online game, runs of the
offline ladder) and ``metrics``.  Lines before it give every metric by
name with its unit, the output digests and the provenance, which are
also written to ``.perfbench_out/``.  The exit code is 0 when the
measurement completed, whatever the check found, and 2 when it could
not run (for example when ``src/onlineusm`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUTDIR = ROOT / ".perfbench_out"

#: set-up probes: at least SETUP_MIN fresh processes, more while within budget
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 6.0
#: reference-loop time (``worker.reference_loop``) of the nominal host that
#: ``goodput`` is scaled to; about its time on an unloaded 2-core Xeon sandbox
REFERENCE_NOMINAL_S = 0.015
#: a worker that runs longer than the measurement plus this is stopped
WORKER_GRACE_S = 120.0

END_TO_END = {"goodput": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "framework.run_round.calls", "framework.run_round.busy_s", "framework.run_round.self_s",
    "balance.decide.calls", "balance.decide.busy_s",
    "balance.update.calls", "balance.update.busy_s",
    "harness.run_experiment.self_s", "harness.write_results.busy_s", "harness.write_results.bytes",
    "submodular.value_table.calls", "submodular.value_table.busy_s",
    "submodular.tabulate.calls", "submodular.tabulate.busy_s",
    "submodular.random_digraph.busy_s",
    "harness.build_usm_adversary.calls", "harness.build_usm_adversary.busy_s",
    "framework.run_usm_game.calls", "framework.run_usm_game.busy_s", "framework.run_usm_game.self_s",
    "adversaries.next_oracle.calls", "adversaries.next_oracle.busy_s",
    "submodular.peek.calls", "submodular.peek.busy_s",
    "submodular.evaluate.calls", "submodular.evaluate.busy_s",
    "offline.rand_double_greedy.calls", "offline.rand_double_greedy.busy_s",
    "offline.det_double_greedy.busy_s", "offline.brute_force_opt.busy_s",
    "offline.uniform_random_value.busy_s",
    "framework.queries_per_round", "cli.main.self_s", "trace.overhead_frac",
)
_STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "bytes": "bytes",
               "queries_per_round": "count", "overhead_frac": "ratio"}


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or _STAT_UNITS[metric.rsplit(".", 1)[1]]


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def _worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, "-E", str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _setup_samples(name: str, seed: int) -> list[float]:
    """Scaled set-up seconds of each fresh-process probe."""
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_MIN or (
        len(samples) < SETUP_MAX and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        probe = _worker(["setup", name, str(seed)], WORKER_GRACE_S)
        samples.append(probe["setup_s"] * REFERENCE_NOMINAL_S / probe["reference_s"])
    return samples


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure and check one workload; returns the result record."""
    from check import check_output

    workload = WORKLOADS[name]
    OUTDIR.mkdir(exist_ok=True)
    setup = [] if trace else _setup_samples(name, seed)
    m = _worker(["measure", name, str(seed), str(seconds), "1" if trace else "0", str(OUTDIR)],
                seconds + WORKER_GRACE_S)
    check = check_output(workload, seed, m["output"], m["stdout"])
    check.reasons.extend(f"command raised: {e}" for e in m["errors"])
    reference = m["digests"][0]
    # per command, in order: number of units that passed
    passed = [
        workload.units - len(check.failed) if code == 0 and digest == reference else 0
        for code, digest in zip(m["exit_codes"], m["digests"])
    ]
    attempted = workload.units * len(passed)
    failed = attempted - sum(passed)
    # untraced commands are the even-numbered ones in trace mode, all of them otherwise
    untraced = passed[::2] if trace else passed
    raw_goodput = [p * workload.work_per_unit / wall for p, wall in zip(untraced, m["walls_s"])]
    goodput = [g * r / REFERENCE_NOMINAL_S for g, r in zip(raw_goodput, m["reference_s"])]

    if trace:
        metrics = {k: m["layers"].get(k, 0) for k in PER_LAYER}
        metrics["framework.queries_per_round"] = check.queries_per_round
        metrics["trace.overhead_frac"] = (
            statistics.median(m["traced_walls_s"]) / statistics.median(m["walls_s"]) - 1.0
        )
    else:
        metrics = {
            "goodput": statistics.median(goodput),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": m["peak_rss_bytes"] / 1e6,
        }
    return {
        "workload": name,
        "gated": workload.gated,
        "trace": int(trace),
        "argv": workload.argv(seed, "<output>"),
        "provenance": provenance(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "output_sha256": reference[0],
        "queries_per_round": check.queries_per_round,
        "query_budget_per_round": 0 if workload.offline else 4 * workload.n + 2,
        "check_failures": check.reasons,
        "command_walls_s": m["walls_s"],
        "traced_command_walls_s": m["traced_walls_s"],
        "goodput_samples": goodput,
        "unscaled_goodput_samples": raw_goodput,
        "reference_s": m["reference_s"],
        "setup_samples_s": setup,
    }


def report(res: dict) -> None:
    """Human-readable lines; the machine-readable line comes last."""
    mode = "traced" if res["trace"] else "untraced"
    print(f"== {res['workload']}  seed {res['provenance']['seed']}  ({mode}, "
          f"{len(res['command_walls_s']) + len(res['traced_command_walls_s'])} commands)")
    for k, v in res["metrics"].items():
        print(f"  {k:40s} {v['value']:.6g} {v['unit']}")
    if res["unscaled_goodput_samples"]:
        print(f"  {'goodput, unscaled':40s} {statistics.median(res['unscaled_goodput_samples']):.6g} ops/s "
              f"(median of {len(res['unscaled_goodput_samples'])} untraced commands; reference loop "
              f"{statistics.median(res['reference_s']) * 1e3:.3g} ms, nominal {REFERENCE_NOMINAL_S * 1e3:g} ms)")
    print(f"  {'failed_frac':40s} {res['failed_frac']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} checked units)")
    for reason in res["check_failures"][:5]:
        print(f"    check: {reason}")
    print(f"  output sha256 {res['output_sha256']}")
    print(f"  framework.queries_per_round {res['queries_per_round']} "
          f"(budget {res['query_budget_per_round']})")
    print(f"  argv {' '.join(res['argv'])}")
    print(f"  provenance {json.dumps(res['provenance'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "onlineusm" / "__init__.py").is_file():
        print(f"error: no onlineusm source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        from worker import import_package

        import_package()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            path = OUTDIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
            report(res)
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}),
                  flush=True)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
