"""Paired, alternating benchmark runs of two revisions of this repository.

    python3 tools/paired_bench.py --parent d3a6069 --change HEAD \\
        --workload offline-n16 --seed 1 --pairs 10 --out BENCH_tag.json

Run it from the root of a git checkout.  It extracts both revisions with
``git archive`` into two sibling directories whose paths have the same
length (``<workdir>/pa`` and ``<workdir>/ch``), warms each copy's
``__pycache__`` with ``python3 -m compileall -q src perfbench``, then runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` in each,
with T the ``run_seconds`` of ``BENCHMARK.json``, ``--pairs`` times,
switching which side runs first from one pair to the next.  It reads each run's last stdout line (the benchmark's JSON record)
and the output digest from the result file the benchmark writes.

It prints, per side, the first quartile, median and third quartile of
every end-to-end metric of ``BENCHMARK.json``, the pairs the change won on
the claimed metric, and the verdict: a gain when there are at least ten
pairs, the change wins at least nine tenths of them (ties count for neither
side), the medians differ, in the better direction, by more than the
parent's interquartile range, and the change fails no larger share of its
operations; a regression when any metric's change median is worse than the
parent's by more than its bound; unresolved when the parent's own spread
exceeds that bound and not every change run beats every parent run.  The
verdict passes only with no regression, no unresolved metric, no larger
failed share and, when a gain is claimed, the gain.
``--out`` writes the same, with provenance, to a JSON file.  A file that
already holds runs of the same two revisions keeps them, except those of
the same workload and seed, so several workloads and seeds share one file.

Any tree-ish names a revision, so an uncommitted change can be measured
as the tree of its index (``git write-tree`` after ``git add -A``).  Each
side's provenance records the tree ids of ``src`` and ``perfbench``, the
directories the benchmark builds from: the commit that lands the change
reaches them as long as neither directory changes after the runs, also when
the whole-revision tree was never committed.
Nothing but the two copies should run meanwhile.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

#: share of the pairs the change must win for a gain
WIN_SHARE = 0.9
#: fewest pairs a gain can rest on
MIN_PAIRS = 10
#: the directories each copy's benchmark runs are built from
BUILT_FROM = ("src", "perfbench")
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3 (linear interpolation between order statistics)."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent: dict[str, list[float]], change: dict[str, list[float]],
            metrics: dict[str, dict], claim: str | None) -> dict:
    """Compare paired runs metric by metric.

    ``parent[m][i]`` and ``change[m][i]`` are pair i's values of metric m;
    ``metrics`` maps each metric to its ``BENCHMARK.json`` entry (``better``
    is ``"higher"`` or ``"lower"``, ``bound`` the relative worsening
    allowed).  ``claim`` names the metric a gain is claimed on, or None.
    """
    report, regressions, unresolved = {}, [], []
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "higher" else -1.0
        pa, ch = parent[name], change[name]
        qp, qc = quartiles(pa), quartiles(ch)
        # relative change, positive when the change is better
        gain = sign * (qc["median"] - qp["median"]) / abs(qp["median"])
        won = sum(sign * (c - p) > 0 for p, c in zip(pa, ch))
        lost = sum(sign * (c - p) < 0 for p, c in zip(pa, ch))
        spread = (qp["q3"] - qp["q1"]) / abs(qp["median"])
        every_run_better = min(sign * c for c in ch) > max(sign * p for p in pa)
        if gain < -spec["bound"]:
            status = "regressed"
            regressions.append(name)
        elif spread > spec["bound"] and not every_run_better:
            status = "unresolved"
            unresolved.append(name)
        else:
            status = "within bound"
        report[name] = {
            "parent": qp, "change": qc, "relative_gain": gain, "bound": spec["bound"],
            "pairs_won": won, "pairs_lost": lost, "pairs": len(pa),
            "parent_iqr": qp["q3"] - qp["q1"], "status": status,
        }
    out = {"metrics": report, "regressions": regressions, "unresolved": unresolved}
    if claim is not None:
        m = report[claim]
        sign = 1.0 if metrics[claim]["better"] == "higher" else -1.0
        diff = sign * (m["change"]["median"] - m["parent"]["median"])
        out["claim"] = {
            "metric": claim,
            "pairs_won": m["pairs_won"],
            "pairs": m["pairs"],
            "median_difference": diff,
            "parent_iqr": m["parent_iqr"],
            "gain": m["pairs"] >= MIN_PAIRS and m["pairs_won"] >= WIN_SHARE * m["pairs"]
                    and diff > m["parent_iqr"],
        }
    out["passed"] = not regressions and not unresolved and out.get("claim", {}).get("gain", True)
    return out


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> dict[str, str]:
    """Extract ``rev`` into ``dest`` (replacing it); returns its provenance.

    That is ``rev`` as given, its tree id and the tree ids of ``BUILT_FROM``.
    """
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", *BUILT_FROM], cwd=dest, check=True)
    ids = _git("rev-parse", f"{rev}^{{tree}}", *(f"{rev}^{{tree}}:{d}" for d in BUILT_FROM)).decode().split()
    return {"rev": rev, "tree": ids[0], **{f"{d}_tree": i for d, i in zip(BUILT_FROM, ids[1:])}}


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``copy``: its last JSON line plus the output digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {copy} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    result = json.loads((copy / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    record["output_sha256"] = result["output_sha256"]
    record["provenance"] = result["provenance"]
    return record


def measure(copies: dict[str, Path], workload: str, seed: int, seconds: float, pairs: int) -> list[dict]:
    """``pairs`` alternating pairs; pair i runs the parent first when i is even."""
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(copies[side], workload, seed, seconds) for side in order}
        runs.append(pair)
        values = "  ".join(f"{side} {pair[side]['metrics']['goodput']['value']:.6g}" for side in SIDES)
        print(f"pair {i + 1}/{pairs} ({order[0]} first): goodput {values}", flush=True)
    return runs


def summarize(runs: list[dict], metrics: dict[str, dict], claim: str | None) -> dict:
    series = {side: {m: [r[side]["metrics"][m]["value"] for r in runs] for m in metrics} for side in SIDES}
    result = verdict(series["parent"], series["change"], metrics, claim)
    for side in SIDES:
        failed = sum(r[side]["failed"] for r in runs)
        attempted = sum(r[side]["attempted"] for r in runs)
        result[f"{side}_failed_frac"] = failed / attempted
        result[f"{side}_output_sha256"] = sorted({r[side]["output_sha256"] for r in runs})
        result[f"{side}_values"] = series[side]
    if result["change_failed_frac"] > result["parent_failed_frac"]:
        result["passed"] = False
        if "claim" in result:
            result["claim"]["gain"] = False
    return result


def print_summary(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}  seed {seed}")
    for name, m in result["metrics"].items():
        for side in SIDES:
            q = m[side]
            print(f"  {name:12s} {side:7s} q1 {q['q1']:.6g}  median {q['median']:.6g}  q3 {q['q3']:.6g}")
        print(f"  {name:12s} change {m['relative_gain']:+.2%} (better is positive; bound {m['bound']:.0%}), "
              f"won {m['pairs_won']} of {m['pairs']} pairs: {m['status']}")
    for side in SIDES:
        print(f"  {side} failed_frac {result[f'{side}_failed_frac']:.6g}, "
              f"output sha256 {', '.join(result[f'{side}_output_sha256'])}")
    if "claim" in result:
        c = result["claim"]
        print(f"  claim on {c['metric']}: won {c['pairs_won']} of {c['pairs']} pairs, median difference "
              f"{c['median_difference']:.6g} against parent IQR {c['parent_iqr']:.6g}: "
              f"{'gain' if c['gain'] else 'no gain'}")
    print(f"  verdict: {'passed' if result['passed'] else 'failed'}")


def write_out(path: Path, header: dict, entry: dict) -> None:
    """Add ``entry`` to the runs of ``path``, replacing one of the same workload and seed."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs = [r for r in runs if (r["workload"], r["seed"]) != (entry["workload"], entry["seed"])]
    path.write_text(json.dumps({**header, "runs": [*runs, entry]}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="tree-ish of the parent revision")
    parser.add_argument("--change", required=True, help="tree-ish of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", default=None, help="end-to-end metric a gain is claimed on")
    parser.add_argument("--workdir", default=None, help="where the two copies go; default a new temporary one")
    parser.add_argument("--out", default=None, help="BENCH_<tag>.json to write or extend")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {sorted(metrics)}")
    seconds = bench["run_seconds"]
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="paired-bench-")).resolve()
    copies = {"parent": workdir / "pa", "change": workdir / "ch"}
    revisions = {side: extract(getattr(args, side), copies[side]) for side in SIDES}
    out = Path(args.out) if args.out else None
    if out is not None and out.exists() and json.loads(out.read_text())["revisions"] != revisions:
        parser.error(f"{out} holds runs of other revisions")

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = measure(copies, args.workload, args.seed, seconds, args.pairs)
    result = summarize(runs, metrics, args.claim)
    print_summary(args.workload, args.seed, result)
    if out is not None:
        header = {
            "tool": "tools/paired_bench.py",
            "revisions": revisions,
            "host": {k: v for k, v in runs[0]["change"]["provenance"].items() if k not in ("git_commit", "seed")},
        }
        entry = {
            "workload": args.workload, "seed": args.seed, "run_seconds": seconds, "pairs": args.pairs,
            "started_utc": started, "command": f"perfbench/run.py --workload {args.workload} "
                                               f"--seed {args.seed} --seconds {seconds:g}",
            **result,
        }
        write_out(out, header, entry)
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
