"""Paired, alternating benchmark runs of two revisions of this repository.

    python3 tools/paired_bench.py --parent d3a6069 --change HEAD \\
        --workload offline-n16 --seed 1 --pairs 10 --out BENCH_tag.json
    python3 tools/paired_bench.py --parent d3a6069 --change HEAD \\
        --suite --pairs 3 --out BENCH_tag.json

Run it from the root of a git checkout.  It extracts both revisions with
``git archive`` into two sibling directories whose paths have the same
length (``<workdir>/pa`` and ``<workdir>/ch``), warms each copy's
``__pycache__`` with ``python3 -m compileall -q src perfbench``, then runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` in each,
with T the ``run_seconds`` of ``BENCHMARK.json``, ``--pairs`` times,
switching which side runs first from one pair to the next.  It reads each run's last stdout line (the benchmark's JSON record)
and the output digest and check failures from the result file the benchmark writes.
Each side's ``{side}_runs`` lists every run's failed and attempted
operations and check failures, so a failed share can be traced to its runs,
and the medians of its unscaled goodput samples and of its reference-loop
times, so a shift in the loop that scales ``goodput`` can be told apart
from a change in the command.

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

``--suite`` times the tier-1 test suite instead of a workload: each copy
runs ``python3 -m pytest -q --continue-on-collection-errors -p
no:cacheprovider --durations=0`` with ``src`` on ``PYTHONPATH``, in the same
alternation.  Each run records its wall time, its passed and failed counts
(errors count as failed), the ids the short summary names, and the ten
slowest durations (setup, call and teardown apart) with their q1, median
and q3.  The verdict judges the wall time as above, against ``SUITE_BOUND``,
and fails when any run on either side has a failed test.

``--in-process --command "<argv>"`` times one CLI command inside one
process instead (``--in-process --workload W --seed S`` times workload W's
command: the argv ``WORKLOADS[W].argv(S, ...)`` of the change copy's
``perfbench/workloads.py``, without its ``--output``).  It imports each
copy's ``src/onlineusm`` under its own package name (``onlineusm_parent``,
``onlineusm_change``; the package uses only relative imports), calls each
side's ``cli.main`` once to warm it, then alternately, ``--pairs`` times,
with ``--output`` appended to the argv (a file in a temporary directory).
Each call records its wall time and the sha256 of its stdout followed by
the file it wrote; both sides must write identical bytes.  With ``--fork``
each call runs in a child forked from the tool's process, which holds both
copies imported, and also records the child's peak RSS (which starts at
the tool's own).  The record, the quartiles and pairs won of
``IN_PROCESS_METRICS`` and the digests, goes to the same ``--out`` file
under ``in_process``, one entry per command.  It locates a difference that
process-level runs show (in the command, or only across processes); the
process-level verdict stays the gate.  Byte checks need a command whose
output does not depend on the process: a cycle kind, a balance game or a
run with ``--keep-transcripts``.

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
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import traceback
from pathlib import Path

#: share of the pairs the change must win for a gain
WIN_SHARE = 0.9
#: fewest pairs a gain can rest on
MIN_PAIRS = 10
#: what ``{side}_runs`` keeps of each run, where the run has it
RUN_FIELDS = ("failed", "attempted", "check_failures", "unscaled_goodput", "reference_s")
#: the directories each copy's benchmark runs are built from
BUILT_FROM = ("src", "perfbench")
SIDES = ("parent", "change")
#: the tier-1 command of ``--suite``, run from the root of each copy
SUITE_COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                 "--durations=0")
#: relative worsening of the suite's wall time the verdict allows: the
#: bound ``BENCHMARK.json`` gives its timed metrics
SUITE_BOUND = 0.25
SUITE_METRICS = {"wall_s": {"better": "lower", "bound": SUITE_BOUND}}
#: durations whose quartiles a suite run records, the largest first
SLOWEST = 10
#: what an ``--in-process`` call records, with the bounds of ``--suite``'s
#: wall time and of ``BENCHMARK.json``'s peak RSS; peak RSS with ``--fork`` only
IN_PROCESS_METRICS = {"wall_s": {"better": "lower", "bound": SUITE_BOUND},
                      "peak_rss_mb": {"better": "lower", "bound": 0.1}}


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
    A metric whose parent median is 0 has no relative change: its
    ``relative_gain`` is None and it is unresolved.
    """
    report, regressions, unresolved = {}, [], []
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "higher" else -1.0
        pa, ch = parent[name], change[name]
        qp, qc = quartiles(pa), quartiles(ch)
        won = sum(sign * (c - p) > 0 for p, c in zip(pa, ch))
        lost = sum(sign * (c - p) < 0 for p, c in zip(pa, ch))
        every_run_better = min(sign * c for c in ch) > max(sign * p for p in pa)
        gain = spread = None
        if qp["median"] != 0:
            # relative change, positive when the change is better
            gain = sign * (qc["median"] - qp["median"]) / abs(qp["median"])
            spread = (qp["q3"] - qp["q1"]) / abs(qp["median"])
        if gain is None:
            status = "unresolved"
            unresolved.append(name)
        elif gain < -spec["bound"]:
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


def percent(gain: float | None) -> str:
    """A relative gain as a signed percentage, or "n/a" without one."""
    return "n/a" if gain is None else f"{gain:+.2%}"


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
    """One benchmark run in ``copy``: its last JSON line plus the output digest,
    the reasons its output check failed, and the medians of its unscaled
    goodput samples and reference-loop times (None without samples)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {copy} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    result = json.loads((copy / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    record["output_sha256"] = result["output_sha256"]
    record["check_failures"] = result["check_failures"]
    record["provenance"] = result["provenance"]
    for field, samples in (("unscaled_goodput", "unscaled_goodput_samples"), ("reference_s", "reference_s")):
        record[field] = statistics.median(result[samples]) if result[samples] else None
    return record


def measure(copies: dict[str, Path], pairs: int, run, show) -> list[dict]:
    """``pairs`` alternating pairs of ``run(copy)``; pair i runs the parent first when i is even.

    ``show(record)`` is how a run is printed in the pair's progress line.
    """
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run(copies[side]) for side in order}
        runs.append(pair)
        values = "  ".join(f"{side} {show(pair[side])}" for side in SIDES)
        print(f"pair {i + 1}/{pairs} ({order[0]} first): {values}", flush=True)
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
        result[f"{side}_runs"] = [{k: r[side][k] for k in RUN_FIELDS} for r in runs]
    if result["change_failed_frac"] > result["parent_failed_frac"]:
        result["passed"] = False
        if "claim" in result:
            result["claim"]["gain"] = False
    return result


_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected|warnings?)\b")
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S.*)$")
# a test id, whose parameters in brackets may hold spaces, then " - " and the message
_NAMED = re.compile(r"^(FAILED|ERROR) ([^\s\[]+(?:\[.*?\](?= - |$))?)")


def parse_suite_output(text: str) -> dict:
    """Counts and slowest durations of one ``pytest -q --durations=0`` run.

    ``failed`` adds the errors to the failed tests; ``failed_tests`` lists
    the ids of the short summary's ``FAILED`` and ``ERROR`` lines.
    ``slowest`` holds the ``SLOWEST`` largest durations as ``[seconds,
    phase, id]``, and ``slowest_quartiles`` their q1, median and q3.  Text
    without a summary line (``... in 76.12s``) raises ``ValueError``.
    """
    summary = None
    durations, named = [], []
    for line in text.splitlines():
        if m := _DURATION.match(line):
            durations.append([float(m[1]), m[2], m[3]])
        elif m := _NAMED.match(line):
            named.append(m[2])
        elif re.search(r" in \d+(?:\.\d+)?s\b", line) and _COUNT.search(line):
            summary = line
    if summary is None:
        raise ValueError("no pytest summary line in the output")
    # "errors" and "warnings" to their singular; no other word ends in "s"
    counts = {word.rstrip("s"): int(number) for number, word in _COUNT.findall(summary)}
    durations.sort(key=lambda d: d[0], reverse=True)
    slowest = durations[:SLOWEST]
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "failed_tests": named,
        "slowest": slowest,
        "slowest_quartiles": quartiles([d[0] for d in slowest]) if slowest else None,
    }


def run_suite_once(copy: Path) -> dict:
    """One tier-1 run in ``copy``: its wall time plus :func:`parse_suite_output`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, *SUITE_COMMAND]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    # pytest exits 1 when a test failed; anything above means it did not run the suite
    if proc.returncode > 1:
        raise RuntimeError(f"{' '.join(cmd)} in {copy} exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return {"wall_s": wall, **parse_suite_output(proc.stdout)}


def summarize_suite(runs: list[dict], claim: str | None) -> dict:
    """The verdict on the suite's wall time, failed unless every run of both sides failed no test."""
    series = {side: {"wall_s": [r[side]["wall_s"] for r in runs]} for side in SIDES}
    result = verdict(series["parent"], series["change"], SUITE_METRICS, claim)
    for side in SIDES:
        result[f"{side}_failed_tests"] = sorted({t for r in runs for t in r[side]["failed_tests"]})
        result[f"{side}_values"] = series[side]
        result[f"{side}_runs"] = [r[side] for r in runs]
    if any(r[side]["failed"] for r in runs for side in SIDES):
        result["passed"] = False
        if "claim" in result:
            result["claim"]["gain"] = False
    return result


def print_suite_summary(result: dict) -> None:
    print("== tier-1 suite")
    m = result["metrics"]["wall_s"]
    for side in SIDES:
        q = m[side]
        failed = sum(r["failed"] for r in result[f"{side}_runs"])
        print(f"  wall_s  {side:7s} q1 {q['q1']:.4g}  median {q['median']:.4g}  q3 {q['q3']:.4g}, "
              f"passed {sorted({r['passed'] for r in result[f'{side}_runs']})}, failed {failed}")
        for test in result[f"{side}_failed_tests"]:
            print(f"    failed: {test}")
    print(f"  wall_s change {percent(m['relative_gain'])} (better is positive; bound {m['bound']:.0%}), "
          f"won {m['pairs_won']} of {m['pairs']} pairs: {m['status']}")
    print(f"  verdict: {'passed' if result['passed'] else 'failed'}")


def load_cli(copy: Path, name: str):
    """The ``cli`` module of ``copy``'s ``src/onlineusm``, imported as package ``name``."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    root = copy / "src" / "onlineusm"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def call_once(cli, argv: list[str], output: Path) -> dict:
    """One ``cli.main(argv + ["--output", output])``: its wall time and the
    sha256 of its stdout followed by the bytes it wrote.  A nonzero exit
    raises, with what the call wrote to stderr."""
    output.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main([*argv, "--output", str(output)])
        wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{cli.__name__}.main({argv}) returned {code}; its stderr:\n{stderr.getvalue()}")
    digest = hashlib.sha256(stdout.getvalue().encode())
    if output.exists():
        # in blocks, so that a forked call's peak RSS is the command's, not the file's
        with output.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return {"wall_s": wall, "output_sha256": digest.hexdigest()}


def forked(fn) -> dict:
    """``fn()``'s record, made in a child forked from this process, with the
    child's peak RSS in MB.  If ``fn`` raises, so does this, with the
    child's traceback."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's code
        os.close(read)
        code = 1
        try:
            with os.fdopen(write, "w") as fh:
                try:
                    record = fn()
                    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    fh.write(json.dumps(record))
                    code = 0
                except Exception:
                    fh.write(traceback.format_exc())
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    if os.waitpid(pid, 0)[1] != 0:
        raise RuntimeError(f"a forked call failed:\n{text}")
    return json.loads(text)


def workload_argv(copy: Path, name: str, seed: int) -> list[str]:
    """Workload ``name``'s CLI argv at ``seed`` from ``copy``'s
    ``perfbench/workloads.py``, imported by path, without its ``--output``
    pair (:func:`call_once` appends its own)."""
    spec = importlib.util.spec_from_file_location("paired_bench_workloads", copy / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    if name not in workloads.WORKLOADS:
        raise ValueError(f"no workload {name!r}; there are {sorted(workloads.WORKLOADS)}")
    argv = workloads.WORKLOADS[name].argv(seed, "")
    at = argv.index("--output")
    del argv[at:at + 2]
    return argv


def run_in_process(copies: dict[str, Path], argv: list[str], pairs: int, fork: bool, outdir: Path) -> list[dict]:
    """``pairs`` alternating pairs of :func:`call_once` on each side's ``cli``, after one warm-up call each."""
    clis = {side: load_cli(copies[side], f"onlineusm_{side}") for side in SIDES}

    def run(side):
        record = lambda: call_once(clis[side], argv, outdir / f"{side}.out")
        return forked(record) if fork else record()

    for side in SIDES:
        run(side)
    return measure({side: side for side in SIDES}, pairs, run,
                   lambda r: " ".join(f"{m} {r[m]:.6g}" for m in IN_PROCESS_METRICS if m in r))


def summarize_in_process(runs: list[dict], metrics: dict[str, dict], claim: str | None) -> dict:
    """The verdict on ``metrics``, failed unless every call of both sides wrote the same bytes."""
    series = {side: {m: [r[side][m] for r in runs] for m in metrics} for side in SIDES}
    result = verdict(series["parent"], series["change"], metrics, claim)
    digests = {side: sorted({r[side]["output_sha256"] for r in runs}) for side in SIDES}
    result["identical"] = len(digests["parent"]) == 1 and digests["parent"] == digests["change"]
    for side in SIDES:
        result[f"{side}_output_sha256"] = digests[side]
        result[f"{side}_values"] = series[side]
    if not result["identical"]:
        result["passed"] = False
        if "claim" in result:
            result["claim"]["gain"] = False
    return result


def print_in_process_summary(command: str, result: dict) -> None:
    print(f"== in process: {command}")
    print_metrics(result)
    print(f"  output bytes {'identical' if result['identical'] else 'DIFFER'}: "
          f"parent {', '.join(result['parent_output_sha256'])}; change {', '.join(result['change_output_sha256'])}")
    print(f"  verdict: {'passed' if result['passed'] else 'failed'}")


def host_of(copy: Path) -> dict:
    """The host fields of the provenance the benchmark in ``copy`` records."""
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import run; "
            "print(json.dumps(run.provenance(0)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=copy, check=True, capture_output=True, text=True)
    return {k: v for k, v in json.loads(out.stdout).items() if k not in ("git_commit", "seed")}


def print_metrics(result: dict) -> None:
    """Each metric's quartiles per side, relative change, pairs won and status."""
    for name, m in result["metrics"].items():
        for side in SIDES:
            q = m[side]
            print(f"  {name:12s} {side:7s} q1 {q['q1']:.6g}  median {q['median']:.6g}  q3 {q['q3']:.6g}")
        print(f"  {name:12s} change {percent(m['relative_gain'])} (better is positive; bound {m['bound']:.0%}), "
              f"won {m['pairs_won']} of {m['pairs']} pairs: {m['status']}")


def print_summary(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}  seed {seed}")
    print_metrics(result)
    for side in SIDES:
        print(f"  {side} failed_frac {result[f'{side}_failed_frac']:.6g}, "
              f"output sha256 {', '.join(result[f'{side}_output_sha256'])}")
    if "claim" in result:
        c = result["claim"]
        print(f"  claim on {c['metric']}: won {c['pairs_won']} of {c['pairs']} pairs, median difference "
              f"{c['median_difference']:.6g} against parent IQR {c['parent_iqr']:.6g}: "
              f"{'gain' if c['gain'] else 'no gain'}")
    print(f"  verdict: {'passed' if result['passed'] else 'failed'}")


#: the fields that name an entry of each list of a BENCH file
ENTRY_KEYS = {"runs": ("workload", "seed"), "in_process": ("command", "fork")}


def write_out(path: Path, header: dict, entry: dict, key: str = "runs") -> None:
    """Add ``entry`` to the ``key`` list of ``path``, replacing one that
    agrees with it on ``ENTRY_KEYS[key]``; the other lists stay."""
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    lists = {k: v for k, v in data.items() if k in ENTRY_KEYS}
    named = lambda e: [e[k] for k in ENTRY_KEYS[key]]
    lists[key] = [e for e in lists.get(key, []) if named(e) != named(entry)] + [entry]
    path.write_text(json.dumps({**header, **lists}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="tree-ish of the parent revision")
    parser.add_argument("--change", required=True, help="tree-ish of the change")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--suite", action="store_true", help="time the tier-1 test suite")
    what.add_argument("--command", help="onlineusm CLI arguments for --in-process, without --output")
    parser.add_argument("--in-process", action="store_true",
                        help="time --command, or --workload's command, inside one process")
    parser.add_argument("--fork", action="store_true", help="with --in-process, fork a child per call "
                                                             "and record its peak RSS")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", default=None, help="end-to-end metric a gain is claimed on")
    parser.add_argument("--workdir", default=None, help="where the two copies go; default a new temporary one")
    parser.add_argument("--out", default=None, help="BENCH_<tag>.json to write or extend")
    args = parser.parse_args(argv)

    if args.suite if args.in_process else args.command is not None or args.fork:
        parser.error("--command and --fork go with --in-process, which needs --command or --workload")
    bench = json.loads(Path("BENCHMARK.json").read_text())
    if args.in_process:
        metrics = {m: IN_PROCESS_METRICS[m] for m in (("wall_s", "peak_rss_mb") if args.fork else ("wall_s",))}
    else:
        metrics = SUITE_METRICS if args.suite else {m["name"]: m for m in bench["end_to_end"]}
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
    key = "runs"
    if args.in_process:
        if args.workload is None:
            argv, named = shlex.split(args.command), {}
        else:
            try:
                argv = workload_argv(copies["change"], args.workload, args.seed)
            except ValueError as err:
                parser.error(str(err))
            named = {"workload": args.workload, "seed": args.seed}
        command = args.command or shlex.join(argv)
        runs = run_in_process(copies, argv, args.pairs, args.fork, workdir)
        result = summarize_in_process(runs, metrics, args.claim)
        print_in_process_summary(command, result)
        host = host_of(copies["change"])
        key, entry = "in_process", {"command": command, **named, "fork": args.fork, "pairs": args.pairs,
                                    "started_utc": started, **result}
    elif args.suite:
        runs = measure(copies, args.pairs, run_suite_once,
                       lambda r: f"{r['wall_s']:.1f} s, {r['passed']} passed, {r['failed']} failed")
        result = summarize_suite(runs, args.claim)
        print_suite_summary(result)
        host = host_of(copies["change"])
        entry = {"workload": "tier-1", "seed": None, "pairs": args.pairs, "started_utc": started,
                 "command": "PYTHONPATH=src python3 " + " ".join(SUITE_COMMAND), **result}
    else:
        runs = measure(copies, args.pairs, lambda copy: run_once(copy, args.workload, args.seed, seconds),
                       lambda r: f"goodput {r['metrics']['goodput']['value']:.6g}")
        result = summarize(runs, metrics, args.claim)
        print_summary(args.workload, args.seed, result)
        host = {k: v for k, v in runs[0]["change"]["provenance"].items() if k not in ("git_commit", "seed")}
        entry = {
            "workload": args.workload, "seed": args.seed, "run_seconds": seconds, "pairs": args.pairs,
            "started_utc": started, "command": f"perfbench/run.py --workload {args.workload} "
                                               f"--seed {args.seed} --seconds {seconds:g}",
            **result,
        }
    if out is not None:
        write_out(out, {"tool": "tools/paired_bench.py", "revisions": revisions, "host": host}, entry, key)
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
