"""Fresh-process side of the benchmark; ``run.py`` starts it.

    worker.py setup WORKLOAD SEED
        time ``import onlineusm`` plus one construction of the instance
    worker.py measure WORKLOAD SEED SECONDS TRACE OUTDIR
        run the workload's CLI command repeatedly for SECONDS, timing a
        fixed reference loop before and after each command; with TRACE=1
        alternate untraced and traced commands

Both print one JSON object on stdout.  The package is imported from the
checkout's ``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: fewest commands of each kind (untraced, traced) a measurement makes
MIN_REPEATS = 3


def import_package():
    """Import ``onlineusm`` from the checkout's ``src``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import onlineusm

    if Path(onlineusm.__file__).resolve().parent != SRC / "onlineusm":
        raise ImportError(f"onlineusm imported from {onlineusm.__file__}, not from {SRC}")
    return onlineusm


def setup(name: str, seed: int) -> dict:
    from workloads import build_instance

    ref_before = reference_loop()
    start = time.perf_counter()
    import_package()
    build_instance(WORKLOADS[name], seed)
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "reference_s": (ref_before + reference_loop()) / 2}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_bytes() -> int:
    """High-water resident memory of this process image.

    ``getrusage`` would also count the parent's memory, which Linux carries
    over through fork and exec; ``VmHWM`` covers only this image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(100_000):
        slots[i & 255] = acc
        acc = acc * 0.5 + (i & 7)
    return time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    import_package()
    from onlineusm import cli

    workload = WORKLOADS[name]
    ext = "csv" if workload.fmt == "csv" else "json"
    # every command writes the same path, since the JSON output records it
    out = outdir / f"{name}-seed{seed}.{ext}"
    first = outdir / f"{name}-seed{seed}.checked.{ext}"
    runs = {False: [], True: []}  # traced? -> walls
    refs = []  # reference-loop seconds around each untraced command
    codes, digests, errors, layer_samples = [], [], [], []
    first_stdout = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        stdout = io.StringIO()
        gc.collect()
        ref_before = reference_loop()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(workload.argv(seed, str(out)))
        except Exception:  # a crash of the command fails its units; the measurement goes on
            code = -1
            errors.append(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        runs[traced].append(wall)
        if not traced:
            refs.append((ref_before + reference_loop()) / 2)
        codes.append(code)
        text = stdout.getvalue()
        written = out.stat().st_size if out.exists() else 0
        digests.append([_sha256(out) if written else None,
                        hashlib.sha256(text.encode()).hexdigest()])
        if i == 0:
            first_stdout = text
            if written:
                os.replace(out, first)
        if tracer is not None:
            stats = tracer.layer_stats()
            if "harness.write_results" in stats:
                stats["harness.write_results"]["bytes"] = written
            if not layer_samples:
                tracer.write_spans(outdir / f"spans-{name}-seed{seed}.jsonl", f"{name}-seed{seed}")
            layer_samples.append(stats)
        i += 1
        done = time.perf_counter() - start >= seconds
        if done and all(len(runs[k]) >= MIN_REPEATS for k in ((False, True) if trace else (False,))):
            break
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    layers = {}
    for sample in layer_samples:
        for layer, stats in sample.items():
            for stat, value in stats.items():
                layers.setdefault(f"{layer}.{stat}", []).append(value)
    return {
        "walls_s": runs[False],
        "traced_walls_s": runs[True],
        "reference_s": refs,
        "exit_codes": codes,
        "errors": errors[:3],
        "digests": digests,
        "output": str(first),
        "stdout": first_stdout,
        "peak_rss_bytes": peak_rss_bytes(),
        "layers": {k: statistics.median_low(v + [0] * (len(layer_samples) - len(v)))
                   for k, v in layers.items()},
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(name, seed)
    else:
        result = measure(name, seed, float(argv[3]), argv[4] == "1", Path(argv[5]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
