"""Outside-in layer tracing of the ``onlineusm`` package.

:class:`Tracer` wraps the public functions of the package's modules, and
the public methods of the classes they define, with timing wrappers that
live in the benchmark rather than in the program.  A call to a wrapped
function records a span: name (``<module>.<function>``), parent span,
start and end.  The hot leaf methods (``evaluate``, ``peek``, ``decide``,
``update``) would cost more as spans than the work they do, so their
calls and time are summed under the enclosing span instead; calls made
from inside a leaf are not traced at all.  Spans stay in memory until
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

#: the package modules whose public functions are traced
MODULES = ("cli", "harness", "framework", "balance", "adversaries", "submodular", "offline")
#: methods aggregated under their parent span instead of getting spans
LEAF_METHODS = frozenset({"evaluate", "peek", "decide", "update"})

# span record fields
_NAME, _PARENT, _START, _END, _COVERED, _LEAVES = range(6)


class Tracer:
    """Install with :meth:`install`, run the code, then :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec[_END] = end
                stack.pop()
                if stack:
                    spans[stack[-1]][_COVERED] += end - rec[_START]

        return traced

    def _leaf_wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if self._in_leaf or not stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                rec = spans[stack[-1]]
                rec[_COVERED] += elapsed
                leaves = rec[_LEAVES]
                if leaves is None:
                    leaves = rec[_LEAVES] = {}
                agg = leaves.get(name)
                if agg is None:
                    leaves[name] = [1, elapsed]
                else:
                    agg[0] += 1
                    agg[1] += elapsed

        return traced

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method; rebind every module-level alias."""
        package = importlib.import_module("onlineusm")
        modules = {short: importlib.import_module(f"onlineusm.{short}") for short in MODULES}
        namespaces = [package, *(m for name, m in sys.modules.items() if name.startswith("onlineusm."))]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._span_wrapper(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, alias, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        make = self._leaf_wrapper if meth in LEAF_METHODS else self._span_wrapper
                        self._patch(obj, meth, make(f"{short}.{meth}", fn))

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer name: ``calls``, inclusive ``busy_s`` and ``self_s``.

        A span's self time is its duration minus the time covered by
        traced children (spans and leaf aggregates); a leaf's self time is
        its busy time, since nothing inside a leaf is traced.
        """
        stats: dict[str, dict[str, float]] = {}

        def add(name, calls, busy, own):
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += calls
            s["busy_s"] += busy
            s["self_s"] += own

        for rec in self.spans:
            duration = rec[_END] - rec[_START]
            add(rec[_NAME], 1, duration, duration - rec[_COVERED])
            for leaf, (calls, busy) in (rec[_LEAVES] or {}).items():
                add(leaf, calls, busy, busy)
        return stats

    def write_spans(self, path, run_id: str) -> None:
        """One JSON object per span; times in seconds from the first span's start."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": run_id, "id": i, "name": rec[_NAME], "parent": rec[_PARENT],
                    "start": rec[_START] - origin, "end": rec[_END] - origin,
                    "leaves": rec[_LEAVES] or {},
                }) + "\n")
