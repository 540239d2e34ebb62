"""Submodular set functions over small ground sets.

Ground sets are ``{1, ..., n}`` and subsets are bitmasks with element
``i`` stored in bit ``i - 1``, so the empty set is ``0`` and the full
set is ``(1 << n) - 1``.  Bitmasks keep 2^n enumeration and all set
algebra O(1) for the desk scales this package targets (n <= 30 for
anything that enumerates, n <= 20 for full value tables).

Oracles map subsets into [0, 1], are deterministic, and count every
``evaluate`` call; the online algorithms are budgeted against that
counter.  Metrics and diagnostics that are not part of an algorithm's
query budget go through :meth:`SubmodularOracle.peek` instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidInstanceError,
    InvalidSubsetError,
    SizeError,
)

Mask = int

#: largest n for which 2^n value tables / enumerations are built
ENUMERATION_LIMIT = 20
#: largest n for which the exhaustive submodularity check runs
EXHAUSTIVE_VERIFY_LIMIT = 16
#: float drift allowed when function values are compared: the [0, 1]
#: range of a table, diminishing returns, the replay relations
VALUE_TOL = 1e-9


def full_mask(n: int) -> Mask:
    return (1 << n) - 1


def mask_of(elements: Iterable[int], n: int | None = None) -> Mask:
    """Build a bitmask from 1-based element ids, validating the range."""
    mask = 0
    for e in elements:
        if e < 1 or (n is not None and e > n):
            raise InvalidSubsetError(f"element {e} outside ground set 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: Mask) -> list[int]:
    """1-based element ids present in a bitmask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass(frozen=True)
class GroundSet:
    """Universe {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInstanceError(f"ground set size must be >= 1, got {self.n}")

    @property
    def full(self) -> Mask:
        return (1 << self.n) - 1


@dataclass(frozen=True)
class DirectedGraph:
    """Weighted digraph on vertices 1..n; the test-instance family."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInstanceError(f"vertex count must be >= 1, got {self.n}")
        object.__setattr__(self, "edges", tuple((int(u), int(v), float(w)) for u, v, w in self.edges))
        for u, v, w in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidInstanceError(f"edge ({u}, {v}) outside vertex range 1..{self.n}")
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            if w < 0:
                raise InvalidInstanceError(f"negative weight {w} on edge ({u}, {v})")

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def directed_cut_value(g: DirectedGraph, s: Mask) -> float:
    """Total weight of edges leaving ``s``: u in s, v not in s."""
    if s < 0 or s > full_mask(g.n):
        raise InvalidInstanceError(f"subset {s:#x} outside ground set of size {g.n}")
    total = 0.0
    for u, v, w in g.edges:
        if (s >> (u - 1)) & 1 and not (s >> (v - 1)) & 1:
            total += w
    return total


class SubmodularOracle:
    """Value-oracle access to a set function with query accounting.

    The oracle never caches: every :meth:`evaluate` call increments the
    counter, and callers that want per-round memoization do it on their
    side.  The counter increment is lock-protected so read-only
    evaluations may run concurrently.

    ``table``, when given, returns a fresh array of all 2^n values by
    increasing bitmask; :func:`value_table` uses it in place of 2^n
    peeks.  An oracle made by :func:`oracle_from_table` also keeps that
    array in ``_values``, which :meth:`evaluate_many` gathers from.
    """

    def __init__(
        self,
        ground: GroundSet,
        fn: Callable[[Mask], float],
        *,
        table: Callable[[], np.ndarray] | None = None,
    ):
        self.ground = ground
        self._full = ground.full
        self._fn = fn
        self._all_values = table
        self._values: np.ndarray | None = None
        self._queries = 0
        self._lock = threading.Lock()

    @property
    def queries(self) -> int:
        return self._queries

    def evaluate(self, s: Mask) -> float:
        """Return f(s), counting one query."""
        if s < 0 or s > self._full:
            raise InvalidSubsetError(f"subset {s:#x} outside ground set of size {self.ground.n}")
        with self._lock:
            self._queries += 1
        return self._fn(s)

    def evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        """Return f at each mask of a 1-D integer array, counting one query per entry.

        A mask array that is not of an integer dtype, or that holds a mask
        outside the ground set, raises before anything is counted; a
        repeated mask counts once per entry, as the same ``evaluate``
        calls would.  A table-backed oracle answers with one gather from
        its table, any other with one ``fn`` call per entry; either way
        the result is a fresh float64 array of the floats ``evaluate``
        returns.
        """
        if masks.dtype.kind not in "iu":
            raise InvalidSubsetError(f"subset masks must be integers, got dtype {masks.dtype}")
        if masks.size and (masks.min() < 0 or masks.max() > self._full):
            raise InvalidSubsetError(f"a subset in the batch lies outside ground set of size {self.ground.n}")
        with self._lock:
            self._queries += masks.size
        if self._values is not None:
            return self._values[masks]
        return np.fromiter(map(self._fn, masks.tolist()), float, masks.size)

    def peek(self, s: Mask) -> float:
        """Return f(s) without touching the query counter.

        Metrics, diagnostics, and ground-truth enumeration use this so
        the counter keeps measuring the algorithm under test only.
        """
        if s < 0 or s > self._full:
            raise InvalidSubsetError(f"subset {s:#x} outside ground set of size {self.ground.n}")
        return self._fn(s)


def normalize(g: DirectedGraph) -> SubmodularOracle:
    """Cut-value oracle scaled by total edge weight into [0, 1].

    Dividing by the total weight (1 for the edgeless graph) is cheap,
    keeps the argmax, and preserves submodularity; no cut can exceed the
    total weight, so the range requirement holds.  A total weight whose
    sum or reciprocal is not finite (an overflowing sum, a subnormal
    total) raises :class:`InvalidInstanceError`.
    """
    w = g.total_weight
    scale = 1.0 / w if w > 0 else 1.0
    if not (math.isfinite(w) and math.isfinite(scale)):
        raise InvalidInstanceError(f"total edge weight {w!r} cannot be scaled into [0, 1]")

    def fn(s: Mask, _g: DirectedGraph = g, _scale: float = scale) -> float:
        return directed_cut_value(_g, s) * _scale

    return SubmodularOracle(GroundSet(g.n), fn, table=partial(_cut_table, g, scale))


def _cut_table(g: DirectedGraph, scale: float) -> np.ndarray:
    """All 2^n cut values of ``g`` times ``scale``.

    Each edge adds its weight, in edge order, to the entries whose mask
    has u and lacks v: an in-place add on the view of the table as a
    (2,)*n cube, where axis n - i holds bit i - 1, indexed 1 on u's axis
    and 0 on v's.  Every entry sums the same doubles in the same order as
    :func:`directed_cut_value`, so the table equals its peeks bit for bit.
    """
    n = g.n
    acc = np.zeros(1 << n, dtype=float)
    cube = acc.reshape((2,) * n)
    for u, v, w in g.edges:
        idx = [slice(None)] * n
        idx[n - u] = 1
        idx[n - v] = 0
        cube[tuple(idx)] += w
    return acc * scale


def oracle_from_table(values: Sequence[float] | np.ndarray) -> SubmodularOracle:
    """Oracle backed by an explicit table of 2^n finite values in [0, 1].

    A single lookup goes through a zero-copy ``memoryview`` of the table,
    which returns the same Python float as ``float(table[s])`` without a
    numpy scalar per query and without a list copy of the table.  A batch
    lookup (:meth:`SubmodularOracle.evaluate_many`) is one gather from
    the table, kept in the oracle's private ``_values``.
    """
    table = np.asarray(values, dtype=float)
    if table.ndim != 1 or table.size < 2 or table.size & (table.size - 1):
        raise InvalidInstanceError(f"table length {table.size} is not a power of two >= 2")
    # min/max propagate nan, and every comparison with nan is false
    if not (table.min() >= -VALUE_TOL and table.max() <= 1.0 + VALUE_TOL):
        raise InvalidInstanceError("table values must be finite and lie in [0, 1]")
    n = int(table.size.bit_length() - 1)
    oracle = SubmodularOracle(GroundSet(n), memoryview(table).__getitem__, table=table.copy)
    oracle._values = table
    return oracle


def value_table(oracle: SubmodularOracle) -> np.ndarray:
    """All 2^n values of the oracle, by increasing bitmask, uncounted.

    Uses the oracle's own table when it has one (explicit tables, cut
    functions); anything else falls back to a peek loop.  Requires
    n <= ENUMERATION_LIMIT.
    """
    n = oracle.ground.n
    if n > ENUMERATION_LIMIT:
        raise SizeError(f"full value table needs n <= {ENUMERATION_LIMIT}, got {n}")
    if oracle._all_values is not None:
        return oracle._all_values()
    return np.array([oracle.peek(m) for m in range(1 << n)], dtype=float)


def tabulate(oracle: SubmodularOracle) -> SubmodularOracle:
    """Same function as an explicit-table oracle with a fresh counter.

    O(1) per evaluate afterwards; every evaluate is still counted.
    """
    return oracle_from_table(np.clip(value_table(oracle), 0.0, 1.0))


def _marginal(table: np.ndarray, s: Mask, i_bit: Mask) -> float:
    return float(table[s | i_bit] - table[s])


def _submasks_ascending(s: Mask) -> list[Mask]:
    # (t - 1) & s walks submasks descending; collect and reverse.
    subs = []
    t = s
    while True:
        subs.append(t)
        if t == 0:
            break
        t = (t - 1) & s
    subs.reverse()
    return subs


def _first_violation_scan(table: np.ndarray, n: int) -> tuple[Mask, Mask, int]:
    # Canonical order: S ascending, T (subset of S) ascending, i ascending.
    for s in range(1 << n):
        for t in _submasks_ascending(s):
            for i in range(n):
                bit = 1 << i
                if s & bit:
                    continue
                if _marginal(table, s, bit) > _marginal(table, t, bit) + VALUE_TOL:
                    return (s, t, i + 1)
    raise AssertionError("violation vanished during ordered rescan")


def verify_submodularity(
    oracle: SubmodularOracle,
    *,
    samples: int | None = None,
    seed: int = 0,
) -> tuple[Mask, Mask, int] | None:
    """Check diminishing returns; None on pass, else first witness (S, T, i).

    The exhaustive mode (default, n <= 16) checks f(S+i) - f(S) <=
    f(T+i) - f(T) + VALUE_TOL for every T subset of S with i outside S, and on
    failure reports the first violating triple in (S asc, T asc, i asc)
    order.  ``samples`` switches to randomized triples for larger n.
    """
    n = oracle.ground.n
    if samples is not None:
        return _verify_sampled(oracle, samples=samples, seed=seed)
    if n > EXHAUSTIVE_VERIFY_LIMIT:
        raise SizeError(
            f"exhaustive check needs n <= {EXHAUSTIVE_VERIFY_LIMIT}, got {n}; "
            "pass samples= for the randomized mode"
        )
    size = 1 << n
    table = np.array([oracle.evaluate(m) for m in range(size)], dtype=float)
    masks = np.arange(size, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        gain = np.full(size, -np.inf)
        gain[without] = table[without | bit] - table[without]
        # superset-max over all bits except i; entries with bit i stay -inf
        sup = gain.copy()
        for j in range(n):
            if j == i:
                continue
            bj = 1 << j
            lo = masks[(masks & bj) == 0]
            sup[lo] = np.maximum(sup[lo], sup[lo | bj])
        if np.any(sup[without] > gain[without] + VALUE_TOL):
            return _first_violation_scan(table, n)
    return None


def _verify_sampled(
    oracle: SubmodularOracle, *, samples: int, seed: int
) -> tuple[Mask, Mask, int] | None:
    if samples < 1:
        raise ConfigError(f"sample count must be >= 1, got {samples}")
    n = oracle.ground.n
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    full = full_mask(n)
    for _ in range(samples):
        s = int(rng.integers(0, full + 1))
        outside = [i for i in range(n) if not (s >> i) & 1]
        if not outside:
            continue
        i = int(outside[rng.integers(0, len(outside))])
        t = s & int(rng.integers(0, full + 1))
        bit = 1 << i
        big = oracle.evaluate(s | bit) - oracle.evaluate(s)
        small = oracle.evaluate(t | bit) - oracle.evaluate(t)
        if big > small + VALUE_TOL:
            return (s, t, i + 1)
    return None


def random_digraph(
    n: int,
    density: float,
    weight_range: tuple[float, float] = (0.0, 1.0),
    rng: np.random.Generator | None = None,
) -> DirectedGraph:
    """Each ordered pair becomes an edge with probability ``density``."""
    if not 0.0 <= density <= 1.0:
        raise ConfigError(f"density must be in [0, 1], got {density}")
    lo, hi = weight_range
    if lo < 0 or hi < lo:
        raise ConfigError(f"weight range must satisfy 0 <= lo <= hi, got {weight_range}")
    if rng is None:
        rng = np.random.default_rng()
    edges = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < density:
                edges.append((u, v, float(rng.uniform(lo, hi))))
    return DirectedGraph(n, tuple(edges))


# --- graph file format -------------------------------------------------

def read_digraph(path) -> DirectedGraph:
    """Parse the text format: header ``digraph <n>``, then ``u v w`` lines.

    Lines starting with '#' are comments; blank lines are ignored.
    """
    n = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0] != "digraph":
                    raise InvalidInstanceError(
                        f"{path}:{lineno}: expected header 'digraph <n>', got {line!r}"
                    )
                try:
                    n = int(parts[1])
                except ValueError:
                    raise InvalidInstanceError(f"{path}:{lineno}: bad vertex count {parts[1]!r}")
                continue
            if len(parts) != 3:
                raise InvalidInstanceError(f"{path}:{lineno}: expected 'u v w', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise InvalidInstanceError(f"{path}:{lineno}: malformed edge {line!r}")
    if n is None:
        raise InvalidInstanceError(f"{path}: missing 'digraph <n>' header")
    return DirectedGraph(n, tuple(edges))


def write_digraph(path, g: DirectedGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"digraph {g.n}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")
