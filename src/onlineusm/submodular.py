"""Submodular set functions over small ground sets.

Ground sets are ``{1, ..., n}`` and subsets are bitmasks with element
``i`` stored in bit ``i - 1``, so the empty set is ``0`` and the full
set is ``(1 << n) - 1``.  Bitmasks keep 2^n enumeration and all set
algebra O(1) for the desk scales this package targets (n <= 30 for
anything that enumerates, n <= 20 for full value tables).

Oracles map subsets into [0, 1], are deterministic, and count every
value an algorithm reads; the online algorithms are budgeted against
that counter.  Metrics and diagnostics that are not part of an
algorithm's query budget go through :meth:`SubmodularOracle.peek`
instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

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


def elements_of(mask: Mask) -> list[int]:
    """1-based element ids present in a bitmask, ascending.

    A negative mask raises :class:`InvalidSubsetError`: it has infinitely
    many set bits, so the walk below would never end.
    """
    if mask < 0:
        raise InvalidSubsetError(f"subset mask must be >= 0, got {mask}")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass(frozen=True)
class DirectedGraph:
    """Weighted digraph on vertices 1..n; the test-instance family.

    Every weight must be finite and nonnegative; anything else raises
    :class:`InvalidInstanceError`.
    """

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
            if not math.isfinite(w):
                raise InvalidInstanceError(f"non-finite weight {w} on edge ({u}, {v})")
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
    """Value-oracle access to a set function on {1, ..., n} with query accounting.

    The oracle never caches: every value it answers through
    :meth:`evaluate` or :meth:`evaluate_many` counts one query, and callers
    that want per-round memoization do it on their side.  The count is
    one int, and every change to it is made under the oracle's lock, so
    it stays exact when threads share an oracle: :meth:`evaluate` adds
    1, and ``_charge`` adds a bulk count.  :meth:`evaluate_many` checks
    its masks, then charges their number and reads them; the package's
    own walks read ``fn`` and charge the round's reads at once
    (:func:`~onlineusm.framework.run_round`), or read :func:`value_table`
    and charge each block of sweeps, or each batch of trials, at once
    (the offline sweep, batched online trials).

    ``values``, when given, is the oracle's read-only float64 table of
    all 2^n values by increasing bitmask, the one ``fn`` reads; it is
    set at construction only (:func:`normalize` for n <= ENUMERATION_LIMIT,
    :func:`tabulate`).  :func:`value_table` returns it, and
    :meth:`evaluate_many` reads it with one ``take``: the same doubles as
    indexing the table with the masks, at less cost (6144 masks into a
    2^16 table: 11.8 -> 8.3 us on a 2-core Xeon with numpy 2.4).  An
    ``n`` below 1 raises :class:`InvalidInstanceError`.
    """

    def __init__(
        self,
        n: int,
        fn: Callable[[Mask], float],
        *,
        values: np.ndarray | None = None,
    ):
        if n < 1:
            raise InvalidInstanceError(f"ground set size must be >= 1, got {n}")
        self.n = n
        self._full = full_mask(n)
        self._fn = fn
        self._values = values
        self._queries = 0
        self._lock = threading.Lock()

    @property
    def queries(self) -> int:
        return self._queries

    def evaluate(self, s: Mask) -> float:
        """Return f(s), counting one query."""
        if s < 0 or s > self._full:
            raise InvalidSubsetError(f"subset {s:#x} outside ground set of size {self.n}")
        with self._lock:
            self._queries += 1
        return self._fn(s)

    def evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        """Return f at each mask of a 1-D integer array, counting one query per entry.

        Anything but a 1-D ndarray of an integer dtype (a list, a 2-D
        array, a bool or float array), or an array that holds a mask
        outside the ground set, raises before anything is counted; a
        repeated mask counts once per entry, as the same ``evaluate``
        calls would.  A table-backed oracle answers with one ``take``
        from its table, any other with one ``fn`` call per entry; either way
        the result is a fresh float64 array of the floats ``evaluate``
        returns.
        """
        if not (isinstance(masks, np.ndarray) and masks.ndim == 1):
            raise InvalidSubsetError(f"subset masks must be a 1-D integer ndarray, got {masks!r:.60}")
        if masks.dtype.kind not in "iu":
            raise InvalidSubsetError(f"subset masks must be integers, got dtype {masks.dtype}")
        # exact for any integer dtype: a negative mask makes the or negative
        seen = np.bitwise_or.reduce(masks)
        if seen < 0 or seen > self._full:
            raise InvalidSubsetError(f"a subset in the batch lies outside ground set of size {self.n}")
        self._charge(masks.size)
        if self._values is not None:
            return self._values.take(masks)
        return np.fromiter(map(self._fn, masks.tolist()), float, masks.size)

    def _charge(self, count: int) -> None:
        """Count ``count`` queries at once, under the lock."""
        with self._lock:
            self._queries += count

    def peek(self, s: Mask) -> float:
        """Return f(s) without touching the query counter.

        Metrics, diagnostics, and ground-truth enumeration use this so
        the counter keeps measuring the algorithm under test only.
        """
        if s < 0 or s > self._full:
            raise InvalidSubsetError(f"subset {s:#x} outside ground set of size {self.n}")
        return self._fn(s)


def normalize(g: DirectedGraph) -> SubmodularOracle:
    """Cut-value oracle scaled by total edge weight into [0, 1].

    Dividing by the total weight (1 for the edgeless graph) is cheap,
    keeps the argmax, and preserves submodularity; no cut can exceed the
    total weight, so the range requirement holds.  A total weight whose
    sum or reciprocal is not finite (an overflowing sum, a subnormal
    total) raises :class:`InvalidInstanceError`.

    For n <= ENUMERATION_LIMIT the oracle holds its :func:`_cut_table`
    and answers every query from it, bit for bit the scaled
    :func:`directed_cut_value`; a larger graph is answered by one cut
    sum per query (:func:`_cut_sums`).  Either way a value is capped at
    1.0: a total weight above 2^1022 has a subnormal reciprocal, and its
    full cut can scale to 1 plus a rounding.
    """
    if g.n > ENUMERATION_LIMIT:
        return _cut_sums(g)
    table = _cut_table(g, _cut_scale(g))
    np.minimum(table, 1.0, out=table)
    return _table_oracle(table)


def _cut_scale(g: DirectedGraph) -> float:
    """1 / total weight (1 for the edgeless graph); raises if either is not finite."""
    w = g.total_weight
    scale = 1.0 / w if w > 0 else 1.0
    if not (math.isfinite(w) and math.isfinite(scale)):
        raise InvalidInstanceError(f"total edge weight {w!r} cannot be scaled into [0, 1]")
    return scale


def _cut_sums(g: DirectedGraph) -> SubmodularOracle:
    """:func:`normalize`'s doubles with no table: one scaled, capped cut sum per query."""
    scale = _cut_scale(g)

    def fn(s: Mask, _g: DirectedGraph = g, _scale: float = scale) -> float:
        return min(directed_cut_value(_g, s) * _scale, 1.0)

    return SubmodularOracle(g.n, fn)


def sampling_oracle(g: DirectedGraph, samples: int) -> SubmodularOracle:
    """Oracle for ``samples`` sampled triples, 4 queries each: :func:`normalize` (a table up to
    n = 20) from 2^(n-10) samples on, else cut sums.  Per edge a sum costs ~80 ns, an entry ~0.3 ns."""
    return normalize(g) if samples << 10 >= 1 << g.n else _cut_sums(g)


#: low mask bits per row of a routed cut-table add: 2^13 = 8192 entries,
#: numpy's ufunc buffer size.  A pattern broadcast over shorter rows is
#: copied through the buffer, and the add runs at about half speed.
_ROW_BITS = 13


def _edge_view(a: np.ndarray, bits: int, lo: int, hi: int) -> np.ndarray:
    """``a`` of 2^bits entries as (2^(bits-1-hi), 2, 2^(hi-lo-1), 2, 2^lo),
    whose two length-2 axes are mask bits hi and lo."""
    return a.reshape(1 << (bits - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _cut_table(g: DirectedGraph, scale: float) -> np.ndarray:
    """All 2^n cut values of ``g`` times ``scale``.

    Each edge adds its weight, in edge order, to the entries whose mask
    has u and lacks v.  By default that is an in-place add on the
    five-axis :func:`_edge_view` of the table for the edge's lower and
    higher bit lo < hi, indexed on the two length-2 axes (1 on u's, 0 on
    v's).

    That add walks runs of 2^lo contiguous entries (for lo = 0 and
    hi >= 2, of 2^(hi-1) entries two apart), and numpy pays for each
    run: at n = 16 an edge with lo = 1 costs ~160 us, one with lo >= 7
    ~23 us.  So for n > 13 an edge whose run is at most 16 entries
    (1 <= lo <= 4, or lo = 0 and 2 <= hi <= 5) is routed through rows of
    2^13 entries instead.  A one-row pattern holds w on the low masks
    that meet the edge's conditions on bits below 13, and 0.0 elsewhere.
    It is added to every row when hi < 13, else to the rows whose bit hi
    is 1 if it is u's and 0 if it is v's: ~25 us per edge over all rows
    at n = 16, ~15 us over half of them.  For n <= 13 the table is at
    most one row, and over shorter rows the broadcast add is slower than
    the five-axis one.  Measured on a 2-core Xeon with numpy 2.4, random
    digraphs of density 0.5: n = 16 (120 edges) 4.1 -> 2.7 ms, n = 20
    (190 edges) 100 -> 63 ms; n <= 13 is unchanged.

    Every entry sums the same doubles in the same order as
    :func:`directed_cut_value`, so the table equals its peeks bit for bit.
    A route adds +0.0 to the entries the edge does not cover, and that
    leaves every partial sum unchanged: sums start at +0.0 and only gain
    weights >= +0.0 (an added -0.0 gives +0.0), so none is -0.0.
    """
    n = g.n
    acc = np.zeros(1 << n, dtype=float)
    routed = n > _ROW_BITS
    if routed:
        rows = acc.reshape(-1, 1 << _ROW_BITS)
        pattern = np.empty(1 << _ROW_BITS)
    for u, v, w in g.edges:
        lo, hi = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        u_high = int(u > v)
        if routed and (1 <= lo <= 4 or (lo == 0 and 2 <= hi <= 5)):
            pattern.fill(0.0)
            if hi < _ROW_BITS:
                _edge_view(pattern, _ROW_BITS, lo, hi)[:, u_high, :, 1 - u_high, :] = w
                rows += pattern
            else:
                pattern.reshape(-1, 2, 1 << lo)[:, 1 - u_high] = w
                acc.reshape(1 << (n - 1 - hi), 2, -1, 1 << _ROW_BITS)[:, u_high] += pattern
        else:
            _edge_view(acc, n, lo, hi)[:, u_high, :, 1 - u_high, :] += w
    acc *= scale
    return acc


def _table_oracle(table: np.ndarray) -> SubmodularOracle:
    """Oracle backed by ``table``, a float64 array of 2^n finite values in
    [0, 1] that no one else holds; it is made read-only.

    A single lookup goes through a zero-copy ``memoryview`` of the table,
    which returns the same Python float as ``float(table[s])`` without a
    numpy scalar per query and without a list copy of the table.  A batch
    lookup (:meth:`SubmodularOracle.evaluate_many`) is one gather from
    the table.
    """
    if table.ndim != 1 or table.size < 2 or table.size & (table.size - 1):
        raise InvalidInstanceError(f"table length {table.size} is not a power of two >= 2")
    # min/max propagate nan, and every comparison with nan is false
    if not (table.min() >= -VALUE_TOL and table.max() <= 1.0 + VALUE_TOL):
        raise InvalidInstanceError("table values must be finite and lie in [0, 1]")
    n = int(table.size.bit_length() - 1)
    table.flags.writeable = False
    return SubmodularOracle(n, memoryview(table).__getitem__, values=table)


def value_table(oracle: SubmodularOracle) -> np.ndarray:
    """All 2^n values of the oracle, by increasing bitmask, uncounted, read-only.

    An oracle that holds its table (:func:`normalize`, :func:`tabulate`)
    returns it, uncopied; any other builds a fresh table with 2^n peeks.
    Requires n <= ENUMERATION_LIMIT.
    """
    n = oracle.n
    if n > ENUMERATION_LIMIT:
        raise SizeError(f"full value table needs n <= {ENUMERATION_LIMIT}, got {n}")
    if oracle._values is not None:
        return oracle._values
    table = np.array([oracle.peek(m) for m in range(1 << n)], dtype=float)
    table.flags.writeable = False
    return table


def tabulate(oracle: SubmodularOracle) -> SubmodularOracle:
    """Same function as an explicit-table oracle with a fresh counter.

    O(1) per evaluate afterwards; every evaluate is still counted.  The
    read-only array ``value_table`` returns is clipped into [0, 1] out of
    place, and the clipped copy becomes the new oracle's table.
    """
    return _table_oracle(np.clip(value_table(oracle), 0.0, 1.0))


def check_exhaustive_size(n: int) -> None:
    """Raise SizeError when the exhaustive check cannot take n elements."""
    if n > EXHAUSTIVE_VERIFY_LIMIT:
        raise SizeError(
            f"exhaustive check needs n <= {EXHAUSTIVE_VERIFY_LIMIT}, got {n}; "
            "pass samples= for the randomized mode"
        )


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
    order.  All 2^n values are read with one counted batch query.  For
    each i, a copy of the gains of the sets that lack i is reduced to
    their minimum over subsets (``np.fmin``, exact, one pass per other
    element).  S violates for i exactly when its gain exceeds that
    minimum plus VALUE_TOL, as rounding x + VALUE_TOL keeps the order of
    x.  A nan gain fails every comparison and ``fmin`` skips it, as in
    the pairwise test.  The smallest violating S over all i is the
    witness's; one comparison of its gains with those of its subsets
    gives T, then i.
    ``samples`` switches to randomized triples for larger n.
    """
    n = oracle.n
    if samples is not None:
        return _verify_sampled(oracle, samples=samples, seed=seed)
    check_exhaustive_size(n)
    masks = np.arange(1 << n)
    table = oracle.evaluate_many(masks)
    first = masks.size
    for i in range(n):
        # entry c of ``gain`` is the set whose bits below i are c's and
        # whose bits above i are c's bits from i up, shifted one place
        pairs = table.reshape(-1, 2, 1 << i)
        gain = (pairs[:, 1] - pairs[:, 0]).ravel()
        least = gain.copy()
        for j in range(n - 1):
            halves = least.reshape(-1, 2, 1 << j)
            np.fmin(halves[:, 1], halves[:, 0], out=halves[:, 1])
        hits = np.flatnonzero(gain > least + VALUE_TOL)
        if hits.size:
            c = int(hits[0])
            first = min(first, (c & ((1 << i) - 1)) | (c >> i << (i + 1)))
    if first == masks.size:
        return None
    subsets = masks[(masks & first) == masks][:, None]
    bits = np.array([1 << i for i in range(n) if not first >> i & 1])
    hit = table[first | bits] - table[first] > table[subsets | bits] - table[subsets] + VALUE_TOL
    row, col = divmod(int(np.argmax(hit)), bits.size)
    return (first, int(subsets[row, 0]), int(bits[col]).bit_length())


def _verify_sampled(
    oracle: SubmodularOracle, *, samples: int, seed: int
) -> tuple[Mask, Mask, int] | None:
    if samples < 1:
        raise ConfigError(f"sample count must be >= 1, got {samples}")
    n = oracle.n
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
    weight_range: tuple[float, float],
    rng: np.random.Generator,
) -> DirectedGraph:
    """Each ordered pair becomes an edge with probability ``density``.

    The pairs go in order (u ascending, then v); each draws a coin
    ``random()`` and, if it falls below ``density``, a weight
    ``lo + (hi - lo) * random()``, which is how ``Generator.uniform``
    makes one.  The doubles come in blocks, each as long as the draws
    still certain to be made: one coin per undecided pair, plus the
    weight of a pair whose coin ended the last block.  No draw is left
    over, so the edges, their weights and the state of ``rng`` afterwards
    are those of one scalar draw per coin and weight.  At density 0.5 on
    a 2-core Xeon: n = 16 665 -> 173 us, n = 8 229 -> 77 us.
    """
    if not 0.0 <= density <= 1.0:
        raise ConfigError(f"density must be in [0, 1], got {density}")
    lo, hi = weight_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi < lo:
        raise ConfigError(f"weight range must satisfy 0 <= lo <= hi, both finite, got {weight_range}")
    lo, span = float(lo), float(hi) - float(lo)
    undecided = n * (n - 1)
    draws: list[float] = []
    pos = 0
    edges = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v:
                continue
            if pos == len(draws):
                draws, pos = rng.random(undecided).tolist(), 0
            coin = draws[pos]
            pos += 1
            undecided -= 1
            if coin < density:
                if pos == len(draws):
                    draws, pos = rng.random(undecided + 1).tolist(), 0
                edges.append((u, v, lo + span * draws[pos]))
                pos += 1
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
