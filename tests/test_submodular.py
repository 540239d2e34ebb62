import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from onlineusm import submodular
from onlineusm.adversaries import CycleFunctionAdversary, RandomObliviousAdversary
from onlineusm.balance import Balancer
from onlineusm.errors import (
    ConfigError,
    InvalidInstanceError,
    InvalidSubsetError,
    SizeError,
)
from onlineusm.framework import run_round
from onlineusm.submodular import (
    ENUMERATION_LIMIT,
    DirectedGraph,
    SubmodularOracle,
    directed_cut_value,
    elements_of,
    full_mask,
    normalize,
    random_digraph,
    read_digraph,
    tabulate,
    value_table,
    verify_submodularity,
    write_digraph,
    _ROW_BITS,
    _cut_table,
)

from conftest import grow_only_oracle, naive_first_violation
from references import mask_of, oracle_from_table, reference_random_digraph, same_bits


def test_mask_helpers():
    assert full_mask(3) == 0b111
    assert mask_of([1, 3], 3) == 0b101
    assert elements_of(0b101) == [1, 3]
    assert elements_of(0) == []
    with pytest.raises(InvalidSubsetError):
        mask_of([4], 3)
    with pytest.raises(InvalidSubsetError):
        mask_of([0], 3)
    # -1 >> 1 == -1: without the check the walk never ends
    for negative in (-1, np.int64(-1)):
        with pytest.raises(InvalidSubsetError):
            elements_of(negative)


def test_ground_set_and_graph_validation():
    with pytest.raises(InvalidInstanceError, match="ground set size must be >= 1, got 0"):
        SubmodularOracle(0, lambda m: 0.0)
    with pytest.raises(InvalidInstanceError):
        DirectedGraph(2, ((1, 3, 1.0),))
    with pytest.raises(InvalidInstanceError):
        DirectedGraph(2, ((1, 1, 1.0),))
    with pytest.raises(InvalidInstanceError):
        DirectedGraph(2, ((1, 2, -0.5),))


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_graph_rejects_a_non_finite_weight(w):
    with pytest.raises(InvalidInstanceError, match="non-finite"):
        DirectedGraph(2, ((1, 2, w),))
    with pytest.raises(InvalidInstanceError, match="non-finite"):
        DirectedGraph(3, ((1, 2, 0.5), (2, 3, w)))


def test_directed_cut_single_edge():
    g = DirectedGraph(2, ((1, 2, 1.0),))
    assert directed_cut_value(g, mask_of([1])) == 1.0
    assert directed_cut_value(g, 0) == 0.0
    assert directed_cut_value(g, full_mask(2)) == 0.0


def test_directed_cut_empty_and_full_always_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_digraph(6, 0.6, (0.0, 2.0), rng)
        assert directed_cut_value(g, 0) == 0.0
        assert directed_cut_value(g, full_mask(6)) == 0.0


def test_directed_cut_rejects_out_of_range_subset():
    g = DirectedGraph(2, ((1, 2, 1.0),))
    with pytest.raises(InvalidInstanceError):
        directed_cut_value(g, 0b100)


def test_normalize_single_edge_weight_two():
    oracle = normalize(DirectedGraph(2, ((1, 2, 2.0),)))
    assert oracle.evaluate(mask_of([1])) == 1.0


def test_normalize_edgeless_graph_is_zero():
    oracle = normalize(DirectedGraph(3, ()))
    assert all(oracle.evaluate(m) == 0.0 for m in range(8))


def test_normalize_two_disjoint_edges():
    # edges 1->2 and 3->4, weight 1 each; {1} cuts exactly one of them
    oracle = normalize(DirectedGraph(4, ((1, 2, 1.0), (3, 4, 1.0))))
    assert oracle.evaluate(mask_of([1])) == 0.5
    assert oracle.evaluate(mask_of([1, 3])) == 1.0


def test_normalized_range(cut_corpus):
    for n, oracle in cut_corpus(count=10, seed=77):
        table = value_table(oracle)
        assert table.min() >= 0.0
        assert table.max() <= 1.0 + 1e-12


def test_evaluate_counter_and_determinism(single_edge_oracle):
    f = single_edge_oracle
    assert f.queries == 0
    v1 = f.evaluate(0b01)
    v2 = f.evaluate(0b01)
    assert v1 == v2 == 1.0
    assert f.queries == 2
    for k in range(10):
        f.evaluate(0b10)
    assert f.queries == 12
    with pytest.raises(InvalidSubsetError):
        f.evaluate(0b100)


def test_peek_does_not_count(single_edge_oracle):
    f = single_edge_oracle
    assert f.peek(0b01) == 1.0
    assert f.queries == 0


def test_counter_thread_safe(single_edge_oracle):
    f = single_edge_oracle
    batch = np.array([0b01, 0b10, 0b11], dtype=np.int64)

    def hammer():
        for _ in range(500):
            f.evaluate(0b01)

    def hammer_many():
        for _ in range(500):
            f.evaluate_many(batch)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    threads += [threading.Thread(target=hammer_many) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert f.queries == 4000 + 4 * 500 * batch.size


def test_counter_exact_with_concurrent_readers(single_edge_oracle):
    """Scalar reads, batch reads (one bulk charge each) and whole rounds
    (2n = 4 queries each, 2 of them one bulk charge) share one oracle while
    readers poll its count: every reader sees it rise, and the total is exact."""
    f = single_edge_oracle
    batch = np.array([0b01, 0b10, 0b11], dtype=np.int64)
    scalar_threads, batch_threads, round_threads, calls = 4, 5, 2, 1000
    seen = []
    done = threading.Event()

    def hammer():
        for _ in range(calls):
            f.evaluate(0b10)

    def hammer_many():
        for _ in range(calls):
            f.evaluate_many(batch)

    def play_rounds():
        subroutines = [Balancer(calls), Balancer(calls)]
        for _ in range(calls):
            run_round(subroutines, f, [0.3, 0.7])

    def read():
        values = []
        while not done.is_set():
            values.append(f.queries)
        values.append(f.queries)
        seen.append(values)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read) for _ in range(3)]
        writers = [threading.Thread(target=hammer) for _ in range(scalar_threads)]
        writers += [threading.Thread(target=hammer_many) for _ in range(batch_threads)]
        writers += [threading.Thread(target=play_rounds) for _ in range(round_threads)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + writers)
    total = (scalar_threads + batch_threads * batch.size + round_threads * 4) * calls
    assert len(seen) == 3
    for values in seen:
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == total
    assert f.queries == total


def test_a_bulk_charge_waits_for_the_oracle_lock(single_edge_oracle):
    """Every change to the count holds the oracle's lock: under the GIL an
    unlocked ``+=`` is seldom torn, so that is pinned directly: a charge
    made while the lock is held lands after it."""
    f = single_edge_oracle
    with f._lock:
        charger = threading.Thread(target=f._charge, args=(5,))
        charger.start()
        charger.join(timeout=0.2)
        assert charger.is_alive()
        assert f._queries == 0
    charger.join(timeout=60)
    assert not charger.is_alive()
    assert f.queries == 5


def _backed_oracles(n, seed):
    """The same cut function behind tables (clipped, normalize's own, from a list, strided) and a plain callable."""
    g = random_digraph(n, 0.5, (0.0, 1.0), np.random.default_rng(seed))
    cut = normalize(g)
    table = value_table(cut)
    strided = np.repeat(table, 2)[::2]
    assert not strided.flags.c_contiguous
    return {
        "table": tabulate(cut),
        "cut": cut,
        "function": SubmodularOracle(n, cut.peek),
        "list-table": oracle_from_table(table.tolist()),
        "strided-table": oracle_from_table(strided),
    }


BACKINGS = ["table", "cut", "function", "list-table", "strided-table"]


@pytest.mark.parametrize("backing", BACKINGS)
def test_evaluate_many_returns_the_floats_of_evaluate(backing):
    n = 6
    f = _backed_oracles(n, 17)[backing]
    masks = np.random.default_rng(3).integers(0, 1 << n, size=40)
    got = f.evaluate_many(masks)
    assert got.dtype == np.float64 and got.shape == (40,)
    want = [f.evaluate(m) for m in masks.tolist()]
    assert all(type(v) is float for v in want)
    assert got.tolist() == want
    assert f.queries == 80


def test_evaluate_many_counts_every_entry(single_edge_oracle):
    f = single_edge_oracle
    f.evaluate_many(np.array([0b01, 0b01, 0b01, 0b00], dtype=np.int64))
    assert f.queries == 4
    empty = f.evaluate_many(np.array([], dtype=np.int64))
    assert empty.shape == (0,)
    assert f.queries == 4


@pytest.mark.parametrize("bad", [-1, 0b100])
def test_evaluate_many_rejects_out_of_range_before_counting(single_edge_oracle, bad):
    f = single_edge_oracle
    f.evaluate(0b01)
    with pytest.raises(InvalidSubsetError):
        f.evaluate_many(np.array([0b00, 0b11, bad], dtype=np.int64))
    assert f.queries == 1


@pytest.mark.parametrize("backing", BACKINGS)
def test_evaluate_many_returns_a_fresh_array(backing):
    f = _backed_oracles(5, 4)[backing]
    masks = np.arange(1 << 5, dtype=np.int64)
    want = f.evaluate_many(masks).tolist()
    got = f.evaluate_many(masks)
    got[:] = 7.0
    assert f.evaluate_many(masks).tolist() == want
    assert [f.evaluate(m) for m in range(1 << 5)] == want
    assert [f.peek(m) for m in range(1 << 5)] == want


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("dtype", [np.int32, np.uint64])
def test_evaluate_many_takes_any_integer_dtype(backing, dtype):
    f = _backed_oracles(6, 9)[backing]
    masks = np.random.default_rng(5).integers(0, 1 << 6, size=30)
    want = f.evaluate_many(masks.astype(np.int64))
    got = f.evaluate_many(masks.astype(dtype))
    assert got.dtype == np.float64
    assert got.tolist() == want.tolist()
    assert f.queries == 60


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
                                   np.int64, np.uint64])
def test_evaluate_many_gathers_the_very_doubles_of_the_table(dtype):
    # -0.0 next to 0.0 and neighbours one ulp apart come back bit for bit,
    # as an index gather from the table returns them
    values = [0.0, -0.0, 0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 1.0,
              np.nextafter(1.0, 0.0), 5e-324]
    f = oracle_from_table(values)
    table = value_table(f)
    masks = np.array([1, 0, 1, 3, 2, 4, 7, 6, 5, 1, 3, 0], dtype=dtype)
    got = f.evaluate_many(masks)
    want = table[masks]
    assert got.dtype == np.float64 and got.shape == want.shape
    assert all(same_bits(g, w) for g, w in zip(got.tolist(), want.tolist()))
    assert [v.hex() for v in got.tolist()] == [float(values[m]).hex() for m in masks.tolist()]
    assert f.queries == masks.size
    # out of range for an unsigned dtype, negative for a signed one
    bad = np.array([0, 8] if np.dtype(dtype).kind == "u" else [0, -1], dtype=dtype)
    with pytest.raises(InvalidSubsetError):
        f.evaluate_many(bad)
    assert f.queries == masks.size


@pytest.mark.parametrize("backing", ["table", "cut"])
@pytest.mark.parametrize(
    "masks", [[1, 2], (1, 2), np.array([[1, 2], [3, 0]]), np.array(1)], ids=["list", "tuple", "2-D", "0-D"]
)
def test_evaluate_many_rejects_anything_but_a_1d_array_before_counting(backing, masks):
    # a list has no dtype, and a 2-D integer array would be gathered and
    # counted entry by entry
    f = _backed_oracles(2, 6)[backing]
    f.evaluate(0b01)
    with pytest.raises(InvalidSubsetError, match="1-D integer ndarray"):
        f.evaluate_many(masks)
    assert f.queries == 1


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize(
    "masks", [np.array([True, False, True]), np.array([0.0, 1.0, 3.0])], ids=["bool", "float"]
)
def test_evaluate_many_rejects_non_integer_masks_before_counting(backing, masks):
    # a gather would read a bool array as a selection, not as the masks 0 and 1
    f = _backed_oracles(2, 6)[backing]
    f.evaluate(0b01)
    with pytest.raises(InvalidSubsetError):
        f.evaluate_many(masks)
    assert f.queries == 1


def test_oracle_from_table_validation():
    with pytest.raises(InvalidInstanceError):
        oracle_from_table([0.0, 0.5, 1.0])  # not a power of two
    with pytest.raises(InvalidInstanceError):
        oracle_from_table([0.0, 1.5])  # out of range


def test_value_table_matches_peek(cut_corpus):
    for n, oracle in cut_corpus(count=5, seed=3):
        table = value_table(oracle)
        assert not table.flags.writeable
        probe = np.array([oracle.peek(m) for m in range(1 << n)])
        assert np.allclose(table, probe, atol=1e-12)


def test_oracle_from_table_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInstanceError):
            oracle_from_table([0.0, bad])
    with pytest.raises(InvalidInstanceError):
        oracle_from_table(np.array([0.0, 0.5, math.nan, 1.0]))


def test_oracle_from_table_copies_its_input():
    t = np.zeros(4)
    o = oracle_from_table(t)
    t[1] = 5.0
    t[2] = math.nan
    assert o.evaluate(1) == 0.0
    assert o.evaluate_many(np.array([1, 2])).tolist() == [0.0, 0.0]
    assert value_table(o).tolist() == [0.0, 0.0, 0.0, 0.0]
    # every reader shares the oracle's one read-only table
    shared = value_table(o)
    assert shared is value_table(o) and not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0] = 1.0


def test_normalize_rejects_a_total_weight_it_cannot_scale():
    with pytest.raises(InvalidInstanceError):
        normalize(DirectedGraph(2, ((1, 2, 5e-324),)))  # 1 / w overflows
    with pytest.raises(InvalidInstanceError):
        normalize(DirectedGraph(3, ((1, 2, 1e308), (2, 3, 1e308))))  # the sum overflows
    with pytest.raises(InvalidInstanceError):
        normalize(DirectedGraph(2, ((1, 2, math.inf),)))
    # a tiny total whose reciprocal is finite still scales
    assert normalize(DirectedGraph(2, ((1, 2, 1e-300),))).peek(0b01) == pytest.approx(1.0)


# above 2^1022 the reciprocal is subnormal: w * (1 / w) is 1 + 4.4e-16 for
# 1.75 * 2^1023, and exactly 1 for 1.5 * 2^1022
@pytest.mark.parametrize("w", [1.75 * 2.0**1023, 1.5 * 2.0**1022], ids=["1.75x2^1023", "1.5x2^1022"])
def test_normalize_caps_a_huge_single_edge_at_one(w):
    assert value_table(normalize(DirectedGraph(2, ((1, 2, w),)))).tolist() == [0.0, 1.0, 0.0, 0.0]
    # the cut-sum path, one vertex past the table limit
    assert normalize(DirectedGraph(ENUMERATION_LIMIT + 1, ((1, 2, w),))).peek(0b01) == 1.0


def reference_cut_table(g, scale):
    """The per-edge integer pass ``_cut_table`` made before the cube view, kept verbatim."""
    masks = np.arange(1 << g.n, dtype=np.int64)
    acc = np.zeros(1 << g.n, dtype=float)
    for u, v, w in g.edges:
        src = (masks >> (u - 1)) & 1
        dst = (masks >> (v - 1)) & 1
        acc += w * (src & (1 - dst))
    return acc * scale


_edge_weights = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 0.5, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e6),
)


@st.composite
def digraphs(draw, max_n=12):
    """Random digraphs with repeated (u, v) pairs, zero and subnormal weights."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = []
    if pairs:
        edges = draw(st.lists(st.tuples(st.sampled_from(pairs), _edge_weights), max_size=3 * n))
        if edges:
            edges += draw(st.lists(st.sampled_from(edges), max_size=n))  # repeats
            edges = draw(st.permutations(edges))
    return DirectedGraph(n, tuple((u, v, w) for (u, v), w in edges))


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_normalize_table_is_its_clipped_copy(g):
    w = g.total_weight
    assume(w == 0 or math.isfinite(1.0 / w))
    oracle = normalize(g)
    assert value_table(oracle).tobytes() == value_table(tabulate(oracle)).tobytes()


# Above _ROW_BITS vertices, _cut_table routes the edges whose lower bit
# is small through a one-row pattern.  These graphs reach every route.
_ROUTED_N = _ROW_BITS + 2

#: every ordered pair, each with its own weight: each (lo, hi) class,
#: routed or not, in both directions
_COMPLETE = DirectedGraph(_ROUTED_N, tuple(
    (u, v, 1.0 / (3 + k)) for k, (u, v) in enumerate(
        (u, v) for u in range(1, _ROUTED_N + 1) for v in range(1, _ROUTED_N + 1) if u != v)))

#: -0.0, subnormal and 1e6 weights on routed edges (full and half rows)
#: and on edges the five-axis view adds
_EXTREME = DirectedGraph(_ROW_BITS + 1, (
    (2, 1, -0.0), (2, 6, 1e6), (1, 3, 5e-324), (14, 3, 1e-310), (5, 14, -0.0), (3, 2, 0.1),
    (1, 2, 1e6), (4, 13, 0.3), (13, 4, 5e-324), (6, 2, -0.0), (9, 14, 1e6), (2, 6, 5e-324),
))


def _shuffled_repeats():
    """Each pair three times with its own weights, in a shuffled order."""
    rng = np.random.default_rng(7)
    pairs = [(2, 5), (5, 2), (1, 3), (15, 2), (4, 14), (3, 1), (1, 2), (10, 12), (1, 5)]
    edges = [(u, v, w) for u, v in pairs for w in rng.random(3).tolist()]
    return DirectedGraph(_ROUTED_N, tuple(edges[i] for i in rng.permutation(len(edges))))


@settings(max_examples=200, deadline=None)
@given(digraphs(max_n=_ROUTED_N), st.sampled_from([None, 1.0, 0.1, 3.0]))
@example(DirectedGraph(1, ()), None)
@example(DirectedGraph(5, ()), None)
@example(DirectedGraph(3, ((1, 2, 0.1), (1, 2, 0.2), (2, 3, 5e-324), (1, 2, 0.0))), None)
@example(DirectedGraph(_ROUTED_N, ()), None)
@example(_COMPLETE, None)
@example(_COMPLETE, 3.0)
@example(_EXTREME, None)
@example(_EXTREME, 1.0)
@example(_shuffled_repeats(), None)
def test_cut_table_is_the_per_edge_pass_bit_for_bit(g, scale):
    if scale is None:  # the scale normalize takes, where it is finite
        w = g.total_weight
        scale = 1.0 / w if w > 0 and math.isfinite(1.0 / w) else 1.0
    got = _cut_table(g, scale)
    want = reference_cut_table(g, scale)
    assert got.dtype == np.float64 and got.shape == (1 << g.n,)
    assert _hex(got) == _hex(want)


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=9))
@example(DirectedGraph(4, ()))
@example(_EXTREME)
def test_value_table_equals_the_peeks_bit_for_bit(g):
    total = g.total_weight
    if total > 0 and not math.isfinite(1.0 / total):
        with pytest.raises(InvalidInstanceError):
            normalize(g)
        return
    scale = 1.0 / total if total > 0 else 1.0
    oracle = normalize(g)
    table = value_table(oracle)
    # the oracle's own read-only table, the same object on every call
    assert value_table(oracle) is table and not table.flags.writeable
    assert _hex(table) == _hex(reference_cut_table(g, scale))
    assert _hex(oracle.peek(m) for m in range(1 << g.n)) == _hex(
        directed_cut_value(g, m) * scale for m in range(1 << g.n))


def test_normalize_holds_a_table_up_to_the_enumeration_limit(monkeypatch):
    rng = np.random.default_rng(20)
    masks = rng.integers(0, 1 << ENUMERATION_LIMIT, size=50).tolist()
    g = random_digraph(ENUMERATION_LIMIT, 0.05, (0.0, 1.0), rng)
    oracle = normalize(g)
    assert value_table(oracle) is value_table(oracle)
    assert _hex(map(oracle.peek, masks)) == _hex(directed_cut_value(g, m) * (1.0 / g.total_weight) for m in masks)
    # one vertex more: every query is a cut sum, and there is no table
    big = random_digraph(ENUMERATION_LIMIT + 1, 0.05, (0.0, 1.0), rng)
    oracle = normalize(big)
    calls = []
    cut_value = submodular.directed_cut_value
    monkeypatch.setattr(submodular, "directed_cut_value", lambda g, s: calls.append(s) or cut_value(g, s))
    assert _hex(map(oracle.evaluate, masks)) == _hex(cut_value(big, m) * (1.0 / big.total_weight) for m in masks)
    assert calls == masks
    with pytest.raises(SizeError):
        value_table(oracle)


def test_value_table_size_error():
    f = SubmodularOracle(21, lambda m: 0.0)
    with pytest.raises(SizeError):
        value_table(f)


def test_tabulate_same_values_fresh_counter(single_edge_oracle):
    single_edge_oracle.evaluate(0)
    t = tabulate(single_edge_oracle)
    assert t.queries == 0
    assert t.evaluate(0b01) == 1.0
    assert t.queries == 1


def test_verify_cut_functions_pass(cut_corpus):
    for n, oracle in cut_corpus(count=8, n_range=(2, 8), seed=9):
        assert verify_submodularity(oracle) is None


def test_verify_constant_passes(constant_oracle):
    assert verify_submodularity(constant_oracle(5, 0.3)) is None


def test_verify_supermodular_finds_valid_first_witness():
    n = 4
    oracle = grow_only_oracle(n)
    witness = verify_submodularity(oracle)
    assert witness is not None
    s, t, i = witness
    table = value_table(oracle)
    bit = 1 << (i - 1)
    assert t & s == t and not s & bit
    assert table[s | bit] - table[s] > table[t | bit] - table[t] + 1e-9
    assert witness == naive_first_violation(table, n)


def _function_oracle(table):
    """Function-backed oracle over any float table, nan included."""
    return SubmodularOracle(table.size.bit_length() - 1, table.tolist().__getitem__)


def test_verify_finds_a_violation_next_to_a_nan_value():
    # f(full) is nan, so every gain into the full set is nan and fails
    # every comparison; the violation at S = {1}, T = {}, i = 2 stays
    table = np.array([(m.bit_count() / 3) ** 2 for m in range(8)])
    table[7] = math.nan
    f = _function_oracle(table)
    assert naive_first_violation(table, 3) == (1, 0, 2)
    assert verify_submodularity(f) == (1, 0, 2)
    assert f.queries == 8


def test_verify_matches_naive_reference_on_random_tables():
    rng = np.random.default_rng(42)
    for n in range(1, 9):
        for _ in range(6):
            # a cut table with one entry raised: by nothing, by less than
            # VALUE_TOL, by more, or by a lot
            raised = value_table(normalize(random_digraph(n, 0.5, (0.0, 1.0), rng))).copy()
            raised[rng.integers(raised.size)] += rng.choice([0.0, 5e-10, 2e-9, 0.05])
            # quarter-grid values: many gains tie exactly
            quarters = np.round(rng.random(1 << n) * 4) / 4
            for table in (rng.random(1 << n), quarters, raised):
                with_nan = table.copy()
                with_nan[rng.integers(table.size)] = math.nan
                for t in (table, with_nan):
                    f = _function_oracle(t)
                    assert verify_submodularity(f) == naive_first_violation(t, n)
                    assert f.queries == t.size
    # the only violation is at the last S the scan reaches: one batch
    # query of all 2^n values still finds it
    n = 12
    table = np.array([m.bit_count() / (n + 1) for m in range(1 << n)])
    table[-1] = 1.0
    f = oracle_from_table(table)
    assert verify_submodularity(f) == (2047, 0, 12)
    assert f.queries == 4096


def test_verify_size_error_names_sampling():
    f = SubmodularOracle(17, lambda m: 0.0)
    with pytest.raises(SizeError, match="samples"):
        verify_submodularity(f)


def test_verify_sampled_mode():
    n = 18
    passing = SubmodularOracle(n, lambda m, _n=n: m.bit_count() / _n * 0.5)
    assert verify_submodularity(passing, samples=300, seed=1) is None
    failing = SubmodularOracle(n, lambda m, _n=n: (m.bit_count() / _n) ** 2)
    witness = verify_submodularity(failing, samples=300, seed=1)
    assert witness is not None
    s, t, i = witness
    bit = 1 << (i - 1)
    assert failing.peek(s | bit) - failing.peek(s) > failing.peek(t | bit) - failing.peek(t) + 1e-9


def test_pairwise_marginal_sum_nonnegative_exhaustive():
    # For every i and every X = P, Y = P + {i..n} with P below i, the
    # add-to-X and drop-from-Y marginals of i must not sum below zero.
    n = 12
    oracle = normalize(random_digraph(n, 0.5, (0.0, 1.0), np.random.default_rng(8)))
    table = value_table(oracle)
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        suffix_from_i = full_mask(n) & ~(bit - 1)
        for prefix in range(1 << (i - 1)):
            x = prefix
            y = prefix | suffix_from_i
            alpha = table[x | bit] - table[x]
            beta = table[y & ~bit] - table[y]
            assert alpha + beta >= -1e-9


def synth(adversary, count):
    return [adversary.next_oracle(None) for _ in range(count)]


def test_synth_cycle_family():
    g1 = DirectedGraph(2, ((1, 2, 1.0),))
    g2 = DirectedGraph(2, ((2, 1, 3.0),))
    oracles = synth(CycleFunctionAdversary([normalize(g1), normalize(g2)]), 4)
    assert len(oracles) == 4
    assert oracles[0] is oracles[2]
    assert oracles[1] is oracles[3]
    assert oracles[0].peek(0b01) == 1.0  # g1 cut
    assert oracles[1].peek(0b10) == 1.0  # g2 cut


def test_synth_random_deterministic():
    a = synth(RandomObliviousAdversary(6, 0.5, (0.0, 1.0), seed=11), 5)
    b = synth(RandomObliviousAdversary(6, 0.5, (0.0, 1.0), seed=11), 5)
    for fa, fb in zip(a, b):
        assert np.array_equal(value_table(fa), value_table(fb))
    c = synth(RandomObliviousAdversary(6, 0.5, (0.0, 1.0), seed=12), 5)
    assert any(not np.array_equal(value_table(x), value_table(y)) for x, y in zip(a, c))


def test_synth_random_all_verify():
    for oracle in synth(RandomObliviousAdversary(8, 0.5, (0.0, 1.0), seed=21), 100):
        assert verify_submodularity(oracle) is None


def test_family_validation():
    with pytest.raises(ConfigError):
        random_digraph(4, 1.5, (0.0, 1.0), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        random_digraph(4, 0.5, (0.5, 0.1), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        RandomObliviousAdversary(4, 1.5, (0.0, 1.0), seed=0).next_oracle(None)
    with pytest.raises(ConfigError):
        CycleFunctionAdversary([])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
    st.one_of(
        st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.0, 0.0), (0.5, 0.5), (1e-300, 1e300), (0.0, 1.7e308)]),
        st.floats(0.0, 1e300).map(lambda w: (w, w)),
        st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 1e300)).map(lambda p: (min(p), max(p))),
    ),
    st.integers(0, 2**64 - 1),
)
@example(1, 0.5, (0.0, 1.0), 0)
@example(12, 1.0, (0.0, 1.0), 3)
@example(12, 0.0, (0.0, 1.0), 3)
@example(7, 0.5, (0.25, 0.25), 11)
def test_random_digraph_is_the_per_pair_loop(n, density, weight_range, seed):
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    g = random_digraph(n, density, weight_range, rng)
    want = reference_random_digraph(n, density, weight_range, scalar_rng)
    assert [(u, v) for u, v, _ in g.edges] == [(u, v) for u, v, _ in want.edges]
    assert all(same_bits(w, x) for (_, _, w), (_, _, x) in zip(g.edges, want.edges))
    assert rng.bit_generator.state == scalar_rng.bit_generator.state
    assert same_bits(rng.random(), scalar_rng.random())


def test_graph_file_roundtrip(tmp_path):
    g = random_digraph(5, 0.6, (0.0, 2.0), np.random.default_rng(3))
    path = tmp_path / "instance.dg"
    write_digraph(path, g)
    h = read_digraph(path)
    assert h.n == g.n
    assert h.edges == g.edges


def test_graph_file_comments_and_errors(tmp_path):
    ok = tmp_path / "ok.dg"
    ok.write_text("# a comment\n\ndigraph 3\n1 2 0.5\n# another\n2 3 1\n")
    g = read_digraph(ok)
    assert g.n == 3 and len(g.edges) == 2

    bad_header = tmp_path / "bad1.dg"
    bad_header.write_text("graph 3\n1 2 0.5\n")
    with pytest.raises(InvalidInstanceError):
        read_digraph(bad_header)

    bad_edge = tmp_path / "bad2.dg"
    bad_edge.write_text("digraph 3\n1 2\n")
    with pytest.raises(InvalidInstanceError):
        read_digraph(bad_edge)

    empty = tmp_path / "bad3.dg"
    empty.write_text("# nothing\n")
    with pytest.raises(InvalidInstanceError):
        read_digraph(empty)
