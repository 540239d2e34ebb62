"""Counted value queries of the online round, per backing of the oracle.

A round evaluates each distinct mask it needs once: the marginal masks
X_{i-1}, X_{i-1} + i, Y_{i-1} - i, Y_{i-1} of every element i and the
chosen set S, which are 2n masks.  The tests recompute that set from
each kept round and compare it with the counter.
"""

import math

import numpy as np
import pytest

from onlineusm.adversaries import CycleFunctionAdversary
from onlineusm.balance import Balancer, TwoExperts
from onlineusm.errors import InvalidSubsetError
from onlineusm.framework import run_usm_game
from onlineusm.submodular import (
    SubmodularOracle,
    normalize,
    random_digraph,
    tabulate,
)

from references import kept_rounds, oracle_from_table, x_sets, y_sets

N = 6


def graph_oracle(seed):
    return normalize(random_digraph(N, 0.5, (0.0, 1.0), np.random.default_rng(seed)))


def function_oracle(seed):
    # concave of a weighted cardinality: submodular, values in [0, 1]
    w = np.random.default_rng(seed).uniform(0.0, 1.0, N).tolist()
    total = sum(w)
    return SubmodularOracle(
        N, lambda s: math.sqrt(sum(wi for i, wi in enumerate(w) if s >> i & 1) / total)
    )


BACKINGS = {
    "table": lambda seed: tabulate(graph_oracle(seed)),
    "graph": graph_oracle,
    "function": function_oracle,
}


def distinct_masks(tr) -> int:
    masks = {tr.chosen}
    for i in range(1, N + 1):
        bit = 1 << (i - 1)
        x, y = x_sets(tr)[i - 1], y_sets(tr)[i - 1]
        masks.update((x, x | bit, y & ~bit, y))
    return len(masks)


@pytest.mark.parametrize("backing", sorted(BACKINGS))
@pytest.mark.parametrize("make", [Balancer, TwoExperts])
def test_round_queries_are_the_distinct_masks(backing, make):
    rounds = 40
    f = BACKINGS[backing](3)
    streams = [np.random.default_rng((2, i)) for i in range(N)]
    res = run_usm_game([make(rounds) for _ in range(N)], CycleFunctionAdversary([f]), rounds,
                       streams, keep_transcripts=True)
    assert res.round_queries.tolist() == [distinct_masks(tr) for tr in kept_rounds(res)]
    assert f.queries == res.round_queries.sum()
    assert res.max_round_queries == 2 * N


@pytest.mark.parametrize("backing", sorted(BACKINGS))
def test_counters_sum_to_the_game_total_across_a_cycle(backing):
    rounds = 25
    oracles = [BACKINGS[backing](seed) for seed in (4, 5, 6)]
    streams = [np.random.default_rng((7, i)) for i in range(N)]
    res = run_usm_game([Balancer(rounds) for _ in range(N)], CycleFunctionAdversary(oracles),
                       rounds, streams)
    assert sum(f.queries for f in oracles) == res.round_queries.sum()


def test_table_lookup_returns_python_floats_for_numpy_masks():
    table = np.linspace(0.0, 1.0, 8)
    f = oracle_from_table(table)
    for mask in (np.int64(5), np.uint8(5), np.intp(5), 5):
        assert type(f.evaluate(mask)) is float
        assert type(f.peek(mask)) is float
        assert f.evaluate(mask) == f.peek(mask) == float(table[5])
    assert f.queries == 8


@pytest.mark.parametrize("mask", [-1, 8, np.int64(-1), np.int64(8), 1 << 70])
def test_table_lookup_rejects_out_of_range_masks(mask):
    f = oracle_from_table(np.linspace(0.0, 1.0, 8))
    with pytest.raises(InvalidSubsetError):
        f.evaluate(mask)
    with pytest.raises(InvalidSubsetError):
        f.peek(mask)
    assert f.queries == 0
