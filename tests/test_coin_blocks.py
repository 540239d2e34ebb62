"""Coins drawn as blocks are the coins drawn one at a time.

A game draws each stream's coins for all its rounds as one
``random(T)`` block, and the offline ladder draws each sweep's coins as
one ``random(n)`` block.  These tests pin that the blocks change no
coin: the results, and the streams' states afterwards, are those of
sequential ``random()`` calls.
"""

import numpy as np
import pytest

from onlineusm.adversaries import CycleFunctionAdversary
from onlineusm.balance import Balancer, TwoExperts
from onlineusm.framework import run_round, run_usm_game
from onlineusm.offline import rand_double_greedy, rand_double_greedy_stats
from onlineusm.submodular import normalize, random_digraph, tabulate


def cut_oracles(n, seeds):
    return [tabulate(normalize(random_digraph(n, 0.5, (0.0, 1.0), np.random.default_rng(s))))
            for s in seeds]


def streams_for(n, seed):
    return [np.random.default_rng((seed, i)) for i in range(n)]


@pytest.mark.parametrize("rounds", [1, 7, 120])
def test_game_leaves_each_stream_after_rounds_draws(rounds):
    n = 5
    streams = streams_for(n, seed=3)
    subs = [Balancer(rounds) for _ in range(n)]
    run_usm_game(subs, CycleFunctionAdversary(cut_oracles(n, (1, 2))), rounds, streams)
    for stream, twin in zip(streams, streams_for(n, seed=3)):
        for _ in range(rounds):
            twin.random()
        assert stream.random() == twin.random()


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("make", [Balancer, TwoExperts])
def test_game_equals_rounds_on_sequential_streams(make, shared):
    # Shared streams interleave their draws across elements, so the game
    # must draw from them round by round; distinct ones go as blocks.
    n, rounds = 4, 60
    oracles = cut_oracles(n, (5, 6, 7))

    def streams():
        return [np.random.default_rng(9)] * n if shared else streams_for(n, seed=9)

    res = run_usm_game([make(rounds) for _ in range(n)], CycleFunctionAdversary(oracles),
                       rounds, streams(), keep_transcripts=True)
    subs = [make(rounds) for _ in range(n)]
    plain = streams()
    for t, tr in enumerate(res.transcripts):
        want = run_round(subs, oracles[t % len(oracles)], plain, t=t + 1)
        assert (tr.chosen, tr.decisions, tr.marginals) == (want.chosen, want.decisions, want.marginals)


def test_run_round_draws_one_coin_per_element_from_generators():
    n = 6
    streams = streams_for(n, seed=4)
    run_round([Balancer(10) for _ in range(n)], cut_oracles(n, (8,))[0], streams)
    for stream, twin in zip(streams, streams_for(n, seed=4)):
        twin.random()
        assert stream.random() == twin.random()


@pytest.mark.parametrize("trials", [1, 2, 300])
def test_stats_equal_a_loop_of_sequential_sweeps(trials):
    f = cut_oracles(9, (12,))[0]
    seed = 21
    got = rand_double_greedy_stats(f, trials, seed)

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    runs = [rand_double_greedy(f, rng) for _ in range(trials)]
    values = np.array([r.value for r in runs])
    best = max(range(trials), key=lambda k: (runs[k].value, -k))
    assert got.chosen == runs[best].chosen
    assert got.value == runs[best].value
    assert got.mean == float(values.mean())
    assert got.std == (float(values.std(ddof=1)) if trials > 1 else 0.0)
