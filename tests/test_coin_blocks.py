"""Coins drawn as blocks are the coins drawn one at a time.

A round takes its n coins as an array, coin i for element i.  A game
draws each stream's coins ``_COIN_BLOCK`` rounds at a time into one
reused buffer, so its coins take memory independent of T; the balance
game draws its T coins as one ``random(T)`` block, and a randomized
offline walk of k sweeps draws its coins as one ``random((k, n))``
block.  These tests pin that the blocks change no coin: the results,
and the streams' states afterwards, are those of sequential
``random()`` calls.  A game needs one distinct stream per subroutine,
and rejects anything else before it draws; so do the batched trials,
for every trial's row of streams.
"""

import tracemalloc

import numpy as np
import pytest

from onlineusm.adversaries import CycleFunctionAdversary
from onlineusm.balance import Balancer, ConstantPolicy, TwoExperts
from onlineusm.errors import ConfigError
from onlineusm.framework import _COIN_BLOCK, run_cycle_trials, run_round, run_usm_game
from onlineusm.harness import build_balance_adversary, run_balance_game
from onlineusm.offline import _BLOCK, rand_double_greedy_stats
from onlineusm.submodular import normalize, random_digraph, tabulate

from references import RoundRecord, decisions, reference_rand_sweep


def cut_oracles(n, seeds):
    return [tabulate(normalize(random_digraph(n, 0.5, (0.0, 1.0), np.random.default_rng(s))))
            for s in seeds]


def streams_for(n, seed):
    return [np.random.default_rng((seed, i)) for i in range(n)]


@pytest.mark.parametrize("rounds", [1, 7, 120, _COIN_BLOCK, _COIN_BLOCK + 1, 2 * _COIN_BLOCK + 44])
def test_game_leaves_each_stream_after_rounds_draws(rounds):
    n = 5
    streams = streams_for(n, seed=3)
    subs = [Balancer(rounds) for _ in range(n)]
    run_usm_game(subs, CycleFunctionAdversary(cut_oracles(n, (1, 2))), rounds, streams)
    for stream, twin in zip(streams, streams_for(n, seed=3)):
        for _ in range(rounds):
            twin.random()
        assert stream.random() == twin.random()


@pytest.mark.parametrize("make", [Balancer, TwoExperts])
def test_game_equals_rounds_on_sequential_streams(make):
    # two full coin blocks and a partial one
    n, rounds = 4, 2 * _COIN_BLOCK + 20
    oracles = cut_oracles(n, (5, 6, 7))
    res = run_usm_game([make(rounds) for _ in range(n)], CycleFunctionAdversary(oracles),
                       rounds, streams_for(n, seed=9), keep_transcripts=True)
    subs = [make(rounds) for _ in range(n)]
    plain = streams_for(n, seed=9)
    for t, (chosen, points) in enumerate(zip(res.chosen_sets, res.points.tolist())):
        coins = [stream.random() for stream in plain]
        want_chosen, want_points = run_round(subs, oracles[t % len(oracles)], coins)
        assert (chosen, points) == (want_chosen, [list(pt) for pt in want_points])


def test_game_coins_take_memory_independent_of_the_horizon():
    # an (n, T) coin array alone would take n * T * 8 bytes, 512 KiB here;
    # the other per-round arrays of an untracked game take 3 * T * 8
    n, rounds = 16, 4096
    adversary = CycleFunctionAdversary(cut_oracles(n, (3,)))
    subs = [ConstantPolicy(0.5) for _ in range(n)]
    streams = streams_for(n, seed=4)
    tracemalloc.start()
    try:
        run_usm_game(subs, adversary, rounds, streams, track_opt=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * rounds * 8 // 2


def reference_balance_game(subroutine, adversary, rounds, rng):
    """The balance game's loop as it was with one ``rng.random()`` per round:
    returns (r_alg, c_yes, c_no), the reward series and the pile series."""
    r_alg = 0.0
    c_yes = 0.0
    c_no = 0.0
    rewards = np.empty(rounds)
    piles = np.empty(rounds)
    prev = None
    next_point = adversary.next_point
    decide = subroutine.decide
    update = subroutine.update
    random = rng.random
    for t in range(rounds):
        pt = next_point(prev)
        d = decide(random())
        update(pt)
        a, b = pt
        if d:
            r_alg += 0.5 * a
            c_no += b
        else:
            r_alg += 0.5 * b
            c_yes += a
        rewards[t] = r_alg
        piles[t] = c_yes if c_yes >= c_no else c_no
        prev = d
    return (r_alg, c_yes, c_no), rewards, piles


@pytest.mark.parametrize("adversary", ["pattern:URL", "adaptive:punish-last"])
@pytest.mark.parametrize("rounds", [1, 2, 999])
def test_balance_game_equals_a_per_round_draw_loop(adversary, rounds):
    rng, twin = np.random.default_rng(17), np.random.default_rng(17)
    got = run_balance_game(Balancer(rounds), build_balance_adversary(adversary), rounds, rng)
    (r_alg, c_yes, c_no), rewards, piles = reference_balance_game(
        Balancer(rounds), build_balance_adversary(adversary), rounds, twin)
    ledger = got.ledger
    assert [v.hex() for v in (ledger.r_alg, ledger.c_yes, ledger.c_no)] == \
        [v.hex() for v in (r_alg, c_yes, c_no)]
    assert got.reward_series.tobytes() == rewards.tobytes()
    assert got.pile_series.tobytes() == piles.tobytes()
    assert rng.random() == twin.random()  # both streams end in the same state


def test_game_rejects_repeated_streams():
    n = 4
    stream = np.random.default_rng(9)
    repeated = streams_for(n, seed=9)
    repeated[0] = repeated[1]
    for streams in ([stream] * n, repeated):
        with pytest.raises(ConfigError, match="distinct"):
            run_usm_game([Balancer(10) for _ in range(n)],
                         CycleFunctionAdversary(cut_oracles(n, (5,))), 10, streams)
    assert stream.random() == np.random.default_rng(9).random()  # nothing was drawn


@pytest.mark.parametrize("case", ["short row", "long row", "shared in a row", "shared across rows",
                                  "no rounds"])
def test_batched_trials_check_their_streams_as_the_game_does(case):
    n, rounds = 3, 16
    rows = [streams_for(n, seed=k) for k in range(2)]
    if case == "short row":
        rows[1] = rows[1][:2]
    elif case == "long row":
        rows[0] = [*rows[0], np.random.default_rng(7)]
    elif case == "shared in a row":
        rows[1][2] = rows[1][0]
    elif case == "shared across rows":
        rows[1][0] = rows[0][0]
    else:
        rounds = 0
    message = {"short row": "need 3 coin streams, got 2", "long row": "need 3 coin streams, got 4",
               "no rounds": "rounds must be >= 1"}.get(case, "distinct")
    states = [s.bit_generator.state for row in rows for s in row]
    with pytest.raises(ConfigError, match=message):
        run_cycle_trials(Balancer(max(rounds, 1)), CycleFunctionAdversary(cut_oracles(n, (5,))), rounds, rows)
    assert [s.bit_generator.state for row in rows for s in row] == states  # nothing was drawn
    # one game on the faulty row raises the same error
    if case != "shared across rows":
        row = rows[0] if case in ("long row", "no rounds") else rows[1]
        with pytest.raises(ConfigError, match=message):
            run_usm_game([Balancer(max(rounds, 1)) for _ in range(n)],
                         CycleFunctionAdversary(cut_oracles(n, (5,))), rounds, row)


@pytest.mark.parametrize("count", [0, 3, 5])
def test_game_rejects_a_wrong_stream_count(count):
    n = 4
    with pytest.raises(ConfigError, match=f"need {n} coin streams, got {count}"):
        run_usm_game([Balancer(10) for _ in range(n)],
                     CycleFunctionAdversary(cut_oracles(n, (5,))), 10, streams_for(count, seed=1))


def test_run_round_decides_element_i_from_coin_i():
    # ConstantPolicy(0.5) says yes exactly when its coin is below 0.5
    n = 6
    coins = [0.1, 0.9, 0.4, 0.6, 0.0, 0.99]
    tr = RoundRecord(*run_round([ConstantPolicy(0.5) for _ in range(n)], cut_oracles(n, (8,))[0], coins))
    assert list(decisions(tr)) == [c < 0.5 for c in coins]
    assert tr.chosen == 0b010101
    with pytest.raises(ConfigError, match="coins"):
        run_round([ConstantPolicy(0.5) for _ in range(n)], cut_oracles(n, (8,))[0], coins[:-1])


# trial counts around the block size and around 4096: full and partial last blocks
@pytest.mark.parametrize("trials", sorted({1, 2, 300, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
                                           4095, 4096, 4097, 8193}))
def test_stats_equal_a_loop_of_sequential_sweeps(trials, monkeypatch):
    n = 9
    f = cut_oracles(n, (12,))[0]
    seed = 21
    made = []
    default_rng = np.random.default_rng

    def keep_stream(*args):
        made.append(default_rng(*args))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", keep_stream)
    got = rand_double_greedy_stats(f, trials, seed)
    monkeypatch.undo()
    (stream,) = made
    twin = np.random.default_rng(np.random.SeedSequence([seed]))
    for _ in range(trials * n):
        twin.random()
    assert stream.random() == twin.random()

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    runs = [reference_rand_sweep(f, rng.random(n)) for _ in range(trials)]
    values = np.array([value for _, value in runs])
    best = max(range(trials), key=lambda k: (runs[k][1], -k))
    assert got.chosen == runs[best][0]
    assert got.value == runs[best][1]
    assert got.mean == float(values.mean())
    assert got.std == (float(values.std(ddof=1)) if trials > 1 else 0.0)
