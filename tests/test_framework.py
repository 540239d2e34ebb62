import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from onlineusm import framework
from onlineusm.adversaries import CycleFunctionAdversary, RandomObliviousAdversary
from onlineusm.balance import Balancer, ConstantPolicy, TwoExperts
from onlineusm.errors import ConfigError, SizeError
from onlineusm.framework import (
    _holds_prefix,
    _prefix_points,
    _replay,
    fit_growth_exponent,
    run_cycle_trials,
    run_round,
    run_usm_game,
)
from onlineusm.harness import SUBROUTINE_NAMES, build_subroutine
from onlineusm.offline import brute_force_opt
from onlineusm.submodular import (
    DirectedGraph,
    SubmodularOracle,
    full_mask,
    normalize,
    random_digraph,
    tabulate,
    value_table,
)

from conftest import grow_only_oracle
from test_offline import value_tables
from references import (
    CountingCycle,
    RoundRecord,
    decisions,
    distinct_tables,
    kept_rounds,
    opt_tracking_check,
    oracle_from_table,
    reference_tracking,
    same_bits,
    usm_alpha_regret,
    value_identity_residual,
    x_sets,
    y_sets,
)


def streams_for(n, seed=0):
    return [np.random.default_rng((seed, i)) for i in range(n)]


def coins_for(n, seed=0):
    """One round's coins: the first draw of each of ``streams_for(n, seed)``."""
    return [stream.random() for stream in streams_for(n, seed)]


def random_cut_oracle(n, seed, density=0.5):
    return tabulate(normalize(random_digraph(n, density, (0.0, 1.0), np.random.default_rng(seed))))


# --- the marginal pairs a round feeds -----------------------------------

def test_run_round_single_edge_marginals(single_edge_oracle):
    f = single_edge_oracle
    _, points = run_round([ConstantPolicy(1.0), ConstantPolicy(1.0)], f, coins_for(2))
    # element 1 at (X, Y) = ({}, {1, 2}); then, after its yes, adding 2
    # kills the cut and dropping it restores it
    assert points == ((1.0, 0.0), (-1.0, 1.0))


def test_run_round_constant_marginals_are_zero(constant_oracle):
    for policy in (0.0, 0.5, 1.0):
        _, points = run_round([ConstantPolicy(policy) for _ in range(3)], constant_oracle(3), coins_for(3))
        assert points == ((0.0, 0.0),) * 3


def test_run_round_single_edge_counts_distinct_masks(single_edge_oracle):
    f = single_edge_oracle
    run_round([ConstantPolicy(1.0), ConstantPolicy(1.0)], f, coins_for(2))
    # X chain {} {1} {1,2}, Y chain {1,2}, and {2}, {1}: four distinct masks
    assert f.queries == 4


def test_run_round_chains_meet_the_marginal_preconditions():
    # at element i the round's (X_{i-1}, Y_{i-1}) has X inside Y, the two
    # agree below i, i is not in X and i is in Y: the pair at which the
    # marginals alpha_i, beta_i are defined
    n = 3
    for choices in range(1 << n):
        policies = [ConstantPolicy(float(choices >> i & 1)) for i in range(n)]
        tr = RoundRecord(*run_round(policies, random_cut_oracle(n, seed=choices), coins_for(n)))
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            x, y = x_sets(tr)[i - 1], y_sets(tr)[i - 1]
            assert x & ~y == 0
            assert (x ^ y) & (bit - 1) == 0
            assert not x & bit and y & bit
        assert tr.chosen == choices


# --- run_round -----------------------------------------------------------

def test_run_round_forced_yes_single_element():
    f = oracle_from_table([0.0, 1.0])
    tr = RoundRecord(*run_round([ConstantPolicy(1.0)], f, coins_for(1)))
    assert tr.chosen == 0b1
    assert x_sets(tr) == (0, 1) and y_sets(tr) == (1, 1)


def test_run_round_always_no_shrinks_y():
    f = random_cut_oracle(4, seed=3)
    tr = RoundRecord(*run_round([ConstantPolicy(0.0) for _ in range(4)], f, coins_for(4)))
    assert tr.chosen == 0
    assert y_sets(tr) == (0b1111, 0b1110, 0b1100, 0b1000, 0b0000)
    assert x_sets(tr) == (0, 0, 0, 0, 0)


def test_run_round_transcript_invariants():
    n = 6
    f = random_cut_oracle(n, seed=11)
    subs = [Balancer(64) for _ in range(n)]
    tr = RoundRecord(*run_round(subs, f, coins_for(n)))
    for i in range(n + 1):
        assert x_sets(tr)[i] & ~y_sets(tr)[i] == 0  # X inside Y
    assert x_sets(tr)[n] == y_sets(tr)[n] == tr.chosen
    for a, b in tr.points:
        assert a + b >= -1e-9


def test_run_round_query_budget_n8():
    n = 8
    f = random_cut_oracle(n, seed=5)
    subs = [Balancer(100) for _ in range(n)]
    before = f.queries
    run_round(subs, f, coins_for(n))
    spent = f.queries - before
    assert spent == 2 * n
    assert spent <= 34
    assert spent <= 4 * n + 2


def test_run_round_marginals_match_direct_recompute():
    n = 5
    f = random_cut_oracle(n, seed=8)
    subs = [ConstantPolicy(0.5) for _ in range(n)]
    tr = RoundRecord(*run_round(subs, f, coins_for(n, seed=4)))
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        x_prev, y_prev = x_sets(tr)[i - 1], y_sets(tr)[i - 1]
        alpha = f.peek(x_prev | bit) - f.peek(x_prev)
        beta = f.peek(y_prev & ~bit) - f.peek(y_prev)
        assert tr.points[i - 1] == (alpha, beta)


def test_run_round_no_cross_round_caching():
    n = 4
    f = random_cut_oracle(n, seed=2)
    subs = [ConstantPolicy(1.0) for _ in range(n)]
    run_round(subs, f, coins_for(n))
    first = f.queries
    run_round(subs, f, coins_for(n))
    assert f.queries - first == first  # second identical round pays again


class LoggedOracle(SubmodularOracle):
    """A function-backed oracle over ``table`` that lists what it is asked.

    ``reads`` holds every mask its function answers, for ``evaluate``
    calls and uncounted reads alike; ``log`` holds each ``evaluate`` call
    and each bulk charge, as ("evaluate", mask) and ("charge", count), in
    call order (a shared list, when one is given)."""

    def __init__(self, table, log=None):
        self.reads = []
        self.log = [] if log is None else log

        def fn(s):
            self.reads.append(s)
            return float(table[s])

        super().__init__(int(table.size).bit_length() - 1, fn)

    def evaluate(self, s):
        self.log.append(("evaluate", s))
        return super().evaluate(s)

    def _charge(self, count):
        self.log.append(("charge", count))
        super()._charge(count)


def recording_oracle(n, seed):
    """A logged cut oracle and the list of masks its function answers."""
    f = LoggedOracle(value_table(random_cut_oracle(n, seed)))
    return f, f.reads


def root_walk_log(n):
    """What a walk from the root counts: two ``evaluate`` calls, then 2n - 2."""
    return [("evaluate", 0), ("evaluate", full_mask(n)), ("charge", 2 * n - 2)]


def expected_round_masks(n, chosen):
    """The masks a round evaluates, in order: empty, full, then X_{i-1} + i
    and Y_{i-1} - i for each element i < n."""
    full = full_mask(n)
    masks = [0, full]
    for i in range(1, n):
        bit = 1 << (i - 1)
        x = chosen & (bit - 1)
        y = x | (full & ~(bit - 1))
        masks += [x | bit, y & ~bit]
    return masks


def decision_vectors(n):
    """Every decision vector for n <= 4; otherwise all-yes, all-no and eight seeded ones."""
    if n <= 4:
        return range(1 << n)
    rng = np.random.default_rng(n)
    return [0, full_mask(n), *rng.integers(0, 1 << n, 8).tolist()]


@pytest.mark.parametrize("n", range(1, 11))
def test_round_evaluates_each_mask_once_in_walk_order(n):
    for choices in decision_vectors(n):
        f, calls = recording_oracle(n, seed=n * 1000 + choices)
        policies = [ConstantPolicy(float(choices >> i & 1)) for i in range(n)]
        tr = RoundRecord(*run_round(policies, f, coins_for(n)))
        assert tr.chosen == choices
        assert len(calls) == f.queries == 2 * n
        assert len(set(calls)) == 2 * n
        assert calls == expected_round_masks(n, choices)
        assert f.log == root_walk_log(n)
        # element n reuses f(X_{n-1}) and f(Y_{n-1}) = f(X_{n-1} + n)
        x, y = x_sets(tr)[n - 1], y_sets(tr)[n - 1]
        fx, fy = f.peek(x), f.peek(y)
        assert y == x | 1 << (n - 1)
        assert _bits(tr.points[-1]) == _bits((fy - fx, fx - fy))


def batch_and_walk(table, name, rounds, seed):
    """``rounds`` rounds of one batched trial on ``table``'s prefix points
    (batched even where the rounds reach only some nodes) and as many
    root-walk rounds, each on its own oracle, subroutines and coin
    streams (both seeded alike); returns what each must share with the
    other (the chosen sets and the points fed, then the rewards and the
    oracle's counted queries), floats by their bits, and the queries each
    walked round's oracle counted."""
    n = int(table.size).bit_length() - 1
    f = oracle_from_table(table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(framework, "_holds_prefix", lambda *a: True)
        res = run_cycle_trials(build_subroutine(name, rounds), CycleFunctionAdversary([f]), rounds,
                               [streams_for(n, seed)], keep_transcripts=True)[0]
    got = ((res.chosen_sets, _bits(res.points.tolist())), _bits(res.rewards.tolist()), f.queries)
    f = oracle_from_table(table)
    subs = [build_subroutine(name, rounds) for _ in range(n)]
    streams = streams_for(n, seed)
    walks, queries = walk_rounds(subs, [f], rounds, streams)
    want = (([tr.chosen for tr in walks], _bits([tr.points for tr in walks])),
            _bits([f.peek(tr.chosen) for tr in walks]), f.queries)
    return got, want, queries


def walk_rounds(subs, oracles, rounds, streams):
    """``rounds`` plain ``run_round`` calls over the cycle ``oracles``,
    their coins drawn one at a time: each round's record and the queries
    its oracle's counter gained."""
    walks, queries = [], []
    for t in range(rounds):
        f = oracles[t % len(oracles)]
        before = f.queries
        walks.append(RoundRecord(*run_round(subs, f, [s.random() for s in streams])))
        queries.append(f.queries - before)
    return walks, queries


@pytest.mark.parametrize("n", range(1, 5))
def test_built_tree_is_the_root_walk_at_every_node(n):
    # building reads each of the 2^n values once, uncounted and uncharged
    f, calls = recording_oracle(n, seed=n)
    alpha, beta = _prefix_points(value_table(f))
    assert calls == list(range(1 << n))
    assert f.log == [] and f.queries == 0
    assert alpha.size == beta.size == 1 << n
    # every decision vector's path, so every node, against the walk
    for choices in range(1 << n):
        policies = [ConstantPolicy(float(choices >> i & 1)) for i in range(n)]
        walk = RoundRecord(*run_round(policies, f, coins_for(n)))
        assert walk.chosen == choices
        nodes = [1 << i | choices & ((1 << i) - 1) for i in range(n)]
        assert _bits(walk.points) == _bits([(alpha[v].item(), beta[v].item()) for v in nodes])


@settings(max_examples=100, deadline=None)
@given(table=st.integers(1, 6).flatmap(value_tables), name=st.sampled_from(["balancer", "mw", "uniform"]),
       rounds=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(table=np.array([0.0, -0.0, -0.0, 0.0]), name="balancer", rounds=4, seed=0)
@example(table=np.array([0.0, 5e-324, 1e-310, -0.0]), name="mw", rounds=4, seed=1)
def test_built_tree_rounds_are_root_walks_on_any_table(table, name, rounds, seed):
    got, want, queries = batch_and_walk(table, name, rounds, seed)
    assert got == want
    n = int(table.size).bit_length() - 1
    assert queries == [2 * n] * rounds and got[2] == 2 * n * rounds


def test_prefix_points_need_a_tabulable_size():
    # a tree needs the value table: n = 21 raises before any read or charge
    reads = []
    big = SubmodularOracle(21, lambda m: reads.append(m) or 0.0)
    with pytest.raises(SizeError):
        _prefix_points(value_table(big))
    assert reads == [] and big.queries == 0
    # so its trials never play as a batch
    assert not _holds_prefix(CycleFunctionAdversary([big]), 21, 1 << 21)

    # and a 2^21-round game on it reads nothing: it gets as far as its coins
    class Drawn(Exception):
        pass

    class StopAtDraw:
        def random(self, out):
            raise Drawn

    with pytest.raises(Drawn):
        run_usm_game([ConstantPolicy(1.0) for _ in range(21)], CycleFunctionAdversary([big]), 1 << 21,
                     [StopAtDraw() for _ in range(21)], track_opt=False)
    assert reads == []


# --- the game against a loop of root-walk rounds ----------------------------

def cycle_tables(n, seed):
    """Two cut tables on n vertices (a random table for n = 1) and the cycle
    (a, b, a), which plays a twice as often as b."""
    rng = np.random.default_rng(seed)
    if n == 1:
        tables = [rng.random(2), rng.random(2)]
    else:
        tables = [value_table(normalize(random_digraph(n, 0.5, (0.0, 1.0), rng))) for _ in range(2)]
    return [tables[0], tables[1], tables[0]]


def play_cycle(tables, name, rounds, seed, *, game):
    """``run_usm_game`` over a cycle of fresh oracles on ``tables``, or, without
    ``game``, the plain loop: one ``run_round`` per round, its coins
    drawn one at a time.  A table that recurs in the cycle is one oracle.
    Returns what the two must share, floats by their bits, and the number
    of values the oracles' functions answered."""
    n = int(tables[0].size).bit_length() - 1
    answered = []

    def counted(table):
        def fn(s):
            answered.append(s)
            return float(table[s])

        return SubmodularOracle(n, fn)

    oracles = []
    for k, table in enumerate(tables):
        same = [j for j in range(k) if tables[j] is table]
        oracles.append(oracles[same[0]] if same else counted(table))
    subs = [build_subroutine(name, rounds) for _ in range(n)]
    streams = streams_for(n, seed)
    if game:
        adversary = CountingCycle(oracles)
        res = run_usm_game(subs, adversary, rounds, streams, track_opt=False, keep_transcripts=True)
        rewards, queries, chosen, points = (res.rewards.tolist(), adversary.round_queries(), res.chosen_sets,
                                            res.points.tolist())
    else:
        transcripts, queries = walk_rounds(subs, oracles, rounds, streams)
        rewards = [oracles[t % len(oracles)].peek(tr.chosen) for t, tr in enumerate(transcripts)]
        chosen, points = [tr.chosen for tr in transcripts], [tr.points for tr in transcripts]
    return len(answered), dict(
        rewards=_bits(rewards),
        queries=queries,
        chosen=chosen,
        points=_bits(points),
        oracle_queries=[f.queries for f in oracles],
        subroutines=[subroutine_state(sub) for sub in subs],
        streams=[s.bit_generator.state for s in streams],
    )


@pytest.mark.parametrize("name", ["balancer", "mw", "uniform"])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("scale", ["below", "at", "above"])
def test_game_with_trees_is_a_loop_of_treeless_rounds(scale, n, name):
    # below, at and above 2^n rounds alike the game's rounds walk
    rounds = {"below": (1 << n) - 1, "at": 1 << n, "above": 4 << n}[scale]
    tables = cycle_tables(n, seed=n)
    got_reads, got = play_cycle(tables, name, rounds, seed=n, game=True)
    want_reads, want = play_cycle(tables, name, rounds, seed=n, game=False)
    assert got == want
    assert got["queries"] == [2 * n] * rounds
    plays_b = len(range(1, rounds, 3))
    assert got["oracle_queries"] == [2 * n * (rounds - plays_b), 2 * n * plays_b, 2 * n * (rounds - plays_b)]
    # besides one peek per round for its reward, a round reads its 2n masks
    assert got_reads == want_reads == (2 * n + 1) * rounds


class MarkedCycle(CycleFunctionAdversary):
    """A cycle that logs ("round", oracle) as it hands out each round's oracle."""

    def __init__(self, oracles, log):
        super().__init__(oracles)
        self.log = log

    def next_oracle(self, last_set=None):
        f = super().next_oracle(last_set)
        self.log.append(("round", f))
        return f


@pytest.mark.parametrize("name", ["balancer", "uniform"])
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("scale", ["below", "at", "above"])
def test_game_counts_2n_per_round_and_evaluates_only_on_root_walks(scale, n, name):
    # every round walks from the root, whatever 2^n is against the
    # rounds: its evaluate ticks and its bulk charge come to exactly 2n
    rounds = {"below": (1 << n) - 1, "at": 1 << n, "above": 4 << n}[scale]
    log = []
    tables = cycle_tables(n, seed=n)
    oracles = [LoggedOracle(tables[0], log), LoggedOracle(tables[1], log)]
    res = run_usm_game([build_subroutine(name, rounds) for _ in range(n)],
                       MarkedCycle([oracles[0], oracles[1], oracles[0]], log), rounds, streams_for(n, seed=n))
    assert res.max_round_queries == 2 * n
    per_round = []
    for kind, what in log:
        if kind == "round":
            per_round.append((what, []))
        else:
            per_round[-1][1].append((kind, what))
    assert len(per_round) == rounds
    for f, entries in per_round:
        assert entries == root_walk_log(n)
        ticks = sum(kind == "evaluate" for kind, _ in entries)
        assert ticks + sum(count for kind, count in entries if kind == "charge") == 2 * n
    assert sum(f.queries for f in oracles) == 2 * n * rounds


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_game_is_a_loop_of_rounds_on_any_cycled_tables(data):
    n = data.draw(st.integers(1, 6))
    tables = data.draw(st.lists(value_tables(n), min_size=1, max_size=3))
    tables += data.draw(st.lists(st.sampled_from(tables), max_size=2))  # a repeat shares its oracle
    name = data.draw(st.sampled_from(["balancer", "mw", "uniform"]))
    rounds = data.draw(st.integers(max(1, (1 << n) - 2), 3 << n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    assert play_cycle(tables, name, rounds, seed, game=True)[1] == play_cycle(tables, name, rounds, seed, game=False)[1]


def test_run_round_subroutine_count_mismatch():
    f = random_cut_oracle(3, seed=1)
    with pytest.raises(ConfigError):
        run_round([ConstantPolicy(1.0)], f, coins_for(1))


# --- run_round against the round it replaced ------------------------------

def reference_round(subroutines, f, coins):
    """The single-loop round that ``run_round``'s three passes replaced,
    past its argument checks, feeding each subroutine an ``(alpha, beta)``
    tuple as ``run_round`` does; returns the round's chosen set, points,
    decisions, chains and queries as a dict."""
    n = f.n
    q0 = f.queries
    x = 0
    y = full_mask(n)
    xs = [0]
    ys = [y]
    others = []
    decisions = []
    bit = 1
    for sub, coin in zip(subroutines, coins):
        d = sub.decide(coin)
        if d:
            others.append(y ^ bit)
            x |= bit
        else:
            others.append(x | bit)
            y ^= bit
        decisions.append(d)
        xs.append(x)
        ys.append(y)
        bit <<= 1

    evaluate = f.evaluate
    value = {m: evaluate(m) for m in {*xs, *ys, *others}}
    marginals = []
    bit = 1
    for sub, xprev, yprev in zip(subroutines, xs, ys):
        alpha = value[xprev | bit] - value[xprev]
        beta = value[yprev ^ bit] - value[yprev]
        sub.update((alpha, beta))
        marginals.append((alpha, beta))
        bit <<= 1

    return dict(
        chosen=x,
        decisions=tuple(decisions),
        points=tuple(marginals),
        x_sets=tuple(xs),
        y_sets=tuple(ys),
        queries=f.queries - q0,
    )


def _bits(value):
    """A value with every float spelled by ``float.hex``, for bit-for-bit equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def subroutine_state(sub):
    """Every attribute of a subroutine, floats by their bits."""
    return {k: _bits(v) for k, v in vars(sub).items()}


@st.composite
def cut_table_cycles(draw, max_n=8):
    """One to three normalized cut tables of random digraphs on the same n <= max_n vertices."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        picked = draw(st.lists(st.tuples(st.sampled_from(pairs), st.floats(0.0, 1.0)),
                               max_size=3 * n)) if pairs else []
        g = DirectedGraph(n, tuple((u, v, w) for (u, v), w in picked))
        assume(g.total_weight == 0.0 or math.isfinite(1.0 / g.total_weight))
        tables.append(np.clip(value_table(normalize(g)), 0.0, 1.0))
    return n, tables


@settings(max_examples=150, deadline=None)
@given(
    cycle=cut_table_cycles(),
    name=st.sampled_from(SUBROUTINE_NAMES),
    rounds=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_round_is_the_reference_round_bit_for_bit(cycle, name, rounds, seed):
    n, tables = cycle
    got_subs = [build_subroutine(name, rounds) for _ in range(n)]
    want_subs = [build_subroutine(name, rounds) for _ in range(n)]
    got_oracles = [oracle_from_table(t) for t in tables]
    want_oracles = [oracle_from_table(t) for t in tables]
    coins = np.random.default_rng(seed).random((rounds, n)).tolist()
    for r in range(rounds):
        k = r % len(tables)
        before = got_oracles[k].queries
        got = RoundRecord(*run_round(got_subs, got_oracles[k], coins[r]))
        want = reference_round(want_subs, want_oracles[k], coins[r])
        # the returned pair and the decisions, chains and queries of the round
        fields = {**got._asdict(), "decisions": decisions(got), "x_sets": x_sets(got), "y_sets": y_sets(got),
                  "queries": got_oracles[k].queries - before}
        assert {k: _bits(v) for k, v in fields.items()} == {k: _bits(v) for k, v in want.items()}
        assert type(got.chosen) is int
        assert [type(pt) for pt in got.points] == [tuple] * n
    assert [subroutine_state(s) for s in got_subs] == [subroutine_state(s) for s in want_subs]
    assert [f.queries for f in got_oracles] == [f.queries for f in want_oracles]


def test_run_round_feeds_each_subroutine_the_point_it_records():
    fed = []

    class Recorder(ConstantPolicy):
        def update(self, pt):
            fed.append(pt)

    n = 5
    _, points = run_round([Recorder(0.5) for _ in range(n)], random_cut_oracle(n, seed=8), coins_for(n))
    assert len(fed) == n and all(a is b for a, b in zip(fed, points))


@pytest.mark.parametrize("make", [Balancer, TwoExperts])
def test_round_feeds_plain_pairs_that_subroutines_take_as_points(make):
    # each subroutine gets the very (alpha, beta) tuple the round returns,
    # and steps from it bit for bit as from any other pair of the same
    # floats, here a list
    n, rounds = 5, 30
    oracles = [random_cut_oracle(n, seed) for seed in (13, 14)]
    fed = []

    class Recording(make):
        def update(self, pt):
            fed.append(pt)
            super().update(pt)

    subs = [Recording(rounds) for _ in range(n)]
    from_pairs = [make(rounds) for _ in range(n)]
    from_points = [make(rounds) for _ in range(n)]
    streams = streams_for(n, seed=3)
    for t in range(rounds):
        fed.clear()
        _, points = run_round(subs, oracles[t % 2], [s.random() for s in streams])
        assert len(fed) == n and all(a is b for a, b in zip(fed, points))
        assert all(type(pt) is tuple for pt in points)
        for pair_fed, point_fed, pt in zip(from_pairs, from_points, points):
            pair_fed.update(pt)
            point_fed.update(list(pt))
    want = [subroutine_state(s) for s in from_points]
    assert [subroutine_state(s) for s in from_pairs] == want
    assert [subroutine_state(s) for s in subs] == want


def test_round_records_are_immutable_and_pickle():
    # a round returns the plain pair (chosen, points), each point a plain
    # (alpha, beta) pair: tuples all the way down
    n = 4
    record = run_round([Balancer(16) for _ in range(n)], random_cut_oracle(n, seed=6), coins_for(n))
    chosen, points = record
    assert type(record) is tuple and type(chosen) is int and type(points) is tuple
    assert all(type(pt) is tuple and [type(v) for v in pt] == [float, float] for pt in points)
    for value in (record, points, points[0]):
        with pytest.raises(TypeError):
            value[0] = 0
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
    # a point is a nonempty tuple, so it is truthy whatever it holds
    assert all(points)


# --- usm_alpha_regret ----------------------------------------------------

def test_usm_alpha_regret_zero_when_matching_opt():
    f = random_cut_oracle(4, seed=9)
    best = brute_force_opt(f).chosen
    history = [(f, best)] * 7
    assert usm_alpha_regret(history, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_usm_alpha_regret_single_round_half():
    f = oracle_from_table([0.0, 1.0])
    assert usm_alpha_regret([(f, 0)], 0.5) == pytest.approx(0.5)


def test_usm_alpha_regret_repeated_single_edge(single_edge_oracle):
    f = single_edge_oracle
    t = 13
    for a in (0.25, 0.5, 1.0):
        got = usm_alpha_regret([(f, 0b01)] * t, a)
        assert got == pytest.approx((a - 1.0) * t)


def test_usm_alpha_regret_supplied_opt_and_size_error():
    f = oracle_from_table([0.0, 1.0, 0.25, 0.5])
    history = [(f, 0b01), (f, 0b10)]
    assert usm_alpha_regret(history, 1.0, opt=0b01) == pytest.approx(2.0 - 1.25)
    big = SubmodularOracle(21, lambda m: 0.0)
    with pytest.raises(SizeError):
        usm_alpha_regret([(big, 0)], 0.5)
    assert usm_alpha_regret([(big, 0)], 0.5, opt=0) == 0.0
    assert usm_alpha_regret([], 0.5) == 0.0


# --- the replay relations, by record and by array --------------------------

def run_recorded(n, rounds, subs_factory, oracle_seed=0, coin_seed=0):
    f = random_cut_oracle(n, seed=oracle_seed)
    adversary = CycleFunctionAdversary([f])
    subs = [subs_factory() for _ in range(n)]
    streams = streams_for(n, seed=coin_seed)
    return run_usm_game(
        subs, adversary, rounds, streams,
        keep_transcripts=True,
    )


def replay(res, opt):
    """The array replay of a run's kept rounds against ``opt``."""
    return _replay(res.oracles, res.chosen_sets, res.points, opt)


def test_opt_tracking_passes_on_submodular_runs():
    res = run_recorded(6, 25, lambda: Balancer(25), oracle_seed=14)
    opt = brute_force_opt(res.oracles[0]).chosen
    for tr, f in zip(kept_rounds(res), res.oracles):
        assert opt_tracking_check(tr, f, opt) is None
    assert replay(res, opt)[0] == 0


def test_opt_tracking_with_opt_equal_to_choice():
    res = run_recorded(5, 10, lambda: ConstantPolicy(0.5), oracle_seed=3)
    for t, (tr, f) in enumerate(zip(kept_rounds(res), res.oracles)):
        assert opt_tracking_check(tr, f, tr.chosen) is None
        assert _replay([f], [tr.chosen], res.points[t:t + 1], tr.chosen)[0] == 0


def test_opt_tracking_flags_non_submodular():
    n = 4
    f = grow_only_oracle(n)
    subs = [ConstantPolicy(1.0) for _ in range(n)]  # feedback ignored, no triangle check
    tr = RoundRecord(*run_round(subs, f, coins_for(n)))
    violation = opt_tracking_check(tr, f, opt=0)
    assert violation is not None
    assert violation.relation == "opt-drop-yes"
    assert _replay([f], [tr.chosen], np.array([tr.points]), 0)[0] == 1


def test_value_identity_residual_and_drop_margin():
    # the summed drop bound at element i follows from the per-round
    # opt-drop relations that opt_tracking_check checks on every round
    res = run_recorded(6, 40, lambda: Balancer(40), oracle_seed=21, coin_seed=5)
    n = 6
    records = kept_rounds(res)
    residuals = replay(res, res.opt_set)[1]
    for i in range(1, n + 1):
        assert abs(value_identity_residual(records, res.oracles, i)) <= 1e-9
        assert abs(residuals[i - 1]) <= 1e-9


def unit_tables(n):
    """Tables of 2^n arbitrary values in [0, 1], zeros of either sign:
    most are not submodular, so the points they yield break relations."""
    values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 5e-324]))
    return st.lists(values, min_size=1 << n, max_size=1 << n).map(np.array)


def assert_replays_agree(tables, name, rounds, seed, others):
    """Play ``tables`` cycled; the array replay's failed-round count and
    residuals against the tracked best set and each of ``others`` are the
    record replay's, bit for bit.  Returns the last failed-round count."""
    n = int(tables[0].size).bit_length() - 1
    oracles = [oracle_from_table(t) for t in tables]
    res = run_usm_game([build_subroutine(name, rounds) for _ in range(n)], CycleFunctionAdversary(oracles),
                       rounds, streams_for(n, seed), keep_transcripts=True)
    records = kept_rounds(res)
    for opt in (res.opt_set, *others):
        failed, residuals = replay(res, opt)
        assert failed == sum(opt_tracking_check(tr, f, opt) is not None for tr, f in zip(records, res.oracles))
        want = [value_identity_residual(records, res.oracles, i) for i in range(1, n + 1)]
        assert _bits(residuals.tolist()) == _bits(want)
    return failed


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_array_replay_is_the_record_replay(data):
    # submodular tables played by any subroutine; arbitrary [0, 1] tables
    # by the constant policies, which accept any point
    n = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        tables = data.draw(st.lists(unit_tables(n), min_size=1, max_size=3))
        name = data.draw(st.sampled_from(["uniform", "always-yes", "always-no"]))
    else:
        tables = data.draw(st.lists(value_tables(n), min_size=1, max_size=3))
        name = data.draw(st.sampled_from(SUBROUTINE_NAMES))
    assert_replays_agree(tables, name, data.draw(st.integers(1, 40)), data.draw(st.integers(0, 2**32 - 1)),
                         [data.draw(st.integers(0, (1 << n) - 1))])


def test_array_replay_counts_the_rounds_a_supermodular_table_breaks():
    # (|S| / n)^2 under uniform play: some rounds break a relation, not all
    failed = assert_replays_agree([value_table(grow_only_oracle(4))], "uniform", 30, 3, [0, 0b1111])
    assert 0 < failed < 30


# --- subroutine isolation -------------------------------------------------

def test_earlier_subroutine_inputs_ignore_later_seeds():
    n = 4
    rounds = 30
    f = random_cut_oracle(n, seed=6)

    def run_with(stream_seeds):
        adversary = CycleFunctionAdversary([f])
        subs = [Balancer(rounds) for _ in range(n)]
        streams = [np.random.default_rng(s) for s in stream_seeds]
        return run_usm_game(subs, adversary, rounds, streams, keep_transcripts=True)

    base = run_with([10, 11, 12, 13])
    moved = run_with([10, 11, 99, 98])

    def column(res, i):
        return res.points[:, i - 1].tolist()

    # inputs of subroutines 1..3 depend only on coins of subroutines < i
    for i in (1, 2, 3):
        assert column(base, i) == column(moved, i)
    assert column(base, 4) != column(moved, 4)


# --- run_usm_game result contracts ----------------------------------------

def test_run_result_series_invariants():
    n = 5
    rounds = 60
    oracles = [random_cut_oracle(n, seed=s) for s in (1, 2)]
    adversary = CountingCycle(oracles)
    subs = [Balancer(rounds) for _ in range(n)]
    res = run_usm_game(
        subs, adversary, rounds, streams_for(n, seed=2),
        keep_sets=True, keep_transcripts=True,
    )
    assert np.allclose(np.cumsum(res.rewards), res.cum_rewards)
    assert max(adversary.round_queries()) <= res.max_round_queries <= 4 * n + 2
    # the regret from the series agrees with an independent recomputation on prefixes
    history = list(zip(res.oracles, res.chosen_sets))
    for t in (1, 7, 33, 60):
        want = usm_alpha_regret(history[:t], 0.5)
        assert 0.5 * res.cum_opt[t - 1] - res.cum_rewards[t - 1] == pytest.approx(want, abs=1e-9)


# --- best-fixed-set tracking against the per-round sum ---------------------

def assert_tracking_is_the_reference(res, tables):
    want_opt, want_final, want_set = reference_tracking(tables)
    assert [v.hex() for v in res.cum_opt.tolist()] == [v.hex() for v in want_opt.tolist()]
    assert same_bits(res.cum_opt[-1], want_final)
    assert res.opt_set == want_set


@pytest.mark.parametrize(
    "n, rounds, adversary",
    [
        (8, 300, "cycle"),  # 128 rounds per coin block: two full blocks and a part
        (8, 129, "fresh"),  # a fresh table every round, one round past a block
        (15, 4, "cycle"),  # n > 13: cut tables route their short-run edges
        (16, 3, "fixed"),
    ],
)
def test_block_tracking_is_the_per_round_sum_bit_for_bit(n, rounds, adversary):
    if adversary == "fresh":
        adv = RandomObliviousAdversary(n, 0.5, (0.0, 1.0), 4)
    else:
        k = 3 if adversary == "cycle" else 1
        adv = CycleFunctionAdversary([random_cut_oracle(n, seed=s) for s in range(k)])
    res = run_usm_game([Balancer(rounds) for _ in range(n)], adv, rounds, streams_for(n, seed=1),
                       keep_transcripts=True)
    assert_tracking_is_the_reference(res, distinct_tables(res.oracles))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(1, 4),
    rounds=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_tracking_is_the_per_round_sum(n, k, rounds, seed):
    # arbitrary tables in [0, 1] with a spread of exponents, so that any
    # other order of additions would round differently; constant policies
    # ignore the feedback, so the tables need not be submodular
    rng = np.random.default_rng(seed)
    tables = [rng.random(1 << n) ** rng.integers(1, 40) for _ in range(k)]
    oracles = [oracle_from_table(t) for t in tables]
    res = run_usm_game([ConstantPolicy(0.5) for _ in range(n)], CycleFunctionAdversary(oracles),
                       rounds, streams_for(n, seed=seed % 7))
    assert_tracking_is_the_reference(res, [value_table(oracles[t % k]) for t in range(rounds)])


@pytest.mark.parametrize("rounds", [1, 2, 129])
def test_tracking_keeps_a_negative_zero_maximum(rounds):
    # a total that started from +0.0 would turn every -0.0 into +0.0
    n = 2
    tables = [[-0.0, -1e-12, -0.0, -5e-324], [-0.0, -0.0, -0.0, -0.0]]
    oracles = [oracle_from_table(t) for t in tables]
    res = run_usm_game([ConstantPolicy(0.5) for _ in range(n)], CycleFunctionAdversary(oracles),
                       rounds, streams_for(n))
    assert_tracking_is_the_reference(res, [value_table(oracles[t % 2]) for t in range(rounds)])
    assert np.signbit(res.cum_opt).all()


def test_run_usm_game_errors():
    n = 3
    f = random_cut_oracle(n, seed=4)
    adversary = CycleFunctionAdversary([f])
    subs = [ConstantPolicy(1.0) for _ in range(n)]
    with pytest.raises(ConfigError):
        run_usm_game(subs, adversary, 0, streams_for(n))
    with pytest.raises(ConfigError):
        run_usm_game([ConstantPolicy(1.0)], adversary, 5, streams_for(1))
    with pytest.raises(ConfigError, match="at least one subroutine"):
        run_usm_game([], adversary, 5, [])
    big = SubmodularOracle(21, lambda m: 0.0)
    with pytest.raises(SizeError):
        run_usm_game(
            [ConstantPolicy(1.0) for _ in range(21)],
            CycleFunctionAdversary([big]),
            2,
            streams_for(21),
            track_opt=True,
        )


def test_always_no_rewards_are_empty_set_values():
    n = 4
    f = random_cut_oracle(n, seed=13)
    res = run_usm_game(
        [ConstantPolicy(0.0) for _ in range(n)],
        CycleFunctionAdversary([f]),
        9,
        streams_for(n),
    )
    assert np.allclose(res.rewards, f.peek(0))


def test_fit_growth_exponent():
    ts = [10, 100, 1000, 10_000]
    vals = [3.7 * math.sqrt(t) for t in ts]
    assert fit_growth_exponent(ts, vals) == pytest.approx(0.5, abs=1e-12)
    lin = fit_growth_exponent(ts, [0.2 * t for t in ts])
    assert lin == pytest.approx(1.0, abs=1e-12)
    # nonpositive values drop out; fewer than two points left means no fit
    assert math.isnan(fit_growth_exponent([10, 100], [5.0, -1.0]))
    assert math.isnan(fit_growth_exponent([10, 100], [-1.0, -2.0]))
    assert math.isnan(fit_growth_exponent([10], [5.0]))
