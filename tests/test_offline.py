import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onlineusm.balance import Balancer, _in_triangle, step_invariant_deltas
from onlineusm.errors import ConfigError, SizeError
from onlineusm.framework import _replay, run_round, run_usm_game
from onlineusm.offline import (
    _marginals,
    _sweep,
    _yes_probability,
    brute_force_opt,
    det_double_greedy,
    rand_double_greedy_stats,
    uniform_random_value,
)
from onlineusm.submodular import (
    VALUE_TOL,
    DirectedGraph,
    SubmodularOracle,
    _cut_table,
    normalize,
    tabulate,
    value_table,
    verify_submodularity,
)

from references import (
    CountingCycle,
    RoundRecord,
    mask_of,
    opt_tracking_check,
    oracle_from_table,
    reference_coin_rule,
    reference_rand_sweep,
    reference_sweep,
    same_bits,
)


def test_brute_force_single_edge(single_edge_oracle):
    res = brute_force_opt(single_edge_oracle)
    assert res.chosen == mask_of([1])
    assert res.value == 1.0


def test_brute_force_constant_tie_breaks_to_empty(constant_oracle):
    res = brute_force_opt(constant_oracle(4, 0.25))
    assert res.chosen == 0
    assert res.value == 0.25


def test_brute_force_modular_picks_positive_support():
    rng = np.random.default_rng(31)
    n = 8
    w = rng.uniform(-0.4, 0.6, size=n)
    offset = -w[w < 0].sum()
    scale = np.abs(w).sum()
    masks = np.arange(1 << n)
    sums = np.zeros(1 << n)
    for i in range(n):
        sums += np.where((masks >> i) & 1, w[i], 0.0)
    res = brute_force_opt(oracle_from_table((sums + offset) / scale))
    want = int(sum(1 << i for i in range(n) if w[i] > 0))
    assert res.chosen == want


def test_brute_force_size_error():
    with pytest.raises(SizeError):
        brute_force_opt(SubmodularOracle(21, lambda m: 0.0))


def test_sweeps_need_the_value_table():
    # n = 21 is answered by cut sums: both sweeps refuse it before any query
    g = DirectedGraph(21, tuple((i, i + 1, 1.0) for i in range(1, 21)))
    for sweep in (det_double_greedy, lambda f: rand_double_greedy_stats(f, 3, 1)):
        f = normalize(g)
        with pytest.raises(SizeError):
            sweep(f)
        assert f.queries == 0


def test_det_double_greedy_single_edge_trace(single_edge_oracle):
    res = det_double_greedy(single_edge_oracle)
    assert res.chosen == mask_of([1])
    assert res.value == 1.0


def test_det_double_greedy_constant_takes_everything(constant_oracle):
    res = det_double_greedy(constant_oracle(5, 0.5))
    assert res.chosen == (1 << 5) - 1  # ties choose yes at every step


def test_det_double_greedy_value_matches_choice(cut_corpus):
    for n, oracle in cut_corpus(count=10, seed=41):
        res = det_double_greedy(oracle)
        assert res.value == pytest.approx(oracle.peek(res.chosen), abs=1e-12)


def test_det_double_greedy_third_of_opt(cut_corpus):
    for n, oracle in cut_corpus(count=40, n_range=(3, 12), seed=100):
        opt = brute_force_opt(oracle).value
        assert det_double_greedy(oracle).value >= opt / 3 - 1e-9


def test_sweep_query_budget(cut_corpus):
    for n, oracle in cut_corpus(count=5, seed=55):
        t = tabulate(oracle)
        det_double_greedy(t)
        assert t.queries == 2 * n + 2 <= 4 * n + 2
        for trials in (1, 7, 300):
            t3 = tabulate(oracle)
            rand_double_greedy_stats(t3, trials, seed=n)
            assert t3.queries == trials * (2 * n + 2)


def test_rand_double_greedy_forced_choices(single_edge_oracle):
    # element 1 is forced yes (only alpha positive), element 2 forced no
    for seed in range(25):
        res = rand_double_greedy_stats(single_edge_oracle, 1, seed)
        assert res.chosen == mask_of([1])
        assert res.value == 1.0


def test_rand_double_greedy_tie_is_fair_coin():
    # bidirected pair: alpha = beta = 0.5 for element 1
    oracle = tabulate(normalize(DirectedGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))))
    hits = sum(rand_double_greedy_stats(oracle, 1, seed).chosen & 1 for seed in range(2000))
    assert abs(hits / 2000 - 0.5) < 0.06  # ~5 sigma


def test_rand_double_greedy_zero_marginals_choose_yes(constant_oracle):
    res = rand_double_greedy_stats(constant_oracle(4, 0.0), 1, 1)
    assert res.chosen == (1 << 4) - 1


def test_rand_double_greedy_stats_reproducible(cut_corpus):
    (n, oracle), = cut_corpus(count=1, n_range=(6, 6), seed=71)
    a = rand_double_greedy_stats(tabulate(oracle), trials=200, seed=5)
    b = rand_double_greedy_stats(tabulate(oracle), trials=200, seed=5)
    assert (a.chosen, a.value, a.mean, a.std, a.trials) == (b.chosen, b.value, b.mean, b.std, b.trials)
    c = rand_double_greedy_stats(tabulate(oracle), trials=200, seed=6)
    assert (a.mean, a.std) != (c.mean, c.std)


def test_rand_double_greedy_stats_half_of_opt(cut_corpus):
    (n, oracle), = cut_corpus(count=1, n_range=(8, 8), seed=19)
    t = tabulate(oracle)
    opt = brute_force_opt(t).value
    stats = rand_double_greedy_stats(t, trials=3000, seed=0)
    stderr = stats.std / np.sqrt(stats.trials)
    assert stats.mean >= opt / 2 - 3 * stderr


def test_rand_double_greedy_stats_validates_trials(single_edge_oracle):
    with pytest.raises(ConfigError):
        rand_double_greedy_stats(single_edge_oracle, trials=0, seed=0)


def test_uniform_random_value_single_edge(single_edge_oracle):
    # four subsets, exactly one cuts the edge: the 1/4 ladder rung is tight
    assert uniform_random_value(single_edge_oracle) == 0.25
    assert uniform_random_value(single_edge_oracle) == brute_force_opt(single_edge_oracle).value / 4


def test_uniform_random_value_constant(constant_oracle):
    assert uniform_random_value(constant_oracle(6, 0.37)) == pytest.approx(0.37)


def test_uniform_random_value_quarter_of_opt(cut_corpus):
    for n, oracle in cut_corpus(count=25, n_range=(3, 12), seed=23):
        opt = brute_force_opt(oracle).value
        assert uniform_random_value(oracle) >= opt / 4 - 1e-9


# --- the walk against the scalar sweep it replaced ---------------------------

_weights = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
# a subnormal mixing weight rounds its part to multiples of 2^-1074, which
# can take the mixture off submodularity
_mixing_weights = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False))


def _dyadic_cut(draw, n):
    """Cut of a unit-weight digraph times 2^-p, with 2^p at least its edge
    count: every value and every marginal is exact, so marginals tie exactly."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    g = DirectedGraph(n, tuple((u, v, 1.0) for u, v in picked))
    return _cut_table(g, 2.0 ** -max(len(picked) - 1, 0).bit_length())


def _subset_bits(n):
    masks = np.arange(1 << n)
    return (masks[:, None] >> np.arange(n)) & 1


def _concave_of_count(draw, n):
    """sqrt or min(c, .) of a nonnegative weighted count, unscaled."""
    w = np.array(draw(st.lists(_weights, min_size=n, max_size=n)))
    counts = _subset_bits(n) @ w
    if draw(st.booleans()):
        return np.sqrt(counts)
    return np.minimum(draw(st.floats(0.0, float(n))), counts)


def _coverage(draw, n):
    """Weight of the union of the items each element covers, unscaled."""
    items = draw(st.integers(1, 12))
    covers = np.array(draw(st.lists(st.lists(st.booleans(), min_size=items, max_size=items),
                                    min_size=n, max_size=n)))
    w = np.array(draw(st.lists(_weights, min_size=items, max_size=items)))
    covered = (_subset_bits(n) @ covers) > 0
    return covered.astype(float) @ w


def _cut(draw, n, bidirected=False):
    """Normalized cut table of a random digraph, or of bidirected pairs."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and (not bidirected or u < v)]
    picked = draw(st.lists(st.tuples(st.sampled_from(pairs), _weights), max_size=3 * n)) if pairs else []
    edges = [(u, v, w) for (u, v), w in picked]
    if bidirected:
        edges += [(v, u, w) for u, v, w in edges]
    g = DirectedGraph(n, tuple(edges))
    # a subnormal total weight (one edge of 5e-324) has no finite scale,
    # and normalize rejects it
    assume(g.total_weight == 0.0 or math.isfinite(1.0 / g.total_weight))
    return np.clip(value_table(normalize(g)), 0.0, 1.0)


def _mixture(draw, n):
    """Nonnegative mixture of a cut, a concave and a coverage function, unscaled."""
    parts = (_cut(draw, n), _concave_of_count(draw, n), _coverage(draw, n))
    return sum(w * part for w, part in zip(draw(st.lists(_mixing_weights, min_size=3, max_size=3)), parts))


@st.composite
def value_tables(draw, n=None):
    """Value tables in [0, 1] of nonnegative submodular functions, on
    ``n`` elements when it is given.

    Cut tables of random digraphs and of bidirected pairs, constant
    tables, dyadic cut tables whose marginals tie exactly, two families
    that are not cuts (a concave function of a weighted count, a
    coverage function), and nonnegative mixtures of a cut, a concave
    and a coverage function on one ground set.  The last three are
    scaled by their maximum when it is a normal float (scaling by a
    subnormal one would magnify the rounding of its entries into
    violations) and confirmed by ``verify_submodularity``.
    Any draw may turn some of its zero entries into -0.0.
    """
    kinds = ["cut", "bidirected", "constant", "dyadic", "concave", "coverage", "mixture"]
    if n == 1:
        kinds = [k for k in kinds if k not in ("bidirected", "dyadic")]
    kind = draw(st.sampled_from(kinds))
    if n is None:
        n = draw(st.integers(2 if kind in ("bidirected", "dyadic") else 1, 10))
    if kind == "constant":
        table = np.full(1 << n, draw(_weights))
    elif kind == "dyadic":
        table = _dyadic_cut(draw, n)
    elif kind in ("cut", "bidirected"):
        table = _cut(draw, n, bidirected=kind == "bidirected")
    else:
        values = {"concave": _concave_of_count, "coverage": _coverage, "mixture": _mixture}[kind](draw, n)
        top = values.max()
        table = values / top if top >= np.finfo(float).smallest_normal else values
        assert verify_submodularity(oracle_from_table(table)) is None
    if draw(st.booleans()):
        flip = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(table.size) < 0.5
        table = np.where((table == 0.0) & flip, -0.0, table)
    return table


def _coins(n, rows):
    unit = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True))
    return st.lists(st.lists(unit, min_size=n, max_size=n), min_size=rows, max_size=rows)


@settings(max_examples=200, deadline=None)
@given(value_tables())
def test_det_walk_is_the_scalar_sweep(table):
    walked, scalar = oracle_from_table(table), oracle_from_table(table)
    res = det_double_greedy(walked)
    want_set, want_value = reference_sweep(scalar, lambda a, b: a >= b)
    assert res.chosen == want_set and type(res.chosen) is int
    assert same_bits(res.value, want_value)
    assert walked.queries == scalar.queries
    if np.all(table == table[0]):  # both marginals zero at every element: yes each time
        assert res.chosen == table.size - 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rand_walk_is_the_scalar_sweep_on_any_coins(data):
    table = data.draw(value_tables())
    n = int(table.size).bit_length() - 1
    coins = np.array(data.draw(_coins(n, data.draw(st.integers(1, 6)))), dtype=float).reshape(-1, n)
    walked, scalar = oracle_from_table(table), oracle_from_table(table)
    x, fx = _sweep(walked, len(coins), _yes_probability, lambda k: coins)
    want = [reference_rand_sweep(scalar, row) for row in coins]
    assert x.tolist() == [s for s, _ in want]
    assert all(same_bits(v, w) for v, (_, w) in zip(fx.tolist(), want))
    assert walked.queries == scalar.queries == len(coins) * (2 * n + 2)
    if np.all(table == table[0]):
        assert x.tolist() == [table.size - 1] * len(coins)


@settings(max_examples=100, deadline=None)
@given(value_tables(), st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_rand_and_stats_are_the_scalar_sweeps(table, seed, trials):
    n = int(table.size).bit_length() - 1
    walked = oracle_from_table(table)
    res = rand_double_greedy_stats(walked, 1, seed)
    scalar = oracle_from_table(table)
    coins = np.random.default_rng(np.random.SeedSequence([seed])).random(n)
    want_set, want_value = reference_rand_sweep(scalar, coins)
    assert res.chosen == want_set and same_bits(res.value, want_value)

    stats = rand_double_greedy_stats(walked, trials, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    runs = [reference_rand_sweep(scalar, rng.random(n)) for _ in range(trials)]
    values = np.array([v for _, v in runs])
    best_set, best_value = 0, -np.inf
    for s, v in runs:
        if v > best_value:
            best_set, best_value = s, v
    assert stats.chosen == best_set and same_bits(stats.value, best_value)
    assert same_bits(stats.mean, values.mean())
    assert same_bits(stats.std, values.std(ddof=1) if trials > 1 else 0.0)
    assert walked.queries == scalar.queries


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_marginals_are_the_scalar_walks(data):
    # every node 2^i | X of every level, both as the level's slices and as
    # a gather at the prefixes; the last level's pair is (f(Y) - f(X), f(X) - f(Y))
    table = data.draw(value_tables(data.draw(st.integers(1, 8))))
    n = int(table.size).bit_length() - 1
    values, full = table.tolist(), table.size - 1
    for i in range(n):
        bit = 1 << i
        prefixes = np.arange(bit, dtype=np.int64)
        want = [(values[x | bit] - values[x], values[y & ~bit] - values[y])
                for x, y in ((x, x | (full & ~(bit - 1))) for x in range(bit))]
        for alpha, beta in (_marginals(table, i), _marginals(table, i, prefixes)):
            assert len(alpha) == len(beta) == bit
            assert all(same_bits(a, wa) and same_bits(b, wb)
                       for a, b, (wa, wb) in zip(alpha.tolist(), beta.tolist(), want))
    alpha, beta = _marginals(table, n - 1, np.array([0]))
    f_x, f_y = values[0], values[1 << (n - 1)]
    assert same_bits(alpha[0], f_y - f_x) and same_bits(beta[0], f_x - f_y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stats_on_node_and_gathered_levels_are_the_scalar_loop(data):
    # 2^(n-1) - 1 sweeps gather the last level, 2^(n-1) and more read
    # every level from its node table, one sweep gathers all but level 0
    table = data.draw(value_tables(data.draw(st.integers(2, 8))))
    n = int(table.size).bit_length() - 1
    trials = data.draw(st.sampled_from([1, (1 << (n - 1)) - 1, 1 << (n - 1), (1 << n) + 1]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    walked, scalar = oracle_from_table(table), oracle_from_table(table)
    got = rand_double_greedy_stats(walked, trials, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    runs = [reference_rand_sweep(scalar, rng.random(n)) for _ in range(trials)]
    values = np.array([v for _, v in runs])
    best = max(range(trials), key=lambda k: (runs[k][1], -k))
    assert got.chosen == runs[best][0] and same_bits(got.value, runs[best][1])
    assert same_bits(got.mean, values.mean())
    assert same_bits(got.std, values.std(ddof=1) if trials > 1 else 0.0)
    assert walked.queries == scalar.queries == trials * (2 * n + 2)


def test_bidirected_pair_tie_chooses_yes():
    # alpha == beta == 0.5 for element 1, and then element 2 is forced no
    oracle = tabulate(normalize(DirectedGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))))
    assert det_double_greedy(oracle).chosen == mask_of([1])


_TINY = 5e-324
_SUBNORMAL = 2.2250738585072014e-308 / 3


@pytest.mark.parametrize("a, b", [
    (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (-0.5, -0.25), (-0.0, 0.5), (0.5, -0.0),
    (0.25, -0.25), (-0.25, 0.25), (1.0, -1.0), (_TINY, -_TINY), (-_TINY, _TINY),
    (_TINY, _TINY), (_TINY, 0.0), (0.0, _TINY), (_TINY, 1.0), (1.0, _TINY), (_SUBNORMAL, _TINY),
    (_SUBNORMAL, 1e-310), (0.3, 0.7), (0.5, 0.5), (math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan),
    (math.nan, -0.5),
])
def test_coin_rule_is_the_scalar_rule(a, b):
    coins = np.array([0.0, _TINY, 1e-300, 0.3, 0.5, np.nextafter(0.5, 1.0), 0.7, np.nextafter(1.0, 0.0)])
    k = coins.size
    # the sweep runs its rules inside this errstate: both positive parts
    # zero make the rule divide 0 by 0; a coin decides as it does in the sweep
    with np.errstate(invalid="ignore"):
        yes = ~(coins >= _yes_probability(np.full(k, a), np.full(k, b)))
    assert yes.dtype == bool
    assert yes.tolist() == [reference_coin_rule(a, b, c) for c in coins.tolist()]


# --- properties of the online round and the offline ladder on every family ----

def _recording_oracle(table):
    """Function-backed oracle over ``table`` that lists every counted mask."""
    asked = []
    values = table.tolist()

    def fn(m):
        asked.append(m)
        return values[m]

    return SubmodularOracle(table.size.bit_length() - 1, fn), asked


@settings(max_examples=150, deadline=None)
@given(value_tables(), st.data())
def test_online_round_on_every_family(table, data):
    n = table.size.bit_length() - 1
    horizon = data.draw(st.integers(1, 400))
    s = math.sqrt(horizon)
    states = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    coins = data.draw(_coins(n, 1))[0]
    f, asked = _recording_oracle(table)
    subroutines = [Balancer(horizon) for _ in states]
    for b, p in zip(subroutines, states):
        b.p = p
    # each subroutine's yes-probability, read from its state before it decides
    ps = [b.p for b in subroutines]
    tr = RoundRecord(*run_round(subroutines, f, coins))
    assert all(_in_triangle(a, b) for a, b in tr.points)
    assert len(asked) == len(set(asked)) == f.queries == 2 * n
    opt = brute_force_opt(oracle_from_table(table)).chosen
    for reference in (opt, data.draw(st.integers(0, table.size - 1))):
        assert opt_tracking_check(tr, f, reference) is None
    for p, pt in zip(ps, tr.points):
        d_alg, d_yes, d_no = step_invariant_deltas(p, pt, horizon)
        assert d_alg - max(d_yes, d_no) + 2.0 / s >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_whole_game_on_cycled_tables(data):
    # every round of a game over 2-4 cycled tables: exactly 2n counted
    # queries, marginals inside the triangle, the replay relations against
    # the best fixed set and an arbitrary one, and no negative slack in the
    # potential certificate at any reached state
    n = data.draw(st.integers(1, 6))
    tables = data.draw(st.lists(value_tables(n), min_size=2, max_size=4))
    rounds = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 2**32 - 1))
    oracles = [oracle_from_table(t) for t in tables]
    subroutines = [Balancer(rounds) for _ in range(n)]
    streams = [np.random.default_rng([seed, i]) for i in range(n)]
    adversary = CountingCycle(oracles)
    res = run_usm_game(subroutines, adversary, rounds, streams, keep_transcripts=True)
    assert adversary.round_queries() == [2 * n] * rounds
    assert sum(f.queries for f in oracles) == 2 * n * rounds
    other = data.draw(st.integers(0, (1 << n) - 1))
    s = math.sqrt(rounds)
    # a twin of each subroutine, fed the same points, gives the state each
    # round decided from
    twins = [Balancer(rounds) for _ in range(n)]
    assert res.oracles == [oracles[t % len(oracles)] for t in range(rounds)]
    for opt in (res.opt_set, other):
        assert _replay(res.oracles, res.chosen_sets, res.points, opt)[0] == 0
    for points in res.points.tolist():
        assert all(_in_triangle(a, b) for a, b in points)
        for twin, pt in zip(twins, map(tuple, points)):
            d_alg, d_yes, d_no = step_invariant_deltas(twin.p, pt, rounds)
            assert d_alg - max(d_yes, d_no) + 2.0 / s >= 0.0
            twin.update(pt)
    assert [twin.p for twin in twins] == [sub.p for sub in subroutines]


def exact_rand_sweep_value(table):
    """Exact expected value of the randomized sweep: both choices of every
    element, weighted by their probabilities, over all 2^n paths."""
    n = table.size.bit_length() - 1
    full = table.size - 1
    x = np.zeros(1, dtype=np.int64)
    weight = np.ones(1)
    for i in range(n):
        bit = 1 << i
        y = x | (full & ~(bit - 1))
        ap = np.maximum(table[x | bit] - table[x], 0.0)
        bp = np.maximum(table[y & ~bit] - table[y], 0.0)
        total = ap + bp
        # as the scalar rule: yes for sure when both positive parts are zero
        p = np.where(total > 0.0, ap / np.where(total > 0.0, total, 1.0), 1.0)
        x = np.concatenate((x | bit, x))
        weight = np.concatenate((weight * p, weight * (1.0 - p)))
    return float(weight @ table[x])


def test_exact_rand_sweep_value_on_small_instances(single_edge_oracle):
    # one edge: every choice is forced, onto the optimum {1}
    assert exact_rand_sweep_value(value_table(single_edge_oracle)) == 1.0
    # bidirected pair: element 1 is a fair coin, then element 2 is forced
    # to the other side, so each path ends at a value of 1/2
    pair = normalize(DirectedGraph(2, ((1, 2, 1.0), (2, 1, 1.0))))
    assert exact_rand_sweep_value(value_table(pair)) == 0.5


@settings(max_examples=150, deadline=None)
@given(value_tables())
def test_offline_ladder_holds_exactly(table):
    f = oracle_from_table(table)
    opt = brute_force_opt(f).value
    expected = exact_rand_sweep_value(table)
    assert opt / 2 - VALUE_TOL <= expected <= opt + VALUE_TOL
    assert det_double_greedy(f).value >= opt / 3 - VALUE_TOL
    assert uniform_random_value(f) >= opt / 4 - VALUE_TOL
