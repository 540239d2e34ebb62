import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onlineusm.errors import ConfigError, SizeError
from onlineusm.offline import (
    _coin_rule,
    _walk,
    brute_force_opt,
    det_double_greedy,
    rand_double_greedy,
    rand_double_greedy_stats,
    uniform_random_value,
)
from onlineusm.submodular import (
    DirectedGraph,
    GroundSet,
    SubmodularOracle,
    full_mask,
    mask_of,
    normalize,
    oracle_from_table,
    tabulate,
    value_table,
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
        brute_force_opt(SubmodularOracle(GroundSet(21), lambda m: 0.0))


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
        t2 = tabulate(oracle)
        rand_double_greedy(t2, np.random.default_rng(0))
        assert t2.queries == 2 * n + 2
        for trials in (1, 7, 300):
            t3 = tabulate(oracle)
            rand_double_greedy_stats(t3, trials, seed=n)
            assert t3.queries == trials * (2 * n + 2)


def test_rand_double_greedy_forced_choices(single_edge_oracle):
    # element 1 is forced yes (only alpha positive), element 2 forced no
    for seed in range(25):
        res = rand_double_greedy(single_edge_oracle, np.random.default_rng(seed))
        assert res.chosen == mask_of([1])
        assert res.value == 1.0


def test_rand_double_greedy_tie_is_fair_coin():
    # bidirected pair: alpha = beta = 0.5 for element 1
    oracle = tabulate(normalize(DirectedGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))))
    rng = np.random.default_rng(7)
    hits = sum(rand_double_greedy(oracle, rng).chosen & 1 for _ in range(2000))
    assert abs(hits / 2000 - 0.5) < 0.06  # ~5 sigma


def test_rand_double_greedy_zero_marginals_choose_yes(constant_oracle):
    res = rand_double_greedy(constant_oracle(4, 0.0), np.random.default_rng(1))
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
    # four subsets, exactly one cuts the edge
    assert uniform_random_value(single_edge_oracle) == pytest.approx(0.25)
    assert uniform_random_value(single_edge_oracle) == pytest.approx(
        brute_force_opt(single_edge_oracle).value / 4
    )


def test_uniform_random_value_constant(constant_oracle):
    assert uniform_random_value(constant_oracle(6, 0.37)) == pytest.approx(0.37)


def test_uniform_random_value_quarter_of_opt(cut_corpus):
    for n, oracle in cut_corpus(count=25, n_range=(3, 12), seed=23):
        opt = brute_force_opt(oracle).value
        assert uniform_random_value(oracle) >= opt / 4 - 1e-9


# --- the walk against the scalar sweep it replaced ---------------------------

def reference_sweep(f, choose_yes):
    n = f.ground.n
    evaluate = f.evaluate
    x = 0
    y = full_mask(n)
    fx = evaluate(x)
    fy = evaluate(y)
    for i in range(n):
        bit = 1 << i
        fx_add = evaluate(x | bit)
        fy_del = evaluate(y & ~bit)
        alpha = fx_add - fx
        beta = fy_del - fy
        if choose_yes(alpha, beta):
            x |= bit
            fx = fx_add
        else:
            y &= ~bit
            fy = fy_del
    return x, fx


def reference_rand_sweep(f, coins):
    coin = iter(coins.tolist()).__next__

    def choose(a: float, b: float) -> bool:
        ap = a if a > 0.0 else 0.0
        bp = b if b > 0.0 else 0.0
        p = 1.0 if ap + bp <= 0.0 else ap / (ap + bp)
        return coin() < p

    return reference_sweep(f, choose)


def same_bits(a, b) -> bool:
    return float(a).hex() == float(b).hex()


_weights = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def value_tables(draw):
    """Cut tables of random digraphs, of bidirected pairs, and constant tables."""
    kind = draw(st.sampled_from(["cut", "bidirected", "constant"]))
    if kind == "constant":
        return np.full(1 << draw(st.integers(1, 10)), draw(_weights))
    n = draw(st.integers(2 if kind == "bidirected" else 1, 10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and (kind == "cut" or u < v)]
    picked = draw(st.lists(st.tuples(st.sampled_from(pairs), _weights), max_size=3 * n)) if pairs else []
    edges = [(u, v, w) for (u, v), w in picked]
    if kind == "bidirected":
        edges += [(v, u, w) for u, v, w in edges]
    g = DirectedGraph(n, tuple(edges))
    # a subnormal total weight (one edge of 5e-324) has no finite scale,
    # and normalize rejects it
    assume(g.total_weight == 0.0 or math.isfinite(1.0 / g.total_weight))
    return np.clip(value_table(normalize(g)), 0.0, 1.0)


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
    x, fx = _walk(walked, len(coins), _coin_rule(coins))
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
    res = rand_double_greedy(walked, np.random.default_rng(seed))
    scalar = oracle_from_table(table)
    want_set, want_value = reference_rand_sweep(scalar, np.random.default_rng(seed).random(n))
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


def test_bidirected_pair_tie_chooses_yes():
    # alpha == beta == 0.5 for element 1, and then element 2 is forced no
    oracle = tabulate(normalize(DirectedGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))))
    assert det_double_greedy(oracle).chosen == mask_of([1])
