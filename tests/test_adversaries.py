import numpy as np
import pytest

from onlineusm.adversaries import (
    AdaptiveBalanceAdversary,
    AdaptiveCutAdversary,
    CycleFunctionAdversary,
    ObliviousBalanceAdversary,
    RandomObliviousAdversary,
)
from onlineusm.balance import LEFT, RIGHT, UP, Balancer, ConstantPolicy
from onlineusm.errors import ConfigError
from onlineusm.harness import build_balance_adversary, run_balance_game
from onlineusm.submodular import value_table, verify_submodularity

from references import BUILTIN_COVARIANCE_RULES, covariance_estimate


def _pattern_points(pattern, rounds):
    adv = ObliviousBalanceAdversary.from_pattern(pattern)
    return [adv.next_point(None) for _ in range(rounds)]


def test_pattern_sequence_constant():
    assert ObliviousBalanceAdversary.from_pattern("U").points == (UP,)
    assert _pattern_points("U", 3) == [UP, UP, UP]


def test_pattern_sequence_cycles():
    assert ObliviousBalanceAdversary.from_pattern("RL").points == (RIGHT, LEFT)
    assert _pattern_points("RL", 4) == [RIGHT, LEFT, RIGHT, LEFT]


def test_pattern_url_ledger_against_always_yes():
    adv = ObliviousBalanceAdversary.from_pattern("URL")
    led = run_balance_game(ConstantPolicy(1.0), adv, 3, np.random.default_rng(0)).ledger
    assert led.c_no == pytest.approx(1.0)  # +1 - 1 + 1


def test_pattern_rejects_bad_input():
    with pytest.raises(ConfigError, match="pattern must be nonempty"):
        ObliviousBalanceAdversary.from_pattern("")
    with pytest.raises(ConfigError, match="unknown pattern symbol 'X'; expected U, R, or L"):
        ObliviousBalanceAdversary.from_pattern("URX")
    for bad in ("q", "", "URX"):
        with pytest.raises(ConfigError):
            ObliviousBalanceAdversary.from_pattern(bad)


def test_points_are_exactly_in_triangle():
    adv = ObliviousBalanceAdversary.from_pattern("URL")
    for _ in range(9):
        assert adv.next_point(None) in (UP, RIGHT, LEFT)
    rule = AdaptiveBalanceAdversary("punish-last")
    assert rule.next_point(None) in (UP, RIGHT, LEFT)
    assert rule.next_point(True) in (UP, RIGHT, LEFT)


def test_adaptive_punish_last():
    adv = AdaptiveBalanceAdversary("punish-last")
    assert adv.next_point(None) == UP  # declared default first move
    assert adv.next_point(True) == LEFT
    assert adv.next_point(False) == RIGHT
    # each point depends on the last decision only
    assert [adv.next_point(True) for _ in range(2)] == [LEFT, LEFT]


def test_adaptive_reward_chase():
    adv = AdaptiveBalanceAdversary("reward-chase")
    assert adv.next_point(None) == UP
    assert adv.next_point(False) == LEFT
    assert adv.next_point(True) == RIGHT


@pytest.mark.parametrize("rule, after_no, after_yes", [
    ("punish-last", RIGHT, LEFT),
    ("reward-chase", LEFT, RIGHT),
])
def test_adaptive_rules_read_a_no_as_a_decision(rule, after_no, after_yes):
    # a decision is a plain bool: False is a no, and only None means no history
    adv = AdaptiveBalanceAdversary(rule)
    assert [adv.next_point(d) for d in (None, False, True, False)] == [UP, after_no, after_yes, after_no]
    # in a game, round 2's point answers round 1's action, a no included
    for policy, after in ((0.0, after_no), (1.0, after_yes)):
        spy = PointSpy(AdaptiveBalanceAdversary(rule))
        run_balance_game(ConstantPolicy(policy), spy, 3, np.random.default_rng(0))
        assert spy.points == [UP, after, after]


def test_unknown_adaptive_rule():
    with pytest.raises(ConfigError):
        AdaptiveBalanceAdversary("exploit")


class PointSpy:
    """Records every point the wrapped balance adversary emits."""

    def __init__(self, adversary):
        self.adversary = adversary
        self.points = []

    def next_point(self, last_decision=None):
        pt = self.adversary.next_point(last_decision)
        self.points.append(pt)
        return pt


#: every pattern symbol and adaptive rule, with the points each emits
_EMITTED = {
    "pattern:U": {UP},
    "pattern:R": {RIGHT},
    "pattern:L": {LEFT},
    "adaptive:punish-last": {UP, RIGHT, LEFT},
    "adaptive:reward-chase": {UP, RIGHT, LEFT},
}


@pytest.mark.parametrize("descriptor", list(_EMITTED))
def test_balance_adversaries_hand_out_plain_pairs_the_game_feeds_as_is(descriptor):
    # a point is a plain (alpha, beta) tuple of two floats, and the game
    # feeds its subroutine the very object the adversary handed out
    fed = []

    class Recording(Balancer):
        def update(self, pt):
            fed.append(pt)
            super().update(pt)

    rounds = 40
    spy = PointSpy(build_balance_adversary(descriptor))
    run_balance_game(Recording(rounds), spy, rounds, np.random.default_rng(1))
    assert len(fed) == rounds and all(a is b for a, b in zip(fed, spy.points))
    assert all(type(pt) is tuple and [type(v) for v in pt] == [float, float] for pt in spy.points)
    assert set(spy.points) == _EMITTED[descriptor]


def test_oblivious_sequence_independent_of_algorithm_seed():
    def points_with(seed):
        spy = PointSpy(ObliviousBalanceAdversary.from_pattern("URRL"))
        run_balance_game(Balancer(64), spy, 64, np.random.default_rng(seed))
        return spy.points

    assert points_with(1) == points_with(999)


# --- covariance experiment ------------------------------------------------

def test_covariance_copy_rule_is_degenerate_zero():
    # p2 equals the realized X1, so X2 - p2 is identically zero
    est = covariance_estimate("copy", samples=100_000, seed=3)
    assert est == pytest.approx(0.0, abs=1e-15)


def test_covariance_builtin_rules_near_zero():
    n = 100_000
    bound = 4 / np.sqrt(n)
    for name in BUILTIN_COVARIANCE_RULES:
        est = covariance_estimate(name, samples=n, seed=11)
        assert abs(est) <= bound, name


def test_covariance_degenerate_first_coin_exact_zero():
    est = covariance_estimate("follow", samples=10_000, seed=0, p1=0.0)
    assert est == 0.0


def test_covariance_custom_rule_and_validation():
    est = covariance_estimate(lambda x1: 0.3, samples=50_000, seed=2)
    assert abs(est) <= 4 / np.sqrt(50_000)
    with pytest.raises(ConfigError):
        covariance_estimate("copy", samples=999, seed=0)
    with pytest.raises(ConfigError):
        covariance_estimate(lambda x1: 1.4, samples=2000, seed=0)
    with pytest.raises(ConfigError):
        covariance_estimate("copy", samples=2000, seed=0, p1=1.5)


def test_covariance_unknown_rule_name_lists_the_builtin_rules():
    with pytest.raises(ConfigError, match="'nope'") as exc:
        covariance_estimate("nope", samples=1000, seed=1)
    for name in BUILTIN_COVARIANCE_RULES:
        assert name in str(exc.value)


# --- function adversaries ---------------------------------------------------

def test_fixed_and_cycle_function_adversaries(single_edge_oracle):
    fixed = CycleFunctionAdversary([single_edge_oracle])
    assert fixed.next_oracle(None) is single_edge_oracle
    assert fixed.next_oracle(0b01) is single_edge_oracle

    a, b = single_edge_oracle, single_edge_oracle
    cyc = CycleFunctionAdversary([a, b])
    got = [cyc.next_oracle(None) for _ in range(4)]
    assert got == [a, b, a, b]
    with pytest.raises(ConfigError):
        CycleFunctionAdversary([])


def test_random_oblivious_deterministic_and_ignores_history():
    a = RandomObliviousAdversary(5, 0.6, (0.0, 1.0), seed=4)
    b = RandomObliviousAdversary(5, 0.6, (0.0, 1.0), seed=4)
    for k in range(6):
        fa = a.next_oracle(k)  # history argument must not matter
        fb = b.next_oracle(None)
        assert np.array_equal(value_table(fa), value_table(fb))


def test_adaptive_cut_adversary_punishes_last_set():
    adv = AdaptiveCutAdversary(6)
    first = adv.next_oracle(None)
    assert verify_submodularity(first) is None
    for last in (0b000111, 0b101010, 0b000001):
        f = adv.next_oracle(last)
        assert verify_submodularity(f) is None
        assert f.peek(last) == 0.0  # the punished set is worthless now
        assert value_table(f).max() > 0.0
        # the cut of the complete bipartite digraph from the complement into
        # the last set: f(S) = |S minus last| * |last minus S|, normalized
        outside = [bin(s & ~last).count("1") for s in range(1 << 6)]
        inside = [bin(last & ~s).count("1") for s in range(1 << 6)]
        size = bin(last).count("1")
        want = np.multiply(outside, inside) / ((6 - size) * size)
        assert np.allclose(value_table(f), want, rtol=0.0, atol=1e-12)


def test_adaptive_cut_adversary_edge_cases():
    adv = AdaptiveCutAdversary(4)
    for last in (0, 0b1111):
        f = adv.next_oracle(last)  # degenerate sets fall back to the half split
        assert value_table(f).max() > 0.0
    with pytest.raises(ConfigError):
        AdaptiveCutAdversary(6, rule="unknown")
    with pytest.raises(ConfigError):
        AdaptiveCutAdversary(1)
