"""Input-sequence generators for both games, oblivious and adaptive.

Balance adversaries emit points from the up/right/left triangle; the
oblivious kinds fix their whole sequence up front, the adaptive kinds
compute each point as a deterministic function of the decisions they
have seen so far (strictly past rounds).  Function adversaries emit one
submodular oracle per round under the same oblivious/adaptive split.

``covariance_estimate`` measures the two-step coin experiment: even
when the second coin's bias is picked after seeing the first outcome,
the centered outcomes are uncorrelated.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .balance import LEFT, RIGHT, UP, BalancePoint, Decision
from .errors import ConfigError
from .submodular import DirectedGraph, SubmodularOracle, normalize, random_digraph

_PATTERN_POINTS = {"U": UP, "R": RIGHT, "L": LEFT}


def extremal_pattern_sequence(pattern: str, rounds: int) -> list[BalancePoint]:
    """Cycle a string over {U, R, L} into ``rounds`` extremal points."""
    if not pattern:
        raise ConfigError("pattern must be nonempty")
    for ch in pattern:
        if ch not in _PATTERN_POINTS:
            raise ConfigError(f"unknown pattern symbol {ch!r}; expected U, R, or L")
    return [_PATTERN_POINTS[pattern[t % len(pattern)]] for t in range(rounds)]


class ObliviousBalanceAdversary:
    """Fixed point sequence, repeated cyclically; ignores decisions."""

    def __init__(self, points: Sequence[BalancePoint]):
        if not points:
            raise ConfigError("oblivious adversary needs at least one point")
        self.points = tuple(points)
        self._pos = 0

    @classmethod
    def from_pattern(cls, pattern: str) -> "ObliviousBalanceAdversary":
        return cls(extremal_pattern_sequence(pattern, len(pattern)))

    def next_point(self, last_decision: Decision | None = None) -> BalancePoint:
        pt = self.points[self._pos % len(self.points)]
        self._pos += 1
        return pt


ADAPTIVE_BALANCE_RULES = ("punish-last", "reward-chase")


class AdaptiveBalanceAdversary:
    """Point t is a fixed function of the decisions from rounds < t.

    punish-last: left after a yes, right after a no (the revealed point
    devalues whichever action was just taken).  reward-chase: the
    opposite.  The first move, with no history, is up: the one extremal
    point with no directional pull.
    """

    def __init__(self, rule: str):
        if rule not in ADAPTIVE_BALANCE_RULES:
            raise ConfigError(f"unknown adaptive rule {rule!r}; expected one of {ADAPTIVE_BALANCE_RULES}")
        self.rule = rule

    def next_point(self, last_decision: Decision | None = None) -> BalancePoint:
        if last_decision is None:
            return UP
        if self.rule == "punish-last":
            return LEFT if last_decision.chose_yes else RIGHT
        return RIGHT if last_decision.chose_yes else LEFT


# --- two-step covariance experiment -------------------------------------

#: built-in rules mapping the first coin's outcome to the second coin's bias
BUILTIN_COVARIANCE_RULES: dict[str, Callable[[int], float]] = {
    "copy": lambda x1: float(x1),
    "follow": lambda x1: 0.8 if x1 else 0.2,
    "oppose": lambda x1: 0.2 if x1 else 0.8,
    "constant-half": lambda x1: 0.5,
}


def covariance_estimate(
    rule: str | Callable[[int], float],
    samples: int,
    seed: int,
    p1: float = 0.5,
) -> float:
    """Sample covariance of (X1 - p1, X2 - p2) over two-coin episodes.

    Per episode: X1 ~ Bernoulli(p1); the rule inspects X1 and fixes p2;
    X2 ~ Bernoulli(p2).  The true covariance is zero regardless of the
    rule, so estimates concentrate within a few multiples of
    1/sqrt(samples).
    """
    if samples < 1000:
        raise ConfigError(f"need at least 1000 samples for a meaningful estimate, got {samples}")
    if not 0.0 <= p1 <= 1.0:
        raise ConfigError(f"p1 must be in [0, 1], got {p1}")
    fn = BUILTIN_COVARIANCE_RULES.get(rule) if isinstance(rule, str) else rule
    if fn is None:
        raise ConfigError(f"unknown covariance rule {rule!r}; expected one of {list(BUILTIN_COVARIANCE_RULES)}")
    p2_of = (float(fn(0)), float(fn(1)))
    if not (0.0 <= p2_of[0] <= 1.0 and 0.0 <= p2_of[1] <= 1.0):
        raise ConfigError(f"rule produced probabilities outside [0, 1]: {p2_of}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    x1 = rng.random(samples) < p1
    p2 = np.where(x1, p2_of[1], p2_of[0])
    x2 = rng.random(samples) < p2
    u = x1.astype(float) - p1
    v = x2.astype(float) - p2
    return float(np.mean(u * v) - u.mean() * v.mean())


# --- function adversaries for the online game ---------------------------

class CycleFunctionAdversary:
    """Cycle deterministically through a fixed list of oracles; a fixed
    function is a cycle of length one."""

    def __init__(self, oracles: Sequence[SubmodularOracle]):
        if not oracles:
            raise ConfigError("cycle adversary needs at least one oracle")
        self.oracles = tuple(oracles)
        self._pos = 0

    def next_oracle(self, last_set: int | None = None) -> SubmodularOracle:
        f = self.oracles[self._pos % len(self.oracles)]
        self._pos += 1
        return f


class RandomObliviousAdversary:
    """A fresh random-digraph cut function each round, seeded up front."""

    def __init__(self, n: int, density: float, weight_range: tuple[float, float], seed: int):
        self.n = n
        self.density = density
        self.weight_range = weight_range
        self._rng = np.random.default_rng(np.random.SeedSequence([seed]))

    def next_oracle(self, last_set: int | None = None) -> SubmodularOracle:
        return normalize(random_digraph(self.n, self.density, self.weight_range, self._rng))


ADAPTIVE_USM_RULES = ("punish-last-set",)


class AdaptiveCutAdversary:
    """Cut functions aimed at the algorithm's previous choice.

    punish-last-set: emit the cut function of the complete bipartite
    digraph from the complement of the last chosen set into it, which
    values that exact set at zero.  Before any history (or when the last
    set was empty or full, leaving no edges) the emitted function is the
    cut of the half-split digraph {1..n/2} -> rest.
    """

    def __init__(self, n: int, rule: str = "punish-last-set"):
        if rule not in ADAPTIVE_USM_RULES:
            raise ConfigError(f"unknown adaptive rule {rule!r}; expected one of {ADAPTIVE_USM_RULES}")
        if n < 2:
            raise ConfigError(f"adaptive cut adversary needs n >= 2, got {n}")
        self.rule = rule
        self.n = n

    def _bipartite_into(self, target: int) -> SubmodularOracle:
        edges = []
        for u in range(1, self.n + 1):
            if (target >> (u - 1)) & 1:
                continue
            for v in range(1, self.n + 1):
                if (target >> (v - 1)) & 1:
                    edges.append((u, v, 1.0))
        return normalize(DirectedGraph(self.n, tuple(edges)))

    def next_oracle(self, last_set: int | None = None) -> SubmodularOracle:
        full = (1 << self.n) - 1
        if last_set is None or last_set in (0, full):
            half = (1 << (self.n // 2)) - 1
            return self._bipartite_into(full & ~half)
        return self._bipartite_into(last_set)
