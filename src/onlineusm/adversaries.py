"""Input-sequence generators for both games, oblivious and adaptive.

Balance adversaries emit points from the up/right/left triangle; the
oblivious kinds fix their whole sequence up front, the adaptive kinds
compute each point as a deterministic function of the decisions they
have seen so far (strictly past rounds).  Function adversaries emit one
submodular oracle per round under the same oblivious/adaptive split.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .balance import LEFT, RIGHT, UP
from .errors import ConfigError
from .submodular import DirectedGraph, SubmodularOracle, full_mask, normalize, random_digraph

_PATTERN_POINTS = {"U": UP, "R": RIGHT, "L": LEFT}


class ObliviousBalanceAdversary:
    """Fixed point sequence, repeated cyclically; ignores decisions."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        if not points:
            raise ConfigError("oblivious adversary needs at least one point")
        self.points = tuple(points)
        self._pos = 0

    @classmethod
    def from_pattern(cls, pattern: str) -> "ObliviousBalanceAdversary":
        """One extremal point per symbol of a string over {U, R, L}."""
        if not pattern:
            raise ConfigError("pattern must be nonempty")
        for ch in pattern:
            if ch not in _PATTERN_POINTS:
                raise ConfigError(f"unknown pattern symbol {ch!r}; expected U, R, or L")
        return cls([_PATTERN_POINTS[ch] for ch in pattern])

    def next_point(self, last_decision: bool | None = None) -> tuple[float, float]:
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

    def next_point(self, last_decision: bool | None = None) -> tuple[float, float]:
        # None, not False, is "no history": a no is a decision too
        if last_decision is None:
            return UP
        if self.rule == "punish-last":
            return LEFT if last_decision else RIGHT
        return RIGHT if last_decision else LEFT


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
        full = full_mask(self.n)
        if last_set is None or last_set in (0, full):
            half = (1 << (self.n // 2)) - 1
            return self._bipartite_into(full & ~half)
        return self._bipartite_into(last_set)
