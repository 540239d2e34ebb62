"""Offline baselines: exhaustive optimum, double greedy, uniform random.

The approximation ladder these realize on nonnegative submodular
functions: a uniform random subset earns at least 1/4 of the optimum in
expectation, the deterministic double-greedy sweep at least 1/3, and
the randomized sweep at least 1/2 in expectation.  The sweeps spend at
most 2n + 2 counted value queries; the enumeration-based operations use
the uncounted table path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .submodular import SubmodularOracle, full_mask, value_table


@dataclass(frozen=True)
class OfflineResult:
    """One offline run; randomized runs carry trial statistics."""

    chosen: int
    value: float
    trials: int | None = None
    mean: float | None = None
    std: float | None = None


def brute_force_opt(f: SubmodularOracle) -> OfflineResult:
    """Exact maximizer over all subsets; ties go to the smallest bitmask."""
    table = value_table(f)
    idx = int(np.argmax(table))
    return OfflineResult(chosen=idx, value=float(table[idx]))


def _double_greedy_sweep(
    f: SubmodularOracle, choose_yes: Callable[[float, float], bool]
) -> tuple[int, float]:
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


def det_double_greedy(f: SubmodularOracle) -> OfflineResult:
    """Greedy sweep keeping the larger marginal; ties choose yes."""
    chosen, value = _double_greedy_sweep(f, lambda a, b: a >= b)
    return OfflineResult(chosen=chosen, value=value)


def rand_double_greedy(f: SubmodularOracle, rng: np.random.Generator) -> OfflineResult:
    """Randomized sweep: yes with probability a+ / (a+ + b+).

    Positive parts make the rule total: when only one marginal is
    positive that choice is forced, and when both are zero yes is taken.
    Draws the n coins as one ``rng.random(n)`` block, the same values as
    n sequential draws, coin i for element i.
    """

    coin = iter(rng.random(f.ground.n).tolist()).__next__

    def choose(a: float, b: float) -> bool:
        ap = a if a > 0.0 else 0.0
        bp = b if b > 0.0 else 0.0
        p = 1.0 if ap + bp <= 0.0 else ap / (ap + bp)
        return coin() < p

    chosen, value = _double_greedy_sweep(f, choose)
    return OfflineResult(chosen=chosen, value=value)


def rand_double_greedy_stats(f: SubmodularOracle, trials: int, seed: int) -> OfflineResult:
    """Repeat the randomized sweep; report the best run plus mean/std."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    values = np.empty(trials)
    best_set = 0
    best_value = -np.inf
    for k in range(trials):
        res = rand_double_greedy(f, rng)
        values[k] = res.value
        if res.value > best_value:
            best_value = res.value
            best_set = res.chosen
    std = float(values.std(ddof=1)) if trials > 1 else 0.0
    return OfflineResult(
        chosen=best_set,
        value=float(best_value),
        trials=trials,
        mean=float(values.mean()),
        std=std,
    )


def uniform_random_value(f: SubmodularOracle) -> float:
    """Exact expected value of a uniform random subset, by enumeration."""
    return float(value_table(f).mean())
