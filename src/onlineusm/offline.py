"""Offline baselines: exhaustive optimum, double greedy, uniform random.

The approximation ladder these realize on nonnegative submodular
functions: a uniform random subset earns at least 1/4 of the optimum in
expectation, the deterministic double-greedy sweep at least 1/3, and
the randomized sweep at least 1/2 in expectation.  All three sweeps go
through one walk that runs k sweeps side by side: int64 masks and float
values as length-k arrays, the two marginals of every sweep read with
one counted batch query per element.  A randomized walk takes its coins
as one (k, n) array, equal to k sequential ``random(n)`` draws.  Each
sweep spends exactly 2n + 2 counted value queries; the
enumeration-based operations use the uncounted table path.
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


#: sweeps that :func:`rand_double_greedy_stats` walks side by side; its
#: coins come as one (block, n) array per block
_BLOCK = 4096


def _walk(
    f: SubmodularOracle, k: int, choose_yes: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Walk k double-greedy sweeps side by side; return their sets and values.

    Sweep j keeps X_j (grown from the empty set) and Y_j (shrunk from the
    full set); at element i it reads both marginals of every sweep with
    one counted batch query and keeps i where ``choose_yes(i, alpha,
    beta)`` is true.  Each sweep spends 2n + 2 counted queries.
    """
    n = f.ground.n
    evaluate_many = f.evaluate_many
    x = np.zeros(k, dtype=np.int64)
    y = np.full(k, full_mask(n), dtype=np.int64)
    both = evaluate_many(np.concatenate((x, y)))
    fx, fy = both[:k], both[k:]
    for i in range(n):
        bit = 1 << i
        grown = x | bit
        shrunk = y & ~bit
        both = evaluate_many(np.concatenate((grown, shrunk)))
        fx_add, fy_del = both[:k], both[k:]
        yes = choose_yes(i, fx_add - fx, fy_del - fy)
        x = np.where(yes, grown, x)
        fx = np.where(yes, fx_add, fx)
        y = np.where(yes, y, shrunk)
        fy = np.where(yes, fy, fy_del)
    return x, fx


def det_double_greedy(f: SubmodularOracle) -> OfflineResult:
    """Greedy sweep keeping the larger marginal; ties choose yes."""
    x, fx = _walk(f, 1, lambda i, a, b: a >= b)
    return OfflineResult(chosen=int(x[0]), value=float(fx[0]))


def _coin_rule(coins: np.ndarray) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Yes with probability a+ / (a+ + b+), sweep j deciding i with ``coins[j, i]``."""

    def choose(i: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ap = np.where(a > 0.0, a, 0.0)
        bp = np.where(b > 0.0, b, 0.0)
        total = ap + bp
        p = np.divide(ap, total, out=np.ones_like(total), where=total > 0.0)
        return coins[:, i] < p

    return choose


def rand_double_greedy(f: SubmodularOracle, rng: np.random.Generator) -> OfflineResult:
    """Randomized sweep: yes with probability a+ / (a+ + b+).

    Positive parts make the rule total: when only one marginal is
    positive that choice is forced, and when both are zero yes is taken.
    Draws the n coins as one ``rng.random((1, n))`` block, the same values
    as n sequential draws, coin i for element i.
    """
    x, fx = _walk(f, 1, _coin_rule(rng.random((1, f.ground.n))))
    return OfflineResult(chosen=int(x[0]), value=float(fx[0]))


def rand_double_greedy_stats(f: SubmodularOracle, trials: int, seed: int) -> OfflineResult:
    """Repeat the randomized sweep; report the best run plus mean/std.

    The sweeps walk side by side in blocks of up to ``_BLOCK``.  A block
    of k sweeps draws its coins as one ``rng.random((k, n))`` array, the
    same values as k sequential ``random(n)`` draws, row j for sweep j,
    so the results are those of ``trials`` calls of
    :func:`rand_double_greedy` on one Generator.  Each sweep still spends
    2n + 2 counted queries; the best run is the first with the largest
    value.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    n = f.ground.n
    sets, values = [], []
    for start in range(0, trials, _BLOCK):
        k = min(_BLOCK, trials - start)
        x, fx = _walk(f, k, _coin_rule(rng.random((k, n))))
        sets.append(x)
        values.append(fx)
    chosen = np.concatenate(sets)
    value = np.concatenate(values)
    best = int(np.argmax(value))
    std = float(value.std(ddof=1)) if trials > 1 else 0.0
    return OfflineResult(
        chosen=int(chosen[best]),
        value=float(value[best]),
        trials=trials,
        mean=float(value.mean()),
        std=std,
    )


def uniform_random_value(f: SubmodularOracle) -> float:
    """Exact expected value of a uniform random subset, by enumeration."""
    return float(value_table(f).mean())
