"""Offline baselines: exhaustive optimum, double greedy, uniform random.

The approximation ladder these realize on nonnegative submodular
functions: a uniform random subset earns at least 1/4 of the optimum in
expectation, the deterministic double-greedy sweep at least 1/3, and
the randomized sweep at least 1/2 in expectation.

Both sweeps run through one walk over the prefix tree of the value
table t.  A sweep's choice at element i + 1 depends only on its prefix,
the set X < 2^i it has grown from elements 1..i; its shrinking set is
then Y = X + hi with hi = 2^n - 2^i.  Node 2^i | X of the tree is that
prefix at element i + 1, and its marginals are
alpha = t[X + 2^i] - t[X] and beta = t[X + hi - 2^i] - t[X + hi]: over
all 2^i nodes of level i, two contiguous slice subtractions.  On levels
with 2^i <= the number of sweeps, the walk computes the rule's node
value (the yes-probability, or alpha >= beta) once per node, and each
sweep-step is one ``take`` at the sweeps' prefixes; a deeper level
gathers each sweep's own four values instead, so a few sweeps at large
n build no 2^n-entry node table.  The values are the very doubles the
sweep would have queried, under the same IEEE operations, so each sweep
ends where the scalar sweep with one counted query per mask ends.  Each
sweep is charged its 2n + 2 queries, one charge per block of sweeps;
the table itself is read uncounted, so n > ENUMERATION_LIMIT raises
:class:`SizeError` before anything is charged.  Where both positive
marginals are zero, the yes-probability is 0/0 = nan, which no coin is
>= of: such an element is taken.

Batched online trials build each cycled function's prefix tree with the
same :func:`_marginals`, level by level
(:func:`onlineusm.framework.run_cycle_trials`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .submodular import SubmodularOracle, value_table


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


#: sweeps that :func:`_sweep` walks side by side; a randomized block
#: draws its coins as one (block, n) array
_BLOCK = 3072


def _marginals(t: np.ndarray, i: int, x: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta at element i + 1: at every prefix X < 2^i by default,
    else at the prefixes ``x``; fresh arrays either way."""
    lo, top = 1 << i, t.size
    if x is None:
        return t[lo:2 * lo] - t[:lo], t[top - 2 * lo:top - lo] - t[top - lo:]
    v = t.take(np.add.outer((lo, 0, top - 2 * lo, top - lo), x))
    return v[0] - v[1], v[2] - v[3]


def _yes_probability(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The randomized rule's a+ / (a+ + b+) per marginal pair, written over ``a``.

    ``b`` is overwritten too.  A sweep says yes where ``~(coin >= p)``:
    a nan p, from 0/0 where both positive parts are zero, forces yes,
    and the caller keeps that division silent with
    ``np.errstate(invalid="ignore")``.  A positive part may be -0.0; its
    probability is then -0.0 or nan, which decides exactly as 0.0 would.
    ``np.fmax`` takes a nan marginal's positive part as 0.0, as the
    scalar rule does.
    """
    np.fmax(a, 0.0, out=a)
    np.fmax(b, 0.0, out=b)
    b += a
    a /= b
    return a


def _sweep(
    f: SubmodularOracle,
    trials: int,
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
    coins: Callable[[int], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk ``trials`` sweeps over the prefix tree; return their sets and values.

    ``rule(alpha, beta)`` gives each node's value, which it may compute
    in place.  Without ``coins`` that value is whether to take the
    element; with it, ``coins(k)`` gives a block of k sweeps its (k, n)
    coins and sweep j takes element i + 1 where
    ``~(coins[j, i] >= value)``.  Node values are computed once, for the
    levels with 2^i <= ``trials``, and shared by every block.
    """
    t = value_table(f)
    n = f.n
    depth = min(n, trials.bit_length())
    x = np.zeros(trials, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        nodes = [rule(*_marginals(t, i)) for i in range(depth)]
        for start in range(0, trials, _BLOCK):
            block = x[start:start + _BLOCK]
            drawn = None if coins is None else coins(block.size)
            f._charge(block.size * (2 * n + 2))
            for i in range(n):
                value = nodes[i].take(block) if i < depth else rule(*_marginals(t, i, block))
                yes = value if drawn is None else ~(drawn[:, i] >= value)
                block |= yes << i
    return x, t.take(x)


def det_double_greedy(f: SubmodularOracle) -> OfflineResult:
    """Greedy sweep keeping the larger marginal; ties choose yes.

    It reads the oracle's value table, so n > ENUMERATION_LIMIT raises
    :class:`SizeError` with no query charged; it charges 2n + 2.
    """
    x, fx = _sweep(f, 1, np.greater_equal)
    return OfflineResult(chosen=int(x[0]), value=float(fx[0]))


def rand_double_greedy_stats(f: SubmodularOracle, trials: int, seed: int) -> OfflineResult:
    """Run the randomized sweep ``trials`` times; report the best run plus mean/std.

    The sweeps walk side by side in blocks of up to ``_BLOCK``.  A block
    of k sweeps draws its coins as one ``rng.random((k, n))`` array, the
    same values as k sequential ``random(n)`` draws, row j for sweep j,
    so the results are those of ``trials`` sequential sweeps on one
    Generator, coin i for element i (:func:`_yes_probability`).  Each
    sweep is charged 2n + 2 queries; the best run is the first with the
    largest value.  The sweeps read the oracle's value table, so
    n > ENUMERATION_LIMIT raises :class:`SizeError` with no query charged.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    n = f.n
    x, value = _sweep(f, trials, _yes_probability, lambda k: rng.random((k, n)))
    best = int(np.argmax(value))
    std = float(value.std(ddof=1)) if trials > 1 else 0.0
    return OfflineResult(
        chosen=int(x[best]),
        value=float(value[best]),
        trials=trials,
        mean=float(value.mean()),
        std=std,
    )


def uniform_random_value(f: SubmodularOracle) -> float:
    """Exact expected value of a uniform random subset, by enumeration."""
    return float(value_table(f).mean())
