"""Offline baselines: exhaustive optimum, double greedy, uniform random.

The approximation ladder these realize on nonnegative submodular
functions: a uniform random subset earns at least 1/4 of the optimum in
expectation, the deterministic double-greedy sweep at least 1/3, and
the randomized sweep at least 1/2 in expectation.  Both sweeps go
through one walk that runs k sweeps side by side.  A sweep's shrinking
set Y is always its growing set X plus the elements not yet decided, so
the walk keeps only X (int64 masks, a length-k array) and derives every
Y mask from it; f(X) and f(Y) of all k sweeps sit in one 2k buffer, and
the two marginals of every sweep are read with one counted batch read
per element: its masks are built inside the ground set, so the walk
reads them through the oracle's unchecked reader, which charges one
query per mask as ``evaluate_many`` does.  A randomized walk takes its
coins as one (k, n) array, equal to k sequential ``random(n)`` draws,
and decides each element with one compare of its coin column against
the yes-probabilities, computed in place in the marginal buffer.  Each sweep spends exactly
2n + 2 counted value queries; the enumeration-based operations use the
uncounted table path.
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
_BLOCK = 3072


def _walk(
    f: SubmodularOracle, k: int, choose_yes: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Walk k double-greedy sweeps side by side; return their sets and values.

    Sweep j keeps only X_j, grown from the empty set; its Y_j is always
    X_j plus the elements not yet decided.  At bit i (element i + 1) the
    two masks it queries are X_j | (1 << i) and Y_j without bit i, which
    is X_j | (full & ~((2 << i) - 1)).  Both halves of one reused 2k mask
    buffer are filled in place and read with one counted batch read
    (``_read_many``: these masks need none of ``evaluate_many``'s checks);
    ``choose_yes(i, alpha, beta)`` gets the marginals (k-long views of
    one buffer, which it may overwrite: the walk reads them no more) and
    returns a bool array of where to take the element.  The rules run
    inside one ``np.errstate(invalid="ignore")`` that the walk enters
    once, so a rule may divide 0 by 0 without a warning.  A yes makes the
    queried f(X_j + i) the new f(X_j) and sets bit i of X_j; a no makes
    the queried f(Y_j - i) the new f(Y_j).  The 2k buffer of f(X) then
    f(Y) takes these by selecting bit patterns through an int64 view, so
    every value it holds is the very double that was queried.  Each
    sweep spends 2n + 2 counted queries.
    """
    n = f.n
    full = full_mask(n)
    read_many = f._read_many
    x = np.zeros(k, dtype=np.int64)
    masks = np.empty(2 * k, dtype=np.int64)
    grown, shrunk = masks[:k], masks[k:]
    grown.fill(0)
    shrunk.fill(full)
    values = read_many(masks)
    bits = values.view(np.int64)
    # all ones where a query's value replaces the held one: f(X) on yes,
    # f(Y) on no
    keep = np.empty(2 * k, dtype=np.int64)
    keep_x, keep_y = keep[:k], keep[k:]
    marginals = np.empty(2 * k)
    alpha, beta = marginals[:k], marginals[k:]
    with np.errstate(invalid="ignore"):
        for i in range(n):
            bit = 1 << i
            np.bitwise_or(x, bit, out=grown)
            np.bitwise_or(x, full & ~((2 << i) - 1), out=shrunk)
            queried = read_many(masks)
            np.subtract(queried, values, out=marginals)
            np.copyto(keep_x, choose_yes(i, alpha, beta))
            np.negative(keep_x, out=keep_x)
            np.invert(keep_x, out=keep_y)
            # queried is a fresh array, so its bits can hold the selection
            new_bits = queried.view(np.int64)
            np.bitwise_xor(new_bits, bits, out=new_bits)
            new_bits &= keep
            bits ^= new_bits
            keep_x &= bit
            x |= keep_x
    return x, values[:k]


def det_double_greedy(f: SubmodularOracle) -> OfflineResult:
    """Greedy sweep keeping the larger marginal; ties choose yes."""
    x, fx = _walk(f, 1, lambda i, a, b: a >= b)
    return OfflineResult(chosen=int(x[0]), value=float(fx[0]))


def _coin_rule(coins: np.ndarray) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Yes with probability a+ / (a+ + b+), sweep j deciding i with ``coins[j, i]``.

    The rule overwrites the marginals it gets (a becomes the
    probability p, b the total a+ + b+) and takes no where the coin is
    >= p, so yes is ``~(coins[:, i] >= p)``: one compare.  Where both
    positive parts are zero, p is 0/0 = nan, which no coin is >= of, so
    yes is forced there.  :func:`_walk` runs the rule inside
    ``np.errstate(invalid="ignore")``, which keeps that 0/0 silent; a
    caller outside the walk enters it too.  A positive part may be
    -0.0; its probability is then -0.0 or nan, which decides exactly as
    0.0 would.  ``np.fmax`` takes a nan marginal's positive part as
    0.0, as the scalar rule does.
    """

    def choose(i: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        np.fmax(a, 0.0, out=a)
        np.fmax(b, 0.0, out=b)
        b += a
        a /= b
        no = coins[:, i] >= a
        return np.invert(no, out=no)

    return choose


def rand_double_greedy_stats(f: SubmodularOracle, trials: int, seed: int) -> OfflineResult:
    """Run the randomized sweep ``trials`` times; report the best run plus mean/std.

    The sweeps walk side by side in blocks of up to ``_BLOCK``.  A block
    of k sweeps draws its coins as one ``rng.random((k, n))`` array, the
    same values as k sequential ``random(n)`` draws, row j for sweep j,
    so the results are those of ``trials`` sequential sweeps on one
    Generator, coin i for element i (:func:`_coin_rule`).  Each sweep
    spends 2n + 2 counted queries; the best run is the first with the
    largest value.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    n = f.n
    value = np.empty(trials)
    # each block's first best set: the first best sweep overall is the
    # first best of the block that holds it
    block_best = []
    for start in range(0, trials, _BLOCK):
        stop = min(start + _BLOCK, trials)
        x, fx = _walk(f, stop - start, _coin_rule(rng.random((stop - start, n))))
        value[start:stop] = fx
        block_best.append(int(x[np.argmax(fx)]))
    best = int(np.argmax(value))
    std = float(value.std(ddof=1)) if trials > 1 else 0.0
    return OfflineResult(
        chosen=block_best[best // _BLOCK],
        value=float(value[best]),
        trials=trials,
        mean=float(value.mean()),
        std=std,
    )


def uniform_random_value(f: SubmodularOracle) -> float:
    """Exact expected value of a uniform random subset, by enumeration."""
    return float(value_table(f).mean())
