"""Online double-greedy framework: the round, the game and its replay checks.

Each round runs n binary-action subroutines, one per element, in fixed
order 1..n.  A growing set X (starts empty) and a shrinking set Y
(starts full) close in on each other: yes adds element i to X, no
removes it from Y, and the chosen set is S = X_n = Y_n.  Once the
round's function arrives, each subroutine i is fed the marginal pair

    alpha_i = f(X_{i-1} + i) - f(X_{i-1}),
    beta_i  = f(Y_{i-1} - i) - f(Y_{i-1}),

the rewards for yes and no.  Submodularity makes alpha_i + beta_i >= 0,
so the pair is a valid balance-subproblem point.  All decisions come
before any feedback, so S fixes both chains: X_i is S restricted to
elements 1..i and Y_i is X_i plus every element after i.  A round
returns S and the (alpha, beta) pairs it fed; decision i is bit i - 1 of S.

A round walks the elements once: after f(empty set) and f(full set) it
reads f(X_{i-1} + i) and f(Y_{i-1} - i) for each element i < n.  None
of these masks repeats: for i < n, X_{i-1} + i lacks element n and
Y_{i-1} - i holds it, and neither is empty or full.  Element n's point
comes from f(X_{n-1}) and f(Y_{n-1}) = f(X_{n-1} + n), which the walk
holds.  A round therefore costs exactly 2n counted queries, inside the
4n + 2 budget, and a game records that count for every round.

The game records per-round series (reward, best fixed set in
hindsight, queries) and the experiment driver turns them into
alpha-regret.  A game that keeps its rounds holds them as arrays: the
chosen sets, every point fed, (rounds, n, 2), and each round's oracle.
:func:`_replay` checks the paper's per-element relations on those
arrays.  The best fixed set and the replay read value tables, which
count no query.

Subroutine i decides with one uniform coin per round.  A round takes
its n coins as an array, coin i for element i; a game draws each
element's coins for all rounds as one ``random(T)`` block of its own
stream, which equals T sequential draws.

Element i's point depends only on the function and the prefix X_{i-1}
= S & (2^(i-1) - 1) of the round's chosen set S: it is node
2^(i-1) | X_{i-1} of the double greedy's prefix tree, which
:func:`_prefix_points` builds level by level with the offline sweep's
:func:`~onlineusm.offline._marginals` (the walk's doubles, under the
same subtraction).  Any number of trials against one cycle play
together on it (:func:`run_cycle_trials`): every point of every trial
is one gather by S from terms laid out term-major, (terms, 2^n, n), so
each term's gathered (trials, n) block is contiguous.  The
experiment driver plays a cycle that way once 2^n <= T, so that its
rounds reach every node, and the arrays fit ``_PREFIX_BYTES``; other
cycles and the other adversaries play one :func:`run_usm_game` per
trial, whose rounds walk from the root.
Every trial-round is charged 2n on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .adversaries import CycleFunctionAdversary
from .balance import BalanceSubroutine, _point_error
from .errors import ConfigError, SizeError
from .offline import _marginals
from .submodular import ENUMERATION_LIMIT, VALUE_TOL, SubmodularOracle, full_mask, value_table


def _prefix_points(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta at every node of value table t's prefix tree: entry
    2^i | X is element i + 1's point at prefix X < 2^i, from level i of
    :func:`~onlineusm.offline._marginals`; entry 0, no node, is (0.0, 0.0).
    """
    alpha, beta = np.zeros(t.size), np.zeros(t.size)
    for i in range(t.size.bit_length() - 1):
        alpha[1 << i:2 << i], beta[1 << i:2 << i] = _marginals(t, i)
    return alpha, beta


#: bytes of prefix data an experiment's batch of trials may hold for a
#: cycle of functions; with more, its trials play one by one, to the
#: same bytes
_PREFIX_BYTES = 1 << 26


def _holds_prefix(adversary, n: int, rounds: int) -> bool:
    """Whether trials against ``adversary`` play as one batch: a cycle
    whose rounds can reach all 2^n nodes, with value tables, and, per
    node of each distinct function, three float64 terms per chosen set
    and element plus alpha and beta within ``_PREFIX_BYTES``.  No
    subroutine's ``point_terms`` holds more than two terms, so the third
    is headroom."""
    return (
        isinstance(adversary, CycleFunctionAdversary)
        and 1 << n <= rounds
        and n <= ENUMERATION_LIMIT
        and len(set(adversary.oracles)) * 8 * (3 * n + 2) << n <= _PREFIX_BYTES
    )


def run_round(
    subroutines: Sequence[BalanceSubroutine],
    f: SubmodularOracle,
    coins: Sequence[float],
) -> tuple[int, tuple[tuple[float, float], ...]]:
    """One framework round: decide all elements, then feed back marginals.

    Every subroutine decides first (subroutine i with ``coins[i]``),
    each decision a bool.  The round then walks from the root: two
    ``evaluate`` calls read f(empty set) and f(full set), then for each
    element i < n it reads f(X_{i-1} + i) and f(Y_{i-1} - i) unchecked
    from the oracle's function (the masks lie in the ground set), builds
    element i's point (alpha_i, beta_i) and advances X and Y by decision
    i; one ``_charge`` counts those 2n - 2 reads, so the round costs 2n.
    Then each subroutine, in index order, is fed its point.  Returns S
    and the tuple of the very pairs fed.
    """
    n = f.n
    if len(subroutines) != n:
        raise ConfigError(f"need {n} subroutines, got {len(subroutines)}")
    if len(coins) != n:
        raise ConfigError(f"need {n} coins, got {len(coins)}")
    decisions = [sub.decide(coin) for sub, coin in zip(subroutines, coins)]

    points = []
    bit = 1
    full = full_mask(n)
    read = f._fn
    x, fx = 0, f.evaluate(0)
    y, fy = full, f.evaluate(full)
    for d in decisions[:-1]:
        x_up = x | bit
        fx_up = read(x_up)
        y_down = y ^ bit
        fy_down = read(y_down)
        points.append((fx_up - fx, fy_down - fy))
        if d:
            x, fx = x_up, fx_up
        else:
            y, fy = y_down, fy_down
        bit <<= 1
    points.append((fy - fx, fx - fy))
    if decisions[-1]:
        x = y
    f._charge(2 * n - 2)

    for sub, pt in zip(subroutines, points):
        sub.update(pt)
    return x, tuple(points)


@dataclass
class UsmRunResult:
    """Per-round series and query accounting of one run.

    ``cum_opt[t - 1]`` is the best fixed set's total value over rounds
    1..t, and ``opt_set`` is the best fixed set over all rounds (the
    first maximizer of the final total, so ties go to the smallest
    bitmask); both are None without tracking.  The experiment driver
    turns ``cum_opt`` and ``cum_rewards`` into the alpha-regret.  A run
    that keeps its rounds holds each round's chosen set, the points it
    fed (``points[t - 1, i]`` is element i + 1's alpha and beta) and its
    oracle, which :func:`_replay` reads with ``opt_set``.  Every round is
    charged 2n, so ``round_queries`` is one read-only int64 broadcast over
    the rounds.
    """

    rewards: np.ndarray
    cum_rewards: np.ndarray
    cum_opt: np.ndarray | None
    round_queries: np.ndarray
    max_round_queries: int
    opt_set: int | None = None
    chosen_sets: list[int] | None = None
    points: np.ndarray | None = None
    oracles: list[SubmodularOracle] | None = None


def default_checkpoints(rounds: int) -> list[int]:
    """Log-spaced regret checkpoints: T/16, T/8, T/4, T/2, T."""
    pts = {max(1, rounds // 16), max(1, rounds // 8), max(1, rounds // 4), max(1, rounds // 2), rounds}
    return sorted(pts)


def fit_growth_exponent(ts: Iterable[float], values: Iterable[float]) -> float:
    """Slope of log(value) vs log(t) over points with positive value."""
    pairs = [(t, v) for t, v in zip(ts, values) if t > 0 and v > 0]
    if len(pairs) < 2:
        return float("nan")
    lt = np.log([t for t, _ in pairs])
    lv = np.log([v for _, v in pairs])
    return float(np.polyfit(lt, lv, 1)[0])


#: rounds of coins both engines draw from every stream at a time
_COIN_BLOCK = 128

#: bytes of running totals :func:`_cycle_best` keeps at a time
_TRACK_BYTES = 1 << 18


def _cycle_best(tables: Sequence[np.ndarray], rounds: int) -> tuple[np.ndarray, int]:
    """``cum_opt`` and ``opt_set`` of ``rounds`` rounds over the cycle of
    value tables ``tables``: round t plays ``tables[t % len(tables)]``, so
    a game whose every round has its own table passes one per round.

    Each round's running total is one ``np.add`` of its table to the last
    total, into the next row of a buffer of ``_TRACK_BYTES``, and a full
    buffer's row maxima are taken at once: sequential IEEE adds, so the
    same doubles as one running total.  The first total is -0.0 plus
    round 1's table, which is that table: -0.0 + x is x for every double x.
    """
    rows = np.empty((max(1, _TRACK_BYTES // tables[0].nbytes), tables[0].size))
    cum_opt = np.empty(rounds)
    total = -0.0
    for start in range(0, rounds, len(rows)):
        block = rows[:rounds - start]
        for t, row in enumerate(block, start):
            total = np.add(total, tables[t % len(tables)], out=row)
        np.maximum.reduce(block, axis=1, out=cum_opt[start:start + len(block)])
    return cum_opt, int(np.argmax(total))


def _coin_blocks(streams: Sequence[np.random.Generator], rounds: int):
    """Yield ``(start, coins)`` for each block of up to ``_COIN_BLOCK``
    rounds from ``start`` on: ``coins[j, k]`` is stream j's coin for round
    start + k.  One buffer is refilled block by block, so the coins take
    memory independent of ``rounds``; each stream's draws, and its state
    after them, are those of sequential ``random()`` calls."""
    coins = np.empty((len(streams), min(rounds, _COIN_BLOCK)))
    for start in range(0, rounds, _COIN_BLOCK):
        size = min(_COIN_BLOCK, rounds - start)
        for stream, row in zip(streams, coins):
            stream.random(out=row[:size])
        yield start, coins[:, :size]


def _check_streams(rounds: int, n: int, rows: Sequence[Sequence[np.random.Generator]]) -> None:
    """Raise :class:`ConfigError` unless ``rounds`` >= 1 and each trial's
    row of ``rows`` holds one coin stream per element, every stream of
    every row a distinct object (a shared one would hand its coins out
    in turn, not as each element's own sequence)."""
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    for row in rows:
        if len(row) != n:
            raise ConfigError(f"need {n} coin streams, got {len(row)}")
    flat = [stream for row in rows for stream in row]
    if len(set(flat)) != len(flat):
        raise ConfigError("coin streams must be distinct objects, one per subroutine")


def run_usm_game(
    subroutines: Sequence[BalanceSubroutine],
    adversary,
    rounds: int,
    streams: Sequence[np.random.Generator],
    *,
    track_opt: bool = True,
    keep_transcripts: bool = False,
    keep_sets: bool = False,
) -> UsmRunResult:
    """Drive ``rounds`` rounds of the framework against a function adversary.

    ``adversary.next_oracle(last_set)`` supplies each round's function
    (oblivious kinds ignore the argument).  With ``track_opt`` (n <= 20)
    each round's value table is kept, and :func:`_cycle_best` turns them
    into the best fixed set's total value after each round (``cum_opt``)
    and the final total's first maximizer (``opt_set``), without
    spending counted queries.  The tables are cached under ``id(f)``, a
    defect (ROADMAP item 1): a freed oracle's id can be reused by a later
    one, which is then tracked with the freed one's table, so
    ``fresh-random`` and the adaptive kinds, which make a new oracle per
    round, report true regret only when the run keeps its oracles
    (``keep_transcripts``).  Callers that already hold the tables pass
    ``track_opt=False``: the experiment driver for a cycle kind, whose
    trials share one sequence of functions that it tracks once, and
    replays that need only the chosen sets.

    ``streams`` holds one distinct Generator per subroutine.  Coins are
    drawn a block of rounds at a time (:func:`_coin_blocks`); each block
    becomes Python floats at once, and round t hands ``run_round`` the
    list of every stream's coin t.
    ``keep_sets`` keeps each round's chosen set; ``keep_transcripts``
    keeps it too, with the round's points and oracle, which
    :func:`_replay` reads.  Every round walks from the root
    (:func:`run_round`).
    """
    n = len(subroutines)
    _check_streams(rounds, n, [streams])
    if n < 1:
        raise ConfigError("need at least one subroutine")
    if track_opt and n > ENUMERATION_LIMIT:
        raise SizeError(f"tracking the best fixed set needs n <= {ENUMERATION_LIMIT}")
    rewards = np.empty(rounds)
    round_queries = np.broadcast_to(np.int64(2 * n), (rounds,))
    tables: list[np.ndarray] = []
    table_cache: dict[int, np.ndarray] = {}
    sets: list[int] | None = [] if keep_sets or keep_transcripts else None
    points = np.empty((rounds, n, 2)) if keep_transcripts else None
    oracles: list[SubmodularOracle] | None = [] if keep_transcripts else None

    last_set: int | None = None
    for start, coins in _coin_blocks(streams, rounds):
        for t, round_coins in enumerate(coins.T.tolist(), start):
            f = adversary.next_oracle(last_set)
            if f.n != n:
                raise ConfigError(f"oracle ground size {f.n} != subroutine count {n}")
            last_set, fed = run_round(subroutines, f, round_coins)
            rewards[t] = f.peek(last_set)
            if track_opt:
                key = id(f)
                table = table_cache.get(key)
                if table is None:
                    table = value_table(f)
                    table_cache[key] = table
                tables.append(table)
            if points is not None:
                points[t] = fed
                oracles.append(f)
            if sets is not None:
                sets.append(last_set)

    cum_opt, opt_set = _cycle_best(tables, rounds) if track_opt else (None, None)
    return UsmRunResult(
        rewards=rewards,
        cum_rewards=np.cumsum(rewards),
        cum_opt=cum_opt,
        round_queries=round_queries,
        max_round_queries=2 * n,
        opt_set=opt_set,
        chosen_sets=sets,
        points=points,
        oracles=oracles,
    )


def run_cycle_trials(
    sub: BalanceSubroutine,
    adversary: CycleFunctionAdversary,
    rounds: int,
    streams: Sequence[Sequence[np.random.Generator]],
    *,
    keep_transcripts: bool = False,
) -> list[UsmRunResult]:
    """Play one game per row of ``streams`` (trial k's coin stream for
    element i at ``[k][i]``) against the cycle, all trials one array round
    at a time; each result is bit for bit that trial's own
    :func:`run_usm_game` with tracking, and the streams are checked as
    that game checks them.

    ``sub`` becomes a batch of shape (trials, n), bound once to its
    state, held yes-probabilities and gather buffer.
    Element i + 1's point sits at node 2^i | S & (2^i - 1) for the
    round's chosen set S, so each distinct function's
    :func:`_prefix_points` become ``sub``'s point terms laid out
    term-major, (terms, 2^n, n): entry [j, S] holds term j of every
    element when the round chooses S.  A round is: decide (coin < p),
    pack S straight into the round's row of chosen sets, one ``take`` at
    S along axis 1 straight into the batch's (terms, trials, n) buffer,
    one contiguous block per term (``mode="clip"``: every S is in range,
    and the default mode would copy through a temporary), and the
    batch's in-place ``update``, which also refreshes p.  Coins are drawn
    a block of rounds at a time (:func:`_coin_blocks`).  After play the
    rewards are gathered by S, the best set is tracked once (one
    read-only ``cum_opt``), each function is charged 2n per trial-round
    it played, and, with ``keep_transcripts``, each trial's points are
    gathered from the prefix points by S.  A point ``sub`` rejects raises
    :class:`InvalidPointError` in the first round that meets one, for its
    first trial and element.
    """
    trials = len(streams)
    oracles = adversary.oracles
    n = oracles[0].n
    _check_streams(rounds, n, streams)
    flat = [stream for row in streams for stream in row]
    sets = np.arange(1 << n)
    bits = 1 << np.arange(n)
    # nodes[S, i]: element i + 1's node when the round chooses S
    nodes = (sets[:, None] & (bits - 1)) | bits
    built = {}
    for g in dict.fromkeys(oracles):
        alpha, beta = _prefix_points(value_table(g))
        terms, rejected = sub.point_terms(alpha, beta)
        built[g] = (terms[:, nodes].copy(), None if rejected is None else rejected[nodes], alpha, beta)
    cycle = [built[g] for g in oracles]
    period = len(cycle)

    chosen = np.empty((rounds, trials), dtype=np.int64)
    batch = sub.batch((trials, n))
    decide, gathered, update = batch.decide, batch.gathered, batch.update
    for start, coins in _coin_blocks(flat, rounds):
        # each round's coins contiguous, (trials, n)
        for t, round_coins in enumerate(np.ascontiguousarray(coins.T).reshape(-1, trials, n), start):
            s = decide(round_coins).dot(bits, out=chosen[t])
            terms, rejected, alpha, beta = cycle[t % period]
            if rejected is not None:
                hit = rejected[s]
                if hit.any():
                    k, i = np.argwhere(hit)[0]
                    node = nodes[s[k], i]
                    raise _point_error(alpha[node].item(), beta[node].item())
            terms.take(s, axis=1, out=gathered, mode="clip")
            update()

    tables = [value_table(g) for g in oracles]
    which = np.arange(rounds) % period
    rewards = np.stack(tables)[which, chosen.T]
    cum_rewards = np.cumsum(rewards, axis=1)
    for j, g in enumerate(oracles):
        g._charge(2 * n * trials * len(range(j, rounds, period)))
    cum_opt, opt_set = _cycle_best(tables, rounds)
    cum_opt.flags.writeable = False
    round_queries = np.broadcast_to(np.int64(2 * n), (rounds,))

    if keep_transcripts:
        # alpha and beta at every node, by cycle position: (period, 2^n, 2)
        points = np.stack([np.stack(c[2:], axis=-1) for c in cycle])
        played = [oracles[j] for j in which.tolist()]
    results = []
    for k in range(trials):
        res = UsmRunResult(rewards=rewards[k], cum_rewards=cum_rewards[k], cum_opt=cum_opt,
                           round_queries=round_queries, max_round_queries=2 * n, opt_set=opt_set)
        if keep_transcripts:
            res.chosen_sets = chosen[:, k].tolist()
            res.points = points[which[:, None], nodes[chosen[:, k]]]
            res.oracles = played
        results.append(res)
    return results


def _replay(
    oracles: Sequence[SubmodularOracle],
    chosen_sets: Sequence[int],
    points: np.ndarray,
    opt: int,
) -> tuple[int, np.ndarray]:
    """The rounds of a kept run that break a replay relation, and each
    element's value-identity residual.

    Round t played ``oracles[t]``'s function f, chose S = ``chosen_sets[t]``
    and fed element i the point (alpha_i, beta_i) = ``points[t, i - 1]``.
    A reference set OPT_0 = ``opt`` (a set of the ground set) morphs into
    S, OPT_i copying S's bit for element i, so OPT_n is S.  Each element
    must keep the two value updates of X and Y and the submodularity
    bound on how much the reference set's value may drop:

        yes: f(X_i) = f(X_{i-1}) + alpha_i,  f(Y_i) = f(Y_{i-1}),
             i not in OPT => f(OPT_i) >= f(OPT_{i-1}) - beta_i;
        no:  f(X_i) = f(X_{i-1}),  f(Y_i) = f(Y_{i-1}) + beta_i,
             i in OPT     => f(OPT_i) >= f(OPT_{i-1}) - alpha_i,

    each within ``VALUE_TOL``; a round fails when any relation breaks.
    Element i's residual is the total growth of f(X_i) + f(Y_i) less the
    total of the yes-rounds' alpha_i and the no-rounds' beta_i, both
    totals summed round by round from 0.0: zero up to rounding.  Each
    round's X, Y and OPT chains are read from its value table with one
    ``take``.
    """
    n = points.shape[1]
    chosen = np.array(chosen_sets, dtype=np.int64)[:, None]
    low = (1 << np.arange(n + 1)) - 1
    x = chosen & low
    masks = np.stack([x, chosen | (full_mask(n) & ~low), x | (opt & ~low)], axis=1)
    values = np.empty(masks.shape)
    for f, round_masks, out in zip(oracles, masks, values):
        value_table(f).take(round_masks, out=out)
    fx, fy, fo = np.moveaxis(values, 1, 0)
    x_prev, x_cur = fx[:, :-1], fx[:, 1:]
    y_prev, y_cur = fy[:, :-1], fy[:, 1:]
    o_prev, o_cur = fo[:, :-1], fo[:, 1:]
    alpha, beta = points[..., 0], points[..., 1]
    element = np.arange(n)
    yes = (chosen >> element & 1).astype(bool)
    broken = np.where(
        yes,
        (abs(x_cur - (x_prev + alpha)) > VALUE_TOL) | (abs(y_cur - y_prev) > VALUE_TOL),
        (abs(x_cur - x_prev) > VALUE_TOL) | (abs(y_cur - (y_prev + beta)) > VALUE_TOL),
    )
    # OPT leaves its last value only where S and opt disagree on the element
    moved = yes != (opt >> element & 1).astype(bool)
    broken |= moved & (o_cur < o_prev - np.where(yes, beta, alpha) - VALUE_TOL)

    growth = x_cur - x_prev + y_cur - y_prev
    gains = np.where(yes, alpha, beta)
    # totals that start from 0.0: 0.0 + x is x for every double x but -0.0
    growth[0] += 0.0
    gains[0] += 0.0
    residuals = np.cumsum(growth, axis=0)[-1] - np.cumsum(gains, axis=0)[-1]
    return int(broken.any(axis=1).sum()), residuals
