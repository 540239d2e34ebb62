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
elements 1..i and Y_i is X_i plus every element after i.  A round's
record keeps S and derives the decisions and the chains from it.

A round walks the elements once: after f(empty set) and f(full set) it
reads f(X_{i-1} + i) and f(Y_{i-1} - i) for each element i < n.  None
of these masks repeats: for i < n, X_{i-1} + i lacks element n and
Y_{i-1} - i holds it, and neither is empty or full.  Element n's point
comes from f(X_{n-1}) and f(Y_{n-1}) = f(X_{n-1} + n), which the walk
holds.  A round therefore costs exactly 2n counted queries, inside the
4n + 2 budget; a round's ``queries`` is that count.

Element i's point depends only on the function and the prefix X_{i-1}:
it is node 2^(i-1) | X_{i-1} of the double greedy's prefix tree, the
numbering of the offline sweep.  Against a cycle of functions the game
builds each function's whole tree before its first round, level by
level with the offline sweep's :func:`~onlineusm.offline._marginals`
(the walk's doubles, under the same subtraction), and a round follows
its decisions down the tree without a read; only a round without a
tree reads the function.  Every round charges the 2n its walk counts,
so every count and output is that of the walk.  The game records
per-round series (reward, best fixed set in hindsight, queries) and the
experiment driver turns them into alpha-regret; the best fixed set and
the replay diagnostics use the oracle's uncounted peek path.

Subroutine i decides with one uniform coin per round.  A round takes
its n coins as an array, coin i for element i; a game draws each
element's coins for all rounds as one ``random(T)`` block of its own
stream, which equals T sequential draws.

Trials against one cycle can also play together, bit for bit
(:func:`run_cycle_trials`): X_{i-1} = S & (2^(i-1) - 1) for the round's
chosen set S, so every point of every trial is one gather by S from
terms laid out set-major, (2^n, terms, n), into a buffer the batched
subroutines were bound to once, with their state, before the first
round.  The experiment driver batches two trials or more once
2^n <= T.  The one-game path stays: it is as fast for one Balancer
trial, it serves the other adversaries, and the benchmark's tracer test
pins its calls (one ``run_round`` and n ``decide``/``update`` per
trial-round) until ROADMAP item 1 re-pins that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .adversaries import CycleFunctionAdversary
from .balance import BalancePoint, BalanceSubroutine, _point_error
from .errors import ConfigError, SizeError
from .offline import _marginals
from .submodular import ENUMERATION_LIMIT, VALUE_TOL, SubmodularOracle, full_mask, value_table


class RoundTranscript(NamedTuple):
    """Everything one round did: choice, marginals, queries.

    An immutable tuple; ``marginals[i]`` is the very :class:`BalancePoint`
    that subroutine i + 1 was fed, and unpacks as ``alpha, beta``: built
    by a tree-less round's walk, the only round that reads the oracle,
    or taken from a prefix tree built whole from ``_marginals``.  The
    decisions and the set chains are derived from the choice, as bits
    and bitmasks: decision i + 1 is bit i of ``chosen``,
    X_i = chosen & (2^i - 1) and Y_i = chosen | (full & ~(2^i - 1)).
    """

    t: int
    chosen: int
    marginals: tuple[BalancePoint, ...]
    queries: int

    @property
    def decisions(self) -> tuple[bool, ...]:
        """Each subroutine's action, True for yes: bit i of the chosen set."""
        return tuple(bool(self.chosen >> i & 1) for i in range(len(self.marginals)))

    @property
    def x_sets(self) -> tuple[int, ...]:
        """X_0..X_n: the chosen elements among the first i."""
        return tuple(self.chosen & ((1 << i) - 1) for i in range(len(self.marginals) + 1))

    @property
    def y_sets(self) -> tuple[int, ...]:
        """Y_0..Y_n: X_i plus every element after i."""
        full = full_mask(len(self.marginals))
        return tuple(self.chosen | (full >> i << i) for i in range(len(self.marginals) + 1))


def _prefix_points(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta at every node of value table t's prefix tree: entry
    2^i | X is element i + 1's point at prefix X < 2^i, from level i of
    :func:`~onlineusm.offline._marginals`; entry 0, no node, is (0.0, 0.0).
    """
    alpha, beta = np.zeros(t.size), np.zeros(t.size)
    for i in range(t.size.bit_length() - 1):
        alpha[1 << i:2 << i], beta[1 << i:2 << i] = _marginals(t, i)
    return alpha, beta


def _prefix_tree(g: SubmodularOracle) -> list[BalancePoint | None]:
    """g's prefix tree as :func:`_prefix_points` numbers it, one
    :class:`BalancePoint` of Python floats per node; entry 0 is None.
    g's value table is read uncounted (2^n peeks of a function-backed
    oracle), so n > ENUMERATION_LIMIT raises :class:`SizeError`.
    """
    alpha, beta = _prefix_points(value_table(g))
    return [None, *map(BalancePoint._make, zip(alpha[1:].tolist(), beta[1:].tolist()))]


#: bytes of prefix data a game, or an experiment's batch of trials, may
#: hold for a cycle of functions; with more, rounds walk from the root
#: (or trials play one by one), to the same bytes
_PREFIX_BYTES = 1 << 26
#: one scalar prefix-tree node: a BalancePoint of two Python floats and
#: its list slot (tracemalloc at n = 12, 14 and 16: 120 B)
_TREE_NODE_BYTES = 120


def _holds_prefix(adversary, n: int, rounds: int, *, batched: bool = False) -> bool:
    """Whether a game against ``adversary`` keeps prefix data for its
    distinct functions: a cycle whose rounds can reach all 2^n nodes, with
    value tables, and data within ``_PREFIX_BYTES``: per node, a scalar
    tree's or, ``batched``, up to three float64 terms per chosen set and
    element plus alpha and beta."""
    node_bytes = 8 * (3 * n + 2) if batched else _TREE_NODE_BYTES
    return (
        isinstance(adversary, CycleFunctionAdversary)
        and 1 << n <= rounds
        and n <= ENUMERATION_LIMIT
        and len(set(adversary.oracles)) * node_bytes << n <= _PREFIX_BYTES
    )


def run_round(
    subroutines: Sequence[BalanceSubroutine],
    f: SubmodularOracle,
    coins: Sequence[float],
    *,
    t: int = 1,
    tree: Sequence[BalancePoint | None] | None = None,
) -> RoundTranscript:
    """One framework round: decide all elements, then feed back marginals.

    Every subroutine decides first (subroutine i with ``coins[i]``),
    each decision a bool.  Without ``tree`` the round walks from the
    root: two ``evaluate`` calls read f(empty set) and f(full set), then
    for each element i < n it reads f(X_{i-1} + i) and f(Y_{i-1} - i)
    unchecked from the oracle's function (the masks lie in the ground
    set), builds element i's point and advances X and Y by decision i;
    one ``_charge`` counts those 2n - 2 reads.  ``tree``, f's whole
    prefix tree as :func:`_prefix_tree` builds it, holds element
    i + 1's point at prefix X_i in entry 2^i | X_i: the round follows
    its decisions down it, reads nothing and charges 2n.  Either way
    ``queries`` is 2n, and then each subroutine, in index order, is fed
    its point, the same object the transcript keeps.
    """
    n = f.n
    if len(subroutines) != n:
        raise ConfigError(f"need {n} subroutines, got {len(subroutines)}")
    if len(coins) != n:
        raise ConfigError(f"need {n} coins, got {len(coins)}")
    decisions = [sub.decide(coin) for sub, coin in zip(subroutines, coins)]

    # tuple.__new__ builds the same BalancePoint (and RoundTranscript) as
    # the class call, at half the cost (no Python frame for the generated
    # __new__)
    record = tuple.__new__
    marginals = []
    bit = 1
    if tree is not None:
        # node = bit | X_i at element i + 1, with bit = 2^i; yes moves to
        # bit << 1 | X_i | bit, no to bit << 1 | X_i
        node = 1
        for d in decisions:
            marginals.append(tree[node])
            node += bit << d
            bit <<= 1
        x = node ^ bit
        f._charge(2 * n)
    else:
        full = full_mask(n)
        read = f._fn
        x, fx = 0, f.evaluate(0)
        y, fy = full, f.evaluate(full)
        for d in decisions[:-1]:
            x_up = x | bit
            fx_up = read(x_up)
            y_down = y ^ bit
            fy_down = read(y_down)
            marginals.append(record(BalancePoint, (fx_up - fx, fy_down - fy)))
            if d:
                x, fx = x_up, fx_up
            else:
                y, fy = y_down, fy_down
            bit <<= 1
        marginals.append(record(BalancePoint, (fy - fx, fx - fy)))
        if decisions[-1]:
            x = y
        f._charge(2 * n - 2)

    for sub, pt in zip(subroutines, marginals):
        sub.update(pt)

    return record(
        RoundTranscript,
        (t, x, tuple(marginals), 2 * n),
    )


@dataclass
class UsmRunResult:
    """Per-round series and query accounting of one run.

    ``cum_opt[t - 1]`` is the best fixed set's total value over rounds
    1..t, and ``opt_set`` is the best fixed set over all rounds (the
    first maximizer of the final total, so ties go to the smallest
    bitmask); both are None without tracking.  The experiment driver
    turns ``cum_opt`` and ``cum_rewards`` into the alpha-regret, and the
    replay diagnostics morph ``opt_set`` into each round's choice.
    """

    rewards: np.ndarray
    cum_rewards: np.ndarray
    cum_opt: np.ndarray | None
    round_queries: np.ndarray
    max_round_queries: int
    opt_set: int | None = None
    chosen_sets: list[int] | None = None
    transcripts: list[RoundTranscript] | None = None
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


#: rounds whose coins become Python floats at a time, or, for batched
#: trials, rounds whose coins are drawn at a time
_COIN_BLOCK = 128

#: bytes of running totals :func:`_cycle_best` sums at a time
_TRACK_BYTES = 1 << 18


def _cycle_best(tables: Sequence[np.ndarray], rounds: int) -> tuple[np.ndarray, int]:
    """``cum_opt`` and ``opt_set`` of ``rounds`` rounds over the cycle of
    value tables ``tables``, as :func:`run_usm_game` tracks them.

    Its round-by-round running total (round 1's table copied, each later
    one added in place) is summed here a block of rounds at a time: a
    block's tables, the last total added to the first of them, then one
    ``np.add.accumulate`` down the block.  Those are the same sequential
    IEEE adds (an add is commutative), so the same doubles.
    """
    stacked = np.stack(tables)
    block = max(1, _TRACK_BYTES // stacked[0].nbytes)
    cum_opt = np.empty(rounds)
    total = None
    for start in range(0, rounds, block):
        rows = stacked[np.arange(start, min(start + block, rounds)) % len(tables)]
        if total is not None:
            rows[0] += total
        np.add.accumulate(rows, axis=0, out=rows)
        np.maximum.reduce(rows, axis=1, out=cum_opt[start:start + len(rows)])
        total = rows[-1]
    return cum_opt, int(np.argmax(total))


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
    each round's value table goes into one running total, round 1's
    copied and each later one's added in place, so the best fixed set's
    total value after each round (``cum_opt``, that total's maximum) is
    reported without spending counted queries, and the final total's
    first maximizer as ``opt_set``.  Callers that already hold these
    pass ``track_opt=False``: the experiment driver for every trial but
    the first of a cycle kind, whose sequence of functions, and so whose
    series and best set, is the first trial's; and replays that need
    only the chosen sets.

    ``streams`` holds one distinct Generator per subroutine.  Each
    stream's ``rounds`` coins are drawn up front as one ``random``
    block, which yields the same values as ``rounds`` sequential
    ``random()`` calls and leaves the stream in the same state; they
    become Python floats one block of rounds at a time, and round t
    hands ``run_round`` the list of every stream's coin t.
    ``keep_transcripts`` keeps each round's transcript and oracle,
    which the replay diagnostics read together.

    Against a :class:`CycleFunctionAdversary` with 2^n <= ``rounds``,
    n <= ENUMERATION_LIMIT and trees within ``_PREFIX_BYTES``, the game
    builds each distinct oracle's whole prefix tree from its value table
    before the first round, and every round follows its oracle's tree
    (``run_round``'s ``tree``) without a read.  The bound keeps a tree's
    2^n points within the rounds that use them; any other adversary or
    size walks every round.  Rounds are charged 2n either way, and their
    points are the same doubles.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    n = len(subroutines)
    if n < 1:
        raise ConfigError("need at least one subroutine")
    if len(streams) != n:
        raise ConfigError(f"need {n} coin streams, got {len(streams)}")
    if len(set(streams)) != n:
        raise ConfigError("coin streams must be distinct objects, one per subroutine")
    if track_opt and n > ENUMERATION_LIMIT:
        raise SizeError(f"tracking the best fixed set needs n <= {ENUMERATION_LIMIT}")
    # keyed by the oracle objects themselves, which the dict holds alive
    trees: dict[SubmodularOracle, list[BalancePoint | None]] = {}
    if _holds_prefix(adversary, n, rounds):
        trees = {g: _prefix_tree(g) for g in dict.fromkeys(adversary.oracles)}
    coins = np.empty((n, rounds))
    for stream, row in zip(streams, coins):
        stream.random(out=row)
    rewards = np.empty(rounds)
    round_queries = np.empty(rounds, dtype=np.int64)
    cum_opt = np.empty(rounds) if track_opt else None
    total: np.ndarray | None = None
    table_cache: dict[int, np.ndarray] = {}
    transcripts: list[RoundTranscript] | None = [] if keep_transcripts else None
    sets: list[int] | None = [] if keep_sets else None
    oracles: list[SubmodularOracle] | None = [] if keep_transcripts else None

    last_set: int | None = None
    for start in range(0, rounds, _COIN_BLOCK):
        for t, round_coins in enumerate(coins[:, start:start + _COIN_BLOCK].T.tolist(), start):
            f = adversary.next_oracle(last_set)
            if f.n != n:
                raise ConfigError(f"oracle ground size {f.n} != subroutine count {n}")
            tr = run_round(subroutines, f, round_coins, t=t + 1, tree=trees.get(f))
            rewards[t] = f.peek(tr.chosen)
            round_queries[t] = tr.queries
            if track_opt:
                key = id(f)
                table = table_cache.get(key)
                if table is None:
                    table = value_table(f)
                    table_cache[key] = table
                # a copy, not zeros plus the table: +0.0 + -0.0 is +0.0
                if total is None:
                    total = table.copy()
                else:
                    total += table
                cum_opt[t] = np.maximum.reduce(total)
            if transcripts is not None:
                transcripts.append(tr)
                oracles.append(f)
            if sets is not None:
                sets.append(tr.chosen)
            last_set = tr.chosen

    return UsmRunResult(
        rewards=rewards,
        cum_rewards=np.cumsum(rewards),
        cum_opt=cum_opt,
        round_queries=round_queries,
        max_round_queries=int(round_queries.max()),
        opt_set=int(np.argmax(total)) if track_opt else None,
        chosen_sets=sets,
        transcripts=transcripts,
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
    :func:`run_usm_game` with tracking.

    ``sub`` becomes a batch of shape (trials, n), bound once to its
    state, held yes-probabilities, scratch array and gather buffer.
    Element i + 1's point sits at node 2^i | S & (2^i - 1) for the
    round's chosen set S, so each distinct function's
    :func:`_prefix_points` become ``sub``'s point terms laid out set-major,
    (2^n, terms, n): row S holds every term of every element when the
    round chooses S.  A round is: decide (coin < p), pack S straight into
    the round's row of chosen sets, one ``take`` of the terms' rows at S
    straight into the batch's buffer (``mode="clip"``: every S is in
    range, and the default mode would copy through a temporary), and the
    batch's in-place ``update``, which also refreshes p.  Coins are drawn ``_COIN_BLOCK`` rounds of every
    stream at a time, as sequential draws would.  After play the rewards
    are gathered by S, the best set is tracked once (one read-only
    ``cum_opt``), each function is charged 2n per trial-round it played,
    and transcripts are built from the tree.  A point ``sub`` rejects
    raises :class:`InvalidPointError` in the first round that meets one,
    for its first trial and element.
    """
    trials = len(streams)
    oracles = adversary.oracles
    n = oracles[0].n
    flat = [stream for row in streams for stream in row]
    sets = np.arange(1 << n)
    bits = 1 << np.arange(n)
    # nodes[S, i]: element i + 1's node when the round chooses S
    nodes = (sets[:, None] & (bits - 1)) | bits
    built = {}
    for g in dict.fromkeys(oracles):
        alpha, beta = _prefix_points(value_table(g))
        terms, rejected = sub.point_terms(alpha, beta)
        built[g] = (np.moveaxis(terms[:, nodes], 0, 1).copy(), None if rejected is None else rejected[nodes],
                    alpha, beta)
    cycle = [built[g] for g in oracles]
    period = len(cycle)

    chosen = np.empty((rounds, trials), dtype=np.int64)
    coins = np.empty((trials * n, min(rounds, _COIN_BLOCK)))
    batch = sub.batch((trials, n))
    decide, gathered, update = batch.decide, batch.gathered, batch.update
    for start in range(0, rounds, _COIN_BLOCK):
        size = min(_COIN_BLOCK, rounds - start)
        for stream, row in zip(flat, coins):
            stream.random(out=row[:size])
        # each round's coins contiguous, (trials, n)
        for t, round_coins in enumerate(np.ascontiguousarray(coins[:, :size].T).reshape(size, trials, n), start):
            s = decide(round_coins).dot(bits, out=chosen[t])
            terms, rejected, alpha, beta = cycle[t % period]
            if rejected is not None:
                hit = rejected[s]
                if hit.any():
                    k, i = np.argwhere(hit)[0]
                    node = nodes[s[k], i]
                    raise _point_error(alpha[node].item(), beta[node].item())
            terms.take(s, axis=0, out=gathered, mode="clip")
            update()

    tables = [value_table(g) for g in oracles]
    which = np.arange(rounds) % period
    rewards = np.stack(tables)[which, chosen.T]
    cum_rewards = np.cumsum(rewards, axis=1)
    for j, g in enumerate(oracles):
        g._charge(2 * n * trials * len(range(j, rounds, period)))
    cum_opt, opt_set = _cycle_best(tables, rounds)
    cum_opt.flags.writeable = False
    round_queries = np.full(rounds, 2 * n, dtype=np.int64)

    if keep_transcripts:
        # each round's alpha and beta at every node, by cycle position
        sides = [np.stack([c[side] for c in cycle]) for side in (2, 3)]
    results = []
    for k in range(trials):
        res = UsmRunResult(rewards=rewards[k], cum_rewards=cum_rewards[k], cum_opt=cum_opt,
                           round_queries=round_queries, max_round_queries=2 * n, opt_set=opt_set)
        if keep_transcripts:
            path = which[:, None], nodes[chosen[:, k]]
            points = zip(*(side[path].tolist() for side in sides))
            res.transcripts = [
                RoundTranscript(t, s, tuple(map(BalancePoint._make, zip(a, b))), 2 * n)
                for t, s, (a, b) in zip(range(1, rounds + 1), chosen[:, k].tolist(), points)
            ]
            res.oracles = [oracles[t % period] for t in range(rounds)]
        results.append(res)
    return results


@dataclass(frozen=True)
class TrackingViolation:
    """First failed replay relation: which one, at which element."""

    index: int
    relation: str
    lhs: float
    rhs: float


def opt_tracking_check(
    transcript: RoundTranscript,
    f: SubmodularOracle,
    opt: int,
) -> TrackingViolation | None:
    """Replay one round against a reference set morphing into the choice.

    OPT_0 = ``opt``; OPT_i copies decision i.  Checks, per element, the
    two value-update equalities for X and Y and the submodularity bound
    on how much the reference set's value may drop:

        yes: f(X_i) = f(X_{i-1}) + alpha_i,  f(Y_i) = f(Y_{i-1}),
             i not in OPT => f(OPT_i) >= f(OPT_{i-1}) - beta_i;
        no:  f(X_i) = f(X_{i-1}),  f(Y_i) = f(Y_{i-1}) + beta_i,
             i in OPT     => f(OPT_i) >= f(OPT_{i-1}) - alpha_i.

    Returns None when every relation holds within ``VALUE_TOL``.
    """
    n = len(transcript.marginals)
    xs = transcript.x_sets
    ys = transcript.y_sets
    opt_cur = opt
    f_opt_cur = f.peek(opt_cur)
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        alpha, beta = transcript.marginals[i - 1]
        fx_prev = f.peek(xs[i - 1])
        fx_cur = f.peek(xs[i])
        fy_prev = f.peek(ys[i - 1])
        fy_cur = f.peek(ys[i])
        if transcript.chosen & bit:
            if abs(fx_cur - (fx_prev + alpha)) > VALUE_TOL:
                return TrackingViolation(i, "x-gain", fx_cur, fx_prev + alpha)
            if abs(fy_cur - fy_prev) > VALUE_TOL:
                return TrackingViolation(i, "y-unchanged", fy_cur, fy_prev)
            opt_next = opt_cur | bit
            f_opt_next = f.peek(opt_next)
            if not opt & bit and f_opt_next < f_opt_cur - beta - VALUE_TOL:
                return TrackingViolation(i, "opt-drop-yes", f_opt_next, f_opt_cur - beta)
        else:
            if abs(fx_cur - fx_prev) > VALUE_TOL:
                return TrackingViolation(i, "x-unchanged", fx_cur, fx_prev)
            if abs(fy_cur - (fy_prev + beta)) > VALUE_TOL:
                return TrackingViolation(i, "y-gain", fy_cur, fy_prev + beta)
            opt_next = opt_cur & ~bit
            f_opt_next = f.peek(opt_next)
            if opt & bit and f_opt_next < f_opt_cur - alpha - VALUE_TOL:
                return TrackingViolation(i, "opt-drop-no", f_opt_next, f_opt_cur - alpha)
        opt_cur = opt_next
        f_opt_cur = f_opt_next
    if opt_cur != transcript.chosen:
        return TrackingViolation(n, "opt-final", float(opt_cur), float(transcript.chosen))
    return None


def value_identity_residual(
    transcripts: Sequence[RoundTranscript],
    oracles: Sequence[SubmodularOracle],
    i: int,
) -> float:
    """Residual of the per-element value-change identity, summed over rounds.

    For element i, the total growth of f(X_i) + f(Y_i) over the run must
    equal the yes-rounds' alpha_i plus the no-rounds' beta_i.  Returns
    lhs - rhs (zero up to float accumulation).
    """
    prev = i - 1
    lhs = 0.0
    rhs = 0.0
    for tr, f in zip(transcripts, oracles):
        xs = tr.x_sets
        ys = tr.y_sets
        lhs += f.peek(xs[i]) - f.peek(xs[prev]) + f.peek(ys[i]) - f.peek(ys[prev])
        alpha, beta = tr.marginals[prev]
        rhs += alpha if tr.chosen >> prev & 1 else beta
    return lhs - rhs
