"""Reference implementations that the tests check the program against.

Each is the code the program ran before it was replaced, kept verbatim
in its arithmetic, so a test can require the new code to give the same
values bit for bit (``==`` on floats, never a tolerance):

* ``usm_alpha_regret``: the independent regret of a recorded history;
* ``balance_alpha_regret``: the balance game's regret of a final ledger;
* ``reference_usm_rows`` / ``reference_balance_rows``: the tuple rows
  that ``run_experiment`` assembled before it returned column arrays;
* ``reference_tracking``: the per-round ``cum_table += table`` tracking
  of the best fixed set, which ``run_usm_game`` must match;
* ``reference_experiment``: a USM experiment's result columns, every
  trial played round by round on fresh pieces, with rewards and the
  best fixed set read by peeks, which ``run_experiment`` must match;
* ``distinct_tables``: each round's value table, built once per distinct
  oracle, as the replay diagnostics summed them before the game
  reported its best set;
* ``reference_csv_line``: the per-cell CSV formatting of a tuple row;
* ``reference_random_digraph``: the random digraph drawn one scalar
  coin and one ``uniform`` weight at a time;
* ``opt_tracking_check`` / ``value_identity_residual``: the replay of
  one round record, and of a run's records for one element, by peeks,
  which the array replay ``framework._replay`` must match; a record is a
  ``RoundRecord``, the chosen set and points that ``framework.run_round``
  returns, ``kept_rounds`` turns a run's kept arrays back into records,
  and ``decisions``, ``x_sets`` and ``y_sets`` derive a record's
  decisions and chains;
* ``reference_sweep`` / ``reference_rand_sweep``: the scalar
  double-greedy sweep, one counted query per mask, that the offline
  walk replaced, with ``reference_coin_rule`` its randomized rule.

The rest are helpers that only the tests call, so they live here and not
in the package:

* ``oracle_from_table``: an oracle over a read-only copy of an explicit
  table;
* ``CountingCycle``: a cycle adversary that reads each round's counted
  queries off its oracles' counters;
* ``mask_of``: a bitmask from 1-based element ids;
* ``same_bits``: whether two floats are the very same double;
* ``reconstruct``: the point that ``decompose``'s weights combine to;
* ``expected_ledger_deltas``: the expected one-round ledger changes that
  ``step_invariant_deltas`` adds to its potential changes;
* ``covariance_estimate`` over ``BUILTIN_COVARIANCE_RULES``: the
  two-step coin experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from onlineusm.adversaries import CycleFunctionAdversary
from onlineusm.balance import Ledger
from onlineusm.errors import ConfigError, DomainError, InvalidSubsetError, SizeError
from onlineusm.framework import run_round
from onlineusm.harness import RESULT_HEADER, build_subroutine, build_usm_adversary, coin_stream
from onlineusm.submodular import (
    ENUMERATION_LIMIT,
    VALUE_TOL,
    DirectedGraph,
    Mask,
    SubmodularOracle,
    _table_oracle,
    full_mask,
    value_table,
)


def distinct_tables(oracles: Sequence[SubmodularOracle]) -> list[np.ndarray]:
    """``value_table`` of each oracle, built once per distinct oracle.

    The cache is keyed by the oracle objects themselves, so it holds
    each one alive and a key cannot be reused by a later object.
    """
    cache: dict[SubmodularOracle, np.ndarray] = {}
    out = []
    for f in oracles:
        table = cache.get(f)
        if table is None:
            table = cache[f] = value_table(f)
        out.append(table)
    return out


def usm_alpha_regret(
    history: Iterable[tuple[SubmodularOracle, int]],
    a: float,
    opt: int | str = "compute",
) -> float:
    """a * (best fixed set's total value) - (algorithm's total value).

    ``opt="compute"`` brute-forces the best fixed subset of the summed
    function (n <= 20, ties to the smallest bitmask); or pass a bitmask
    to compare against a specific fixed set.
    """
    items = list(history)
    if not items:
        return 0.0
    algo_total = 0.0
    if opt == "compute":
        n = items[0][0].n
        if n > ENUMERATION_LIMIT:
            raise SizeError(
                f"computing the best fixed set needs n <= {ENUMERATION_LIMIT}; supply opt explicitly"
            )
        total = np.zeros(1 << n)
        for table, (_, chosen) in zip(distinct_tables([f for f, _ in items]), items):
            total += table
            algo_total += float(table[chosen])
        best = float(total.max())
    else:
        best = 0.0
        for f, chosen in items:
            best += f.peek(int(opt))
            algo_total += f.peek(chosen)
    return a * best - algo_total


def balance_alpha_regret(ledger: Ledger, a: float) -> float:
    """a * max(C_yes, C_no) - R_alg; a is meant to lie in (0, 1]."""
    return a * max(ledger.c_yes, ledger.c_no) - ledger.r_alg


def reference_usm_rows(results, rounds: int, alpha: float, round_queries: int) -> list[tuple]:
    """Tuple rows of USM trials' ``UsmRunResult``s, in (trial, t) order,
    each round costing ``round_queries`` counted queries."""
    rows = []
    for k, res in enumerate(results):
        rows.extend(zip(
            repeat(k),
            range(1, rounds + 1),
            res.rewards.tolist(),
            res.cum_rewards.tolist(),
            res.cum_opt.tolist(),
            (alpha * res.cum_opt - res.cum_rewards).tolist(),
            (round_queries * t for t in range(1, rounds + 1)),
        ))
    return rows


def reference_balance_rows(results, rounds: int, alpha: float) -> list[tuple]:
    """Tuple rows of balance trials' ``BalanceRunResult``s, in (trial, t) order."""
    rows = []
    for k, res in enumerate(results):
        prev = 0.0
        for t in range(rounds):
            cum_r = float(res.reward_series[t])
            pile = float(res.pile_series[t])
            rows.append(
                (k, t + 1, cum_r - prev, cum_r, pile, alpha * pile - cum_r, 0)
            )
            prev = cum_r
    return rows


def reference_tracking(tables: Iterable[np.ndarray]) -> tuple[np.ndarray, float, int]:
    """``cum_opt`` series, final best value and first best set of the
    rounds' value tables, one ``+=`` and one maximum per round."""
    cum_table = None
    cum_opt = []
    for table in tables:
        if cum_table is None:
            cum_table = table.copy()
        else:
            cum_table += table
        cum_opt.append(np.maximum.reduce(cum_table))
    return np.array(cum_opt), float(cum_table.max()), int(np.argmax(cum_table))


def reference_experiment(config) -> dict[str, np.ndarray]:
    """The result columns of a validated USM ``ExperimentConfig``, built
    from scalar pieces that share no cache with the engines.

    Each trial plays a fresh adversary and fresh subroutines, one
    ``run_round`` per round on the trial's coin streams drawn one coin at
    a time.  A round's reward is a ``peek`` of its chosen set, and its
    queries are what its oracle's counter gained.  The best fixed set's
    running totals are 2^n peeks a round, each added to the last total
    from -0.0 on, as ``_cycle_best`` adds them, so the doubles match;
    ``cum_opt`` is their maximum after each round.
    """
    n, rounds = config.n, config.rounds
    cells: dict[str, list] = {name: [] for name in RESULT_HEADER}
    for k in range(config.trials):
        adversary = build_usm_adversary(config.adversary, n, config.seed)
        subs = [build_subroutine(config.subroutine, rounds) for _ in range(n)]
        streams = [coin_stream(config.seed, k, i) for i in range(n)]
        totals = [-0.0] * (1 << n)
        chosen, cum_reward, queries = None, 0.0, 0
        for t in range(1, rounds + 1):
            f = adversary.next_oracle(chosen)
            before = f.queries
            chosen, _ = run_round(subs, f, [s.random() for s in streams])
            queries += f.queries - before
            reward = f.peek(chosen)
            cum_reward = reward if t == 1 else cum_reward + reward
            totals = [total + f.peek(m) for m, total in enumerate(totals)]
            cum_opt = float(np.maximum.reduce(np.array(totals)))
            for name, value in zip(RESULT_HEADER, (k, t, reward, cum_reward, cum_opt,
                                                   config.alpha * cum_opt - cum_reward, queries)):
                cells[name].append(value)
    return {name: np.array(values, dtype=np.float64 if isinstance(values[0], float) else np.int64)
            for name, values in cells.items()}


class CountingCycle(CycleFunctionAdversary):
    """A cycle that notes its oracles' total counted queries as it hands
    out each round's oracle, so that ``round_queries()`` gives what each
    round cost by the counters alone, not by what the game reports."""

    def __init__(self, oracles: Sequence[SubmodularOracle]):
        super().__init__(oracles)
        self.marks: list[int] = []

    def _total(self) -> int:
        return sum(f.queries for f in set(self.oracles))

    def next_oracle(self, last_set: int | None = None) -> SubmodularOracle:
        self.marks.append(self._total())
        return super().next_oracle(last_set)

    def round_queries(self) -> list[int]:
        return np.diff([*self.marks, self._total()]).tolist()


def reference_csv_line(row: tuple) -> str:
    """One CSV line of a tuple row: ints by ``str``, floats by ``.12g``."""
    return ",".join(str(v) if isinstance(v, int) else format(v, ".12g") for v in row)


def reference_random_digraph(
    n: int,
    density: float,
    weight_range: tuple[float, float],
    rng: np.random.Generator,
) -> DirectedGraph:
    """Each ordered pair becomes an edge with probability ``density``."""
    lo, hi = weight_range
    edges = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < density:
                edges.append((u, v, float(rng.uniform(lo, hi))))
    return DirectedGraph(n, tuple(edges))


class RoundRecord(NamedTuple):
    """One round as ``framework.run_round`` returns it, the chosen set and
    the (alpha, beta) pair fed to each subroutine, with the two named:
    ``RoundRecord(*run_round(...))``."""

    chosen: int
    points: tuple[tuple[float, float], ...]


def decisions(tr: RoundRecord) -> tuple[bool, ...]:
    """Each subroutine's action, True for yes: bit i of the chosen set."""
    return tuple(bool(tr.chosen >> i & 1) for i in range(len(tr.points)))


def x_sets(tr: RoundRecord) -> tuple[int, ...]:
    """X_0..X_n: the chosen elements among the first i."""
    return tuple(tr.chosen & ((1 << i) - 1) for i in range(len(tr.points) + 1))


def y_sets(tr: RoundRecord) -> tuple[int, ...]:
    """Y_0..Y_n: X_i plus every element after i."""
    full = full_mask(len(tr.points))
    return tuple(tr.chosen | (full >> i << i) for i in range(len(tr.points) + 1))


def kept_rounds(res) -> list[RoundRecord]:
    """The round records of a ``UsmRunResult`` that kept its rounds, from
    its chosen sets and points."""
    return [
        RoundRecord(s, tuple(map(tuple, pts)))
        for s, pts in zip(res.chosen_sets, res.points.tolist())
    ]


@dataclass(frozen=True)
class TrackingViolation:
    """First failed replay relation: which one, at which element."""

    index: int
    relation: str
    lhs: float
    rhs: float


def opt_tracking_check(
    transcript: RoundRecord,
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
    n = len(transcript.points)
    xs = x_sets(transcript)
    ys = y_sets(transcript)
    opt_cur = opt
    f_opt_cur = f.peek(opt_cur)
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        alpha, beta = transcript.points[i - 1]
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
    transcripts: Sequence[RoundRecord],
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
        xs = x_sets(tr)
        ys = y_sets(tr)
        lhs += f.peek(xs[i]) - f.peek(xs[prev]) + f.peek(ys[i]) - f.peek(ys[prev])
        alpha, beta = tr.points[prev]
        rhs += alpha if tr.chosen >> prev & 1 else beta
    return lhs - rhs


def reference_sweep(
    f: SubmodularOracle, choose_yes: Callable[[float, float], bool]
) -> tuple[Mask, float]:
    """One double-greedy sweep, one counted ``evaluate`` per mask."""
    n = f.n
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


def reference_coin_rule(a: float, b: float, coin: float) -> bool:
    """The randomized sweep's scalar rule: yes with probability a+ / (a+ + b+)."""
    ap = a if a > 0.0 else 0.0
    bp = b if b > 0.0 else 0.0
    p = 1.0 if ap + bp <= 0.0 else ap / (ap + bp)
    return coin < p


def reference_rand_sweep(f: SubmodularOracle, coins: np.ndarray) -> tuple[Mask, float]:
    """The randomized sweep, deciding element i + 1 with ``coins[i]``."""
    coin = iter(coins.tolist()).__next__
    return reference_sweep(f, lambda a, b: reference_coin_rule(a, b, coin()))


def oracle_from_table(values: Sequence[float] | np.ndarray) -> SubmodularOracle:
    """Oracle backed by an explicit table of 2^n finite values in [0, 1].

    The table is a read-only copy of ``values``, so later writes to the
    caller's array do not reach the oracle, and no reader of the oracle
    can write it.
    """
    return _table_oracle(np.array(values, dtype=float))


def mask_of(elements: Iterable[int], n: int | None = None) -> Mask:
    """Build a bitmask from 1-based element ids, validating the range."""
    mask = 0
    for e in elements:
        if e < 1 or (n is not None and e > n):
            raise InvalidSubsetError(f"element {e} outside ground set 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def same_bits(a: float, b: float) -> bool:
    """True when ``a`` and ``b`` are the same double, -0.0 apart from 0.0."""
    return float(a).hex() == float(b).hex()


def reconstruct(c_up: float, c_right: float, c_left: float) -> tuple[float, float]:
    """The point (alpha, beta) that weights over up/right/left combine to."""
    a = c_up + c_right - c_left
    b = c_up - c_right + c_left
    return a, b


def expected_ledger_deltas(p: float, pt: tuple[float, float]) -> tuple[float, float, float]:
    """Expected one-round (dR_alg, dC_yes, dC_no) when yes has probability p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    alpha, beta = pt
    d_r = p * 0.5 * alpha + (1.0 - p) * 0.5 * beta
    d_cyes = (1.0 - p) * alpha
    d_cno = p * beta
    return d_r, d_cyes, d_cno


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
    X2 ~ Bernoulli(p2).  Even when the second coin's bias is picked after
    seeing the first outcome, the true covariance is zero, so estimates
    concentrate within a few multiples of 1/sqrt(samples).
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
