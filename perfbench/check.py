"""Independent check of one workload command's output.

Uses only public ``onlineusm`` functions.  For the online game every
trial is checked on its own, so a failed trial adds no work to goodput:

* rows: ``t`` runs 1..T, ``cum_reward`` is the running sum of ``reward``,
  ``alpha_regret = alpha*cum_opt - cum_reward``, and no round spends more
  than 4n+2 counted queries;
* the final ``cum_opt`` (or, without rows, the summary's final regret)
  matches a best-fixed-set value computed another way: for cycle
  adversaries from per-function round counts and the k value tables, for
  fresh-random adversaries by replaying the draws, and for adaptive
  adversaries by replaying the trial, checking its rewards against the
  output and feeding its chosen sets to a fresh adversary.

The offline run is checked against the instance's full value table and
the paper's approximation ladder: deterministic double greedy >= OPT/3,
uniform random subset >= OPT/4, randomized double greedy mean >=
OPT/2 - 3 standard errors.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from workloads import OFFLINE_DENSITY, Workload

#: relative tolerance for values read back from the output; CSV cells carry
#: 12 significant digits, so sums over a few thousand rounds agree to ~1e-12
REL_TOL = 1e-9
#: z-score of the randomized sweep's mean below OPT/2 still accepted
LADDER_Z = 3.0


@dataclass
class CheckResult:
    """Which checked units (trials, or the one offline run) failed, and why."""

    units: int
    failed: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    #: most counted queries spent in one round (0 for the offline ladder)
    queries_per_round: int = 0

    def fail(self, unit: int | None, reason: str) -> None:
        """Mark one unit (or, with ``None``, every unit) as failed."""
        self.failed.update(range(self.units) if unit is None else (unit,))
        self.reasons.append(reason)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_output(workload: Workload, seed: int, path: str, stdout: str) -> CheckResult:
    """Check the file the command wrote and the summary it printed."""
    result = CheckResult(workload.units)
    try:
        summary = json.loads(stdout)
        if workload.offline:
            _check_offline(workload, seed, path, summary, result)
        else:
            _check_usm(workload, seed, path, summary, result)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.fail(None, f"unreadable output: {exc!r}")
    return result


# --- online game ----------------------------------------------------------

def _read_rows(workload: Workload, path: str, summary: dict):
    """Rows as a float array (RESULT_HEADER order), or None when summary-only."""
    if workload.fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        from onlineusm import RESULT_HEADER

        if tuple(table[0]) != RESULT_HEADER:
            raise ValueError(f"bad header {table[0]}")
        body = table[1:]
    else:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj["summary"] != summary:
            raise ValueError("summary in the file differs from the printed one")
        body = obj.get("rows")
    if workload.summary_only:
        if body:
            raise ValueError("--summary-only output carries rows")
        return None
    return np.array(body, dtype=float).reshape(-1, 7)


def _check_usm(workload: Workload, seed: int, path: str, summary: dict, result: CheckResult):
    n, T, K = workload.n, workload.rounds, workload.trials
    budget = 4 * n + 2
    for key, want in (("game", "usm"), ("n", n), ("rounds", T), ("trials", K), ("seed", seed),
                      ("adversary", workload.adversary), ("query_budget_per_round", budget)):
        if summary[key] != want:
            result.fail(None, f"summary {key}={summary[key]!r}, expected {want!r}")
            return
    alpha = summary["alpha"]
    finals = summary["final_alpha_regret"]
    if len(finals) != K:
        result.fail(None, f"{len(finals)} final regrets for {K} trials")
        return
    rows = _read_rows(workload, path, summary)
    if rows is not None and rows.shape[0] != K * T:
        result.fail(None, f"{rows.shape[0]} rows, expected {K * T}")
        return
    if summary["max_round_queries"] > budget:
        result.fail(None, f"max_round_queries {summary['max_round_queries']} > 4n+2 = {budget}")
    result.queries_per_round = summary["max_round_queries"]

    from onlineusm import CycleFunctionAdversary, build_usm_adversary

    kind = workload.adversary.partition(":")[0]
    built = build_usm_adversary(workload.adversary, n, seed)

    def fresh_adversary():
        # a cycle adversary's tables are costly to rebuild; a new cycle over
        # the same oracles replays the same functions
        if kind == "cycle-random":
            return CycleFunctionAdversary(built.oracles)
        return build_usm_adversary(workload.adversary, n, seed)

    oblivious_opt = None if kind == "adaptive" else _oblivious_opt(workload, fresh_adversary())
    for k in range(K):
        replay = None
        if rows is None or kind == "adaptive":
            replay = _replay_trial(workload, seed, k, fresh_adversary())
        if rows is None:
            cum_reward = float(replay.cum_rewards[-1])
            if replay.max_round_queries > summary["max_round_queries"]:
                result.fail(k, f"trial {k}: replay spends {replay.max_round_queries} queries in a round")
        else:
            trial = rows[k * T:(k + 1) * T]
            _check_trial_rows(k, trial, alpha, budget, result)
            cum_reward = trial[-1, 3]
            if replay is not None and not np.allclose(replay.rewards, trial[:, 2], rtol=REL_TOL, atol=0.0):
                result.fail(k, f"trial {k}: rewards differ from a replay of the trial")
        want_opt = _adaptive_opt(workload, replay.chosen_sets) if kind == "adaptive" else oblivious_opt
        if rows is not None and not _close(trial[-1, 4], want_opt):
            result.fail(k, f"trial {k}: final cum_opt {trial[-1, 4]:.12g}, "
                           f"best fixed set is worth {want_opt:.12g}")
        if not _close(finals[k], alpha * want_opt - cum_reward):
            result.fail(k, f"trial {k}: final_alpha_regret {finals[k]:.12g}, "
                           f"expected {alpha * want_opt - cum_reward:.12g}")


def _check_trial_rows(k: int, trial: np.ndarray, alpha: float, budget: int, result: CheckResult):
    T = trial.shape[0]
    trial_col, t, reward, cum_reward, cum_opt, regret, queries = trial.T
    if np.any(trial_col != k) or np.any(t != np.arange(1, T + 1)):
        result.fail(k, f"trial {k}: rows are not t = 1..{T} of trial {k}")
    scale = np.maximum(1.0, np.abs(cum_opt) + np.abs(cum_reward))
    if np.any(np.abs(np.cumsum(reward) - cum_reward) > REL_TOL * scale):
        result.fail(k, f"trial {k}: cum_reward is not the running sum of reward")
    if np.any(np.abs(alpha * cum_opt - cum_reward - regret) > REL_TOL * scale):
        result.fail(k, f"trial {k}: alpha_regret != alpha*cum_opt - cum_reward")
    per_round = np.diff(queries, prepend=0.0)
    worst = int(per_round.max())
    result.queries_per_round = max(result.queries_per_round, worst)
    if worst > budget or per_round.min() < 1:
        result.fail(k, f"trial {k}: a round spends {worst} queries (budget {budget})")


def _oblivious_opt(workload: Workload, adversary) -> float:
    """Best fixed set's total value against an adversary that ignores the play."""
    from onlineusm import value_table

    T = workload.rounds
    if workload.adversary.startswith("cycle-random"):  # round t plays oracle t mod k
        k = len(adversary.oracles)
        counts = [len(range(j, T, k)) for j in range(k)]
        total = sum(c * value_table(f) for c, f in zip(counts, adversary.oracles))
    else:
        total = np.zeros(1 << workload.n)
        for _ in range(T):
            total += value_table(adversary.next_oracle(None))
    return float(total.max())


def _replay_trial(workload: Workload, seed: int, trial: int, adversary):
    """Rerun one trial through the public game loop, keeping its chosen sets."""
    from onlineusm import build_subroutine, coin_stream, run_usm_game

    n, T = workload.n, workload.rounds
    subs = [build_subroutine(workload.subroutine, T) for _ in range(n)]
    streams = [coin_stream(seed, trial, i) for i in range(n)]
    return run_usm_game(subs, adversary, T, streams, track_opt=False, keep_sets=True)


def _adaptive_opt(workload: Workload, chosen_sets: list[int]) -> float:
    """Feed the trial's chosen sets to a fresh adaptive adversary and sum its tables."""
    from onlineusm import AdaptiveCutAdversary, value_table

    adversary = AdaptiveCutAdversary(workload.n, workload.adversary.partition(":")[2])
    total = np.zeros(1 << workload.n)
    last = None
    for chosen in chosen_sets:
        total += value_table(adversary.next_oracle(last))
        last = chosen
    return float(total.max())


# --- offline ladder -------------------------------------------------------

def _check_offline(workload: Workload, seed: int, path: str, summary: dict, result: CheckResult):
    from onlineusm import instance_rng, normalize, random_digraph, value_table

    with open(path, encoding="utf-8") as fh:
        if json.load(fh)["summary"] != summary:
            raise ValueError("summary in the file differs from the printed one")
    g = random_digraph(workload.n, OFFLINE_DENSITY, (0.0, 1.0), instance_rng(seed))
    table = value_table(normalize(g))
    opt = float(table.max())
    rdg = summary["rand_double_greedy"]
    checks = [
        (summary["n"] == workload.n and summary["seed"] == seed, "instance n/seed"),
        (summary["edges"] == len(g.edges), "edge count of the instance"),
        (summary["rdg_trials"] == workload.trials, "randomized sweep count"),
        (_close(summary["opt"]["value"], opt), f"opt {summary['opt']['value']} != table max {opt}"),
        (_close(table[summary["opt"]["set"]], opt), "opt set does not reach the optimum"),
        (_close(table[summary["det_double_greedy"]["set"]], summary["det_double_greedy"]["value"]),
         "det double greedy value != f(its set)"),
        (summary["det_double_greedy"]["value"] >= opt / 3 - REL_TOL, "det double greedy < OPT/3"),
        (_close(summary["uniform_random_value"], float(table.mean())), "uniform value != table mean"),
        (summary["uniform_random_value"] >= opt / 4 - REL_TOL, "uniform random subset < OPT/4"),
        (_close(table[rdg["best_set"]], rdg["best_value"]), "randomized best value != f(its set)"),
        (rdg["best_value"] <= opt * (1 + REL_TOL), "randomized best value exceeds OPT"),
        (rdg["mean"] >= opt / 2 - LADDER_Z * rdg["std"] / workload.trials ** 0.5,
         "randomized mean < OPT/2 - 3 stderr"),
    ]
    for ok, what in checks:
        if not ok:
            result.fail(0, f"offline: {what}")
