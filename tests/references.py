"""Reference implementations that the tests check the program against.

Each is the code the program ran before it was replaced, kept verbatim
in its arithmetic, so a test can require the new code to give the same
values bit for bit (``==`` on floats, never a tolerance):

* ``usm_alpha_regret``: the independent regret of a recorded history;
* ``balance_alpha_regret``: the balance game's regret of a final ledger;
* ``reference_usm_rows`` / ``reference_balance_rows``: the tuple rows
  that ``run_experiment`` assembled before it returned column arrays;
* ``reference_tracking``: the per-round ``cum_table += table`` tracking
  of the best fixed set that ``run_usm_game`` did before it accumulated
  blocks of rounds;
* ``distinct_tables``: each round's value table, built once per distinct
  oracle, as the replay diagnostics summed them before the game
  reported its best set;
* ``reference_csv_line``: the per-cell CSV formatting of a tuple row.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from onlineusm.balance import Ledger
from onlineusm.errors import SizeError
from onlineusm.submodular import ENUMERATION_LIMIT, SubmodularOracle, value_table


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
        n = items[0][0].ground.n
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


def reference_usm_rows(results, rounds: int, alpha: float) -> list[tuple]:
    """Tuple rows of USM trials' ``UsmRunResult``s, in (trial, t) order."""
    rows = []
    for k, res in enumerate(results):
        rows.extend(zip(
            repeat(k),
            range(1, rounds + 1),
            res.rewards.tolist(),
            res.cum_rewards.tolist(),
            res.cum_opt.tolist(),
            (alpha * res.cum_opt - res.cum_rewards).tolist(),
            np.cumsum(res.round_queries).tolist(),
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


def reference_csv_line(row: tuple) -> str:
    """One CSV line of a tuple row: ints by ``str``, floats by ``.12g``."""
    return ",".join(str(v) if isinstance(v, int) else format(v, ".12g") for v in row)
