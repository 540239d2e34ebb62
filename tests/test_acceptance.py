"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy online
runs (criteria 3, 4, 8 share them) are built once per subroutine in
module-scoped fixtures, through the harness's per-experiment helper
``_usm_trials``, the path ``run_experiment`` takes.  Their 50 trials
against one 4-function cycle play as one batch
(``framework.run_cycle_trials``), bit for bit the 50 games one by one
(``tests/test_batched_trials.py``); so does criterion 9's run.
"""

import math
import time

import numpy as np
import pytest

from onlineusm.balance import LEFT, RIGHT, UP, BalancePoint, Balancer, step_invariant_deltas
from onlineusm.framework import opt_tracking_check, run_usm_game, value_identity_residual
from onlineusm.harness import (
    ExperimentConfig,
    _usm_trials,
    build_balance_adversary,
    build_subroutine,
    build_usm_adversary,
    coin_stream,
    run_balance_game,
    run_experiment,
    write_results,
)
from onlineusm.offline import (
    brute_force_opt,
    det_double_greedy,
    rand_double_greedy_stats,
    uniform_random_value,
)
from onlineusm.submodular import normalize, random_digraph, tabulate, value_table

from references import BUILTIN_COVARIANCE_RULES, balance_alpha_regret, covariance_estimate

SEED = 2026
TRIALS = 50
HORIZONS = (1000, 4000, 16000)
GROWTH_CAP = 3.2


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def growth_capped(r_small: float, r_big: float) -> bool:
    """Regret growth cap between horizons T and 4T.

    In the positive regime this is exactly r_big / r_small <= 3.2
    (sqrt-like growth gives ~2, linear gives ~4).  When the regret at
    the larger horizon is nonpositive there is no growth to cap; when
    the smaller one is nonpositive the larger must be too.
    """
    if r_small > 0.0:
        return r_big <= GROWTH_CAP * r_small
    return r_big <= 0.0


def _usm_runs(subroutine: str, alpha: float):
    start = time.perf_counter()
    runs = {}
    for horizon in HORIZONS:
        cfg = ExperimentConfig(
            game="usm", n=8, rounds=horizon, trials=TRIALS, seed=SEED,
            subroutine=subroutine, adversary="cycle-random:k=4", alpha=alpha,
        ).validated()
        runs[horizon] = _usm_trials(cfg)
    return runs, alpha, time.perf_counter() - start


@pytest.fixture(scope="module")
def balancer_runs():
    return _usm_runs("balancer", alpha=0.5)


@pytest.fixture(scope="module")
def mw_runs():
    return _usm_runs("mw", alpha=1.0 / 3.0)


def test_1_offline_ladder():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_det = worst_uni = worst_rand = np.inf
    for k in range(50):
        oracle = tabulate(normalize(random_digraph(10, 0.5, (0.0, 1.0), rng)))
        opt = brute_force_opt(oracle).value
        det = det_double_greedy(oracle).value
        uni = uniform_random_value(oracle)
        stats = rand_double_greedy_stats(oracle, trials=10_000, seed=SEED + k)
        stderr = stats.std / math.sqrt(stats.trials)
        worst_det = min(worst_det, det - (opt / 3 - 1e-9))
        worst_uni = min(worst_uni, uni - (opt / 4 - 1e-9))
        worst_rand = min(worst_rand, stats.mean - (opt / 2 - 3 * stderr))
    elapsed = time.perf_counter() - start
    ok = worst_det >= 0 and worst_uni >= 0 and worst_rand >= 0 and elapsed < 120
    report(
        "offline ladder (1/3, 1/4, 1/2 of OPT over 50 instances)",
        ok,
        f"margins det={worst_det:.4f} uniform={worst_uni:.4f} rand={worst_rand:.4f}, {elapsed:.1f}s",
    )


def test_2_balancer_regret_bound():
    start = time.perf_counter()
    adversaries = [
        "pattern:U", "pattern:R", "pattern:L", "pattern:RL", "pattern:URL",
        "adaptive:punish-last", "adaptive:reward-chase",
    ]
    worst = -np.inf
    worst_case = ""
    for desc in adversaries:
        for horizon in (1000, 10_000):
            bound = 5 * math.sqrt(horizon)
            for seed in range(100):
                rng = np.random.default_rng((SEED, horizon, seed))
                res = run_balance_game(Balancer(horizon), build_balance_adversary(desc), horizon, rng)
                slack = balance_alpha_regret(res.ledger, 1.0) / bound
                if slack > worst:
                    worst = slack
                    worst_case = f"{desc} T={horizon}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 60
    report(
        "pacing subroutine 1-regret <= 5*sqrt(T) (7 adversaries x 2 horizons x 100 seeds)",
        ok,
        f"worst regret/(5 sqrt T) = {worst:.3f} at {worst_case}, {elapsed:.1f}s",
    )


def _growth_report(name: str, runs, alpha: float, elapsed: float, budget: float):
    means = {h: float(np.mean([alpha * r.cum_opt[-1] - r.cum_rewards[-1] for r in res]))
             for h, res in runs.items()}
    pairs = list(zip(HORIZONS, HORIZONS[1:]))
    checks = []
    for small, big in pairs:
        ratio = means[big] / means[small] if means[small] != 0 else float("inf")
        checks.append((growth_capped(means[small], means[big]), ratio))
    ok = all(c for c, _ in checks) and elapsed < budget
    detail = (
        " -> ".join(f"{means[h]:.1f}" for h in HORIZONS)
        + f"; raw ratios {', '.join(f'{r:.2f}' for _, r in checks)}"
        + f"; {elapsed:.1f}s"
    )
    report(name, ok, detail)


def test_3_online_half_regret_growth(balancer_runs):
    runs, alpha, elapsed = balancer_runs
    _growth_report(
        "online 1/2-regret growth cap, pacing subroutine (n=8, 4-function cycle, 50 seeds)",
        runs, alpha, elapsed, budget=300,
    )


def test_4_online_third_regret_growth(mw_runs):
    runs, alpha, elapsed = mw_runs
    _growth_report(
        "online 1/3-regret growth cap, two-experts subroutine (n=8, 4-function cycle, 50 seeds)",
        runs, alpha, elapsed, budget=300,
    )


def test_5_potential_step_invariant():
    horizon = 10_000
    bound = 2.0 / math.sqrt(horizon)
    failures = 0
    worst_margin = np.inf
    for i in range(101):
        p = i / 100
        for pt in (UP, RIGHT, LEFT):
            d_alg, d_yes, d_no = step_invariant_deltas(p, pt, horizon)
            margin = d_alg - (max(d_yes, d_no) - bound)
            worst_margin = min(worst_margin, margin)
            failures += margin < 0
    rng = np.random.default_rng(SEED)
    weights = rng.dirichlet((1.0, 1.0, 1.0), size=10_000)
    ps = rng.random(10_000)
    for (cu, cr, cl), p in zip(weights, ps):
        pt = BalancePoint(cu + cr - cl, cu - cr + cl)
        d_alg, d_yes, d_no = step_invariant_deltas(float(p), pt, horizon)
        margin = d_alg - (max(d_yes, d_no) - bound)
        worst_margin = min(worst_margin, margin)
        failures += margin < 0
    report(
        "per-step potential invariant (grid + 10^4 interior points, zero failures)",
        failures == 0,
        f"failures={failures}, worst margin={worst_margin:.3e}",
    )


def test_6_round_replay_relations():
    configs = [
        (3, "balancer", "fixed-random"),
        (4, "mw", "cycle-random:k=2"),
        (5, "uniform", "cycle-random:k=3"),
        (6, "balancer", "fresh-random"),
        (6, "always-yes", "fixed-random"),
        (8, "mw", "cycle-random:k=4"),
        (8, "balancer", "adaptive:punish-last-set"),
        (10, "balancer", "cycle-random:k=2"),
        (12, "mw", "fixed-random"),
        (12, "always-no", "cycle-random:k=2"),
    ]
    rounds = 40
    tracking_failures = 0
    worst_residual = 0.0
    for run_id, (n, subroutine, adversary_desc) in enumerate(configs):
        adversary = build_usm_adversary(adversary_desc, n, SEED + run_id)
        subs = [build_subroutine(subroutine, rounds) for _ in range(n)]
        streams = [coin_stream(SEED + run_id, 0, i) for i in range(n)]
        res = run_usm_game(subs, adversary, rounds, streams, keep_transcripts=True)
        tables = {}
        total = 0.0
        for f in res.oracles:
            if id(f) not in tables:
                tables[id(f)] = value_table(f)
            total = total + tables[id(f)]
        opt = int(np.argmax(total))
        for tr, f in zip(res.transcripts, res.oracles):
            if opt_tracking_check(tr, f, opt) is not None:
                tracking_failures += 1
        for i in range(1, n + 1):
            worst_residual = max(
                worst_residual,
                abs(value_identity_residual(res.transcripts, res.oracles, i)),
            )
    ok = tracking_failures == 0 and worst_residual <= 1e-9
    report(
        "round replay relations on 10 recorded runs (n <= 12)",
        ok,
        f"tracking failures={tracking_failures}, worst identity residual={worst_residual:.2e}",
    )


def test_7_adaptive_coin_covariance():
    n = 1_000_000
    bound = 4 / math.sqrt(n)
    worst = 0.0
    for name in BUILTIN_COVARIANCE_RULES:
        est = covariance_estimate(name, samples=n, seed=SEED)
        worst = max(worst, abs(est))
    report(
        "two-step coin covariance is zero (all built-in rules, N=10^6)",
        worst <= bound,
        f"worst |estimate| = {worst:.2e} vs bound {bound:.2e}",
    )


def test_8_query_budget(balancer_runs, mw_runs):
    budget = 4 * 8 + 2
    worst = 0
    for runs, _, _ in (balancer_runs, mw_runs):
        for results in runs.values():
            for res in results:
                worst = max(worst, res.max_round_queries)
    report(
        "per-round value-query budget <= 4n+2 on all online runs",
        worst <= budget,
        f"max queries per round = {worst} vs budget {budget}",
    )


def test_9_csv_determinism(tmp_path):
    cfg = ExperimentConfig(
        game="usm", n=8, rounds=1000, trials=TRIALS, seed=SEED,
        subroutine="balancer", adversary="cycle-random:k=4",
    ).validated()
    blobs = []
    for name in ("first.csv", "second.csv"):
        rows, summary = run_experiment(cfg)
        path = tmp_path / name
        write_results(rows, summary, "csv", str(path), config=cfg)
        blobs.append(path.read_bytes())
    report(
        "seeded rerun produces byte-identical CSV",
        blobs[0] == blobs[1],
        f"{len(blobs[0])} bytes each",
    )
