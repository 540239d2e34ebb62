#!/usr/bin/env python3
"""The balance subproblem and the pacing subroutine, move by move.

Each round the subroutine commits yes/no, then a point (alpha, beta)
from the up/right/left triangle is revealed.  Yes earns alpha/2 and
feeds the adversary's "no" pile by beta; no earns beta/2 and feeds the
"yes" pile by alpha.  The 1-regret target max(C_yes, C_no) - R_alg of
the pacing subroutine stays within a few sqrt(T) against every pattern,
including rules that adapt to its past decisions.

Run:  python3 demos/balance_pacing.py
"""

import math

import numpy as np

from onlineusm import (
    Balancer,
    TwoExperts,
    build_balance_adversary,
    decompose,
    potentials,
    run_balance_game,
)

T = 10_000
SEED = 3

print("decomposing a few points into up/right/left weights:")
for alpha, beta in [(1.0, 1.0), (1.0, -1.0), (0.0, 0.0), (0.3, 0.4)]:
    c_up, c_right, c_left = decompose((alpha, beta))
    print(f"  ({alpha:+.1f}, {beta:+.1f})  ->  up={c_up:.2f} right={c_right:.2f} left={c_left:.2f}")

print("\nthe three bookkeeping potentials at a few states (sqrt(T) = 100):")
for x in (0.0, 25.0, 50.0, 75.0, 100.0):
    p_alg, p_yes, p_no = potentials(x, T)
    print(f"  x={x:6.1f}   phi_alg={p_alg:6.2f}  phi_yes={p_yes:6.2f}  phi_no={p_no:6.2f}")

print(f"\n1-regret of the pacing subroutine over T={T} rounds (bound 5*sqrt(T) = {5 * math.sqrt(T):.0f}):")
adversaries = [
    "pattern:U", "pattern:R", "pattern:L", "pattern:RL", "pattern:URL",
    "adaptive:punish-last", "adaptive:reward-chase",
]
for desc in adversaries:
    regrets = []
    for seed in range(20):
        rng = np.random.default_rng((SEED, seed))
        res = run_balance_game(Balancer(T), build_balance_adversary(desc), T, rng)
        regrets.append(res.pile_series[-1] - res.reward_series[-1])
    print(f"  {desc:22s}  mean {np.mean(regrets):10.1f}   worst {max(regrets):10.1f}")

print(f"\nthe two-experts learner on the same patterns, scored at 1/2-regret:")
for desc in ("pattern:U", "pattern:RL", "pattern:URL"):
    regrets = []
    for seed in range(20):
        rng = np.random.default_rng((SEED, seed, 7))
        res = run_balance_game(TwoExperts(T), build_balance_adversary(desc), T, rng)
        regrets.append(0.5 * res.pile_series[-1] - res.reward_series[-1])
    print(f"  {desc:22s}  mean {np.mean(regrets):10.1f}   worst {max(regrets):10.1f}")

# Why pacing beats plain experts here: the experts learner only tracks
# total reward, while the pacing state x targets the *separate* piles
# C_yes and C_no, trading reward to keep the larger pile in check.
