#!/usr/bin/env python3
"""The online game end to end: pick a subset, then see the function.

An adversary cycles four random cut functions on n = 8 elements.  Each
round the framework asks eight per-element subroutines for yes/no,
plays the resulting set, and only then reveals the function and feeds
every subroutine its two marginal values.  The score to beat: half the
value of the best *fixed* subset in hindsight.

Run:  python3 demos/online_game.py
"""

import numpy as np

from onlineusm import (
    build_subroutine,
    build_usm_adversary,
    coin_stream,
    default_checkpoints,
    fit_growth_exponent,
    run_usm_game,
)

N = 8
T = 4000
SEED = 5

for name in ("balancer", "mw", "uniform", "always-no"):
    adversary = build_usm_adversary("cycle-random:k=4", N, SEED)
    subs = [build_subroutine(name, T) for _ in range(N)]
    streams = [coin_stream(SEED, 0, i) for i in range(N)]
    res = run_usm_game(subs, adversary, T, streams)
    total = res.cum_rewards[-1]
    best_fixed = res.cum_opt[-1]
    print(
        f"{name:10s}  total value {total:9.1f}   half of best fixed {0.5 * best_fixed:9.1f}"
        f"   1/2-regret {0.5 * best_fixed - total:9.1f}"
        f"   queries/round <= {res.max_round_queries} (budget {4 * N + 2})"
    )

# A negative 1/2-regret means the subroutine-driven framework collected
# more than half of what the best fixed subset would have earned; the
# guarantee only promises the gap never grows beyond O(n sqrt(T)).

print("\nregret trajectory for the pacing subroutine (checkpoints, one seed):")
adversary = build_usm_adversary("cycle-random:k=4", N, SEED)
subs = [build_subroutine("balancer", T) for _ in range(N)]
streams = [coin_stream(SEED, 1, i) for i in range(N)]
res = run_usm_game(subs, adversary, T, streams)
regret = 0.5 * res.cum_opt - res.cum_rewards
checkpoints = default_checkpoints(T)
for t in checkpoints:
    print(f"  t={t:6d}   1/2-regret {regret[t - 1]:9.1f}   5*n*sqrt(t) = {5 * N * np.sqrt(t):8.0f}")
exponent = fit_growth_exponent(checkpoints, [regret[t - 1] for t in checkpoints])
print(f"fitted growth exponent of the regret series: {exponent:.3f}"
      " (nan when the regret is nonpositive at the checkpoints)")
