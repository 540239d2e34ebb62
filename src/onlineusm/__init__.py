"""Online unconstrained submodular maximization at desk scale.

A library for playing the online game where an adversary reveals a
bounded submodular function each round and the algorithm must commit to
a subset first: the per-element double-greedy framework, the balance
subproblem it reduces to, a pacing subroutine with a closed-form
potential analysis, a two-experts multiplicative-weights subroutine,
offline baselines, adversary generators, and a seeded experiment
harness with CSV/JSON emission.
"""

from .adversaries import (
    AdaptiveBalanceAdversary,
    AdaptiveCutAdversary,
    CycleFunctionAdversary,
    ObliviousBalanceAdversary,
    RandomObliviousAdversary,
)
from .balance import (
    Balancer,
    ConstantPolicy,
    LEFT,
    RIGHT,
    TwoExperts,
    UP,
    decompose,
    potentials,
    step_invariant_deltas,
)
from .errors import (
    ConfigError,
    DomainError,
    InvalidInstanceError,
    InvalidPointError,
    InvalidSubsetError,
    SizeError,
    UsmError,
)
from .framework import (
    default_checkpoints,
    fit_growth_exponent,
    run_usm_game,
)
from .harness import (
    ExperimentConfig,
    RESULT_HEADER,
    build_balance_adversary,
    build_subroutine,
    build_usm_adversary,
    coin_stream,
    instance_rng,
    run_balance_game,
    run_experiment,
    write_results,
)
from .offline import (
    brute_force_opt,
    det_double_greedy,
    rand_double_greedy_stats,
    uniform_random_value,
)
from .submodular import (
    DirectedGraph,
    SubmodularOracle,
    directed_cut_value,
    elements_of,
    full_mask,
    normalize,
    random_digraph,
    read_digraph,
    tabulate,
    value_table,
    verify_submodularity,
    write_digraph,
)

__version__ = "0.1.0"
