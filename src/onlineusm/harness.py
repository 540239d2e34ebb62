"""Experiment configuration, seeded multi-trial execution, result emission.

Everything is deterministic given the master seed: trial k's coin
stream for subroutine i is derived from (seed, trial, i) through a
splittable seed sequence, and instance-generating randomness (the
adversary's functions) is derived from the master seed alone so every
trial faces the same input sequence.  For the cycle kinds (``cycle-random``,
``fixed-random``, ``cycle-files``, ``fixed-file``) that sequence is fixed
before any coin is drawn, so an experiment builds the instance once and
tracks its best fixed set once: the trials share the oracles and the
``cum_opt`` series.  ``fresh-random`` and the adaptive kinds build and
track per trial.

Trials run in one process.  A cycle kind's trials, one or more, play
together, one array round for all of them at a time, when its rounds
reach every prefix (2^n <= T) and the arrays fit the framework's byte
budget (:func:`~onlineusm.framework.run_cycle_trials`); otherwise they
run one after another.  Either way each trial's results are those of
its own game, bit for bit.

An experiment's result rows are seven column arrays named by
``RESULT_HEADER`` (int64 ``trial``, ``t`` and ``queries``, float64 for
the rest), in (trial, round) order.  Both online games build them, and
their summaries, in one function from each trial's series with array
operations, so no Python object per row exists until output.  CSV and
JSON output format a bounded slice of rows at a time, and a cell that
every trial shares round by round once for all trials.  Files are
written atomically (temp file, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import adversaries as adv
from . import balance as bal
from .errors import ConfigError
from .framework import (
    _cycle_best,
    _holds_prefix,
    _replay,
    default_checkpoints,
    fit_growth_exponent,
    run_cycle_trials,
    run_usm_game,
)
from .offline import (
    brute_force_opt,
    det_double_greedy,
    rand_double_greedy_stats,
    uniform_random_value,
)
from .submodular import (
    ENUMERATION_LIMIT,
    check_exhaustive_size,
    normalize,
    random_digraph,
    read_digraph,
    sampling_oracle,
    value_table,
    verify_submodularity,
)

RESULT_HEADER = ("trial", "t", "reward", "cum_reward", "cum_opt", "alpha_regret", "queries")
_INT_COLUMNS = frozenset({"trial", "t", "queries"})

SUBROUTINE_NAMES = ("balancer", "mw", "uniform", "always-yes", "always-no")

_COIN_DOMAIN = 1
_INSTANCE_DOMAIN = 2


def coin_stream(master_seed: int, trial: int, index: int) -> np.random.Generator:
    """Independent per-(trial, subroutine) uniform stream."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, _COIN_DOMAIN, trial, index]))


def instance_rng(master_seed: int) -> np.random.Generator:
    """Instance-generating stream, shared by all trials."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, _INSTANCE_DOMAIN]))


#: the offline ladder's size error, for --n and for --graph files
_OFFLINE_SIZE_MESSAGE = f"offline ladder needs n <= {ENUMERATION_LIMIT} (exhaustive optimum), got {{}}"


@dataclass
class ExperimentConfig:
    game: str
    rounds: int = 1
    n: int | None = None
    subroutine: str = "balancer"
    adversary: str = ""
    alpha: float | None = None
    trials: int = 1
    seed: int = 0
    output: str | None = None
    format: str = "csv"
    keep_transcripts: bool = False
    summary_only: bool = False
    graph: str | None = None
    density: float = 0.5
    samples: int | None = None

    def validated(self) -> "ExperimentConfig":
        if self.game not in ("usm", "balance", "offline", "verify"):
            raise ConfigError(f"unknown game {self.game!r}")
        if self.game in ("usm", "balance"):
            if self.rounds < 1:
                raise ConfigError(f"--rounds must be >= 1, got {self.rounds}")
            if self.trials < 1:
                raise ConfigError(f"--trials must be >= 1, got {self.trials}")
            if self.alpha is None:
                self.alpha = 0.5 if self.game == "usm" else 1.0
            if not 0.0 < self.alpha <= 1.0:
                raise ConfigError(f"--alpha must lie in (0, 1], got {self.alpha}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"--format must be csv or json, got {self.format!r}")
        if self.keep_transcripts and self.format == "csv" and self.output:
            raise ConfigError("--keep-transcripts diagnostics need --format json")
        if self.game in ("offline", "verify") and self.format == "csv" and self.output:
            raise ConfigError(f"{self.game} writes one summary object and no rows; it needs --format json")
        if self.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")
        if self.game == "usm":
            if self.n is None or self.n < 1:
                raise ConfigError(f"--n must be >= 1, got {self.n}")
            if self.n > ENUMERATION_LIMIT:
                raise ConfigError(
                    f"--n {self.n} > {ENUMERATION_LIMIT}: the best fixed set (and so the regret column) "
                    "is only computed by enumeration"
                )
            if not self.adversary:
                self.adversary = "cycle-random:k=4"
        if self.game == "balance" and not self.adversary:
            self.adversary = "pattern:URL"
        if self.game == "offline":
            if self.graph is None and (self.n is None or self.n < 1):
                raise ConfigError("offline needs --graph FILE or --n for a random instance")
            # checked before the n^2 coin draws of a random instance; a
            # graph file's size is known only after it is read
            if self.graph is None and self.n > ENUMERATION_LIMIT:
                raise ConfigError(_OFFLINE_SIZE_MESSAGE.format(self.n))
            if self.trials < 1:
                raise ConfigError(f"--trials must be >= 1, got {self.trials}")
        if self.game == "verify" and self.graph is None:
            raise ConfigError("verify needs a graph file")
        # checked before the graph is read and its table built
        if self.game == "verify" and self.samples is not None and self.samples < 1:
            raise ConfigError(f"--samples must be >= 1, got {self.samples}")
        return self


def _parse_params(text: str, spec: dict[str, type], what: str) -> dict:
    """Parse 'k=v,k=v' descriptor parameters with typed coercion; a key
    given twice raises :class:`ConfigError`."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"bad {what} parameter {item!r}; expected key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in spec:
            raise ConfigError(f"unknown {what} parameter {key!r}; expected one of {sorted(spec)}")
        if key in out:
            raise ConfigError(f"{what} parameter {key!r} given twice")
        try:
            out[key] = spec[key](value)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {what} parameter {key!r}")
    return out


def build_subroutine(name: str, horizon: int):
    if name == "balancer":
        return bal.Balancer(horizon)
    if name == "mw":
        return bal.TwoExperts(horizon)
    if name == "uniform":
        return bal.ConstantPolicy(0.5)
    if name == "always-yes":
        return bal.ConstantPolicy(1.0)
    if name == "always-no":
        return bal.ConstantPolicy(0.0)
    raise ConfigError(f"unknown subroutine {name!r}; expected one of {SUBROUTINE_NAMES}")


def build_balance_adversary(descriptor: str):
    kind, _, rest = descriptor.partition(":")
    if kind == "pattern":
        return adv.ObliviousBalanceAdversary.from_pattern(rest)
    if kind == "adaptive":
        return adv.AdaptiveBalanceAdversary(rest)
    raise ConfigError(
        f"unknown balance adversary {descriptor!r}; expected pattern:<URL string> or adaptive:<rule>"
    )


def build_usm_adversary(descriptor: str, n: int, master_seed: int):
    """Instantiate a function adversary from its descriptor string.

    Oblivious kinds draw their instances from the master seed only, so
    all trials of an experiment face the same sequence.
    """
    kind, _, rest = descriptor.partition(":")
    rng = instance_rng(master_seed)
    if kind in ("cycle-random", "fixed-random", "fresh-random"):
        spec = {"density": float, "wlo": float, "whi": float}
        if kind == "cycle-random":
            spec["k"] = int
        params = _parse_params(rest, spec, kind)
        density = params.get("density", 0.5)
        wr = (params.get("wlo", 0.0), params.get("whi", 1.0))
        if kind == "fresh-random":
            return adv.RandomObliviousAdversary(n, density, wr, master_seed)
        k = params.get("k", 4) if kind == "cycle-random" else 1
        if k < 1:
            raise ConfigError(f"cycle-random needs k >= 1, got {k}")
        graphs = [random_digraph(n, density, wr, rng) for _ in range(k)]
        return adv.CycleFunctionAdversary([normalize(g) for g in graphs])
    if kind in ("cycle-files", "fixed-file"):
        paths = [p for p in rest.split(";") if p]
        if not paths or (kind == "fixed-file" and len(paths) != 1):
            raise ConfigError(f"{kind} needs graph file path(s), got {rest!r}")
        oracles = []
        for p in paths:
            g = read_digraph(p)
            if g.n != n:
                raise ConfigError(f"graph {p} has n={g.n}, experiment has n={n}")
            oracles.append(normalize(g))
        return adv.CycleFunctionAdversary(oracles)
    if kind == "adaptive":
        return adv.AdaptiveCutAdversary(n, rest)
    raise ConfigError(
        f"unknown function adversary {descriptor!r}; expected cycle-random, fixed-random, "
        "fresh-random, cycle-files, fixed-file, or adaptive"
    )


# --- balance game -------------------------------------------------------

@dataclass
class BalanceRunResult:
    ledger: bal.Ledger
    reward_series: np.ndarray
    pile_series: np.ndarray


def run_balance_game(
    subroutine,
    adversary,
    rounds: int,
    rng: np.random.Generator,
) -> BalanceRunResult:
    """Play ``rounds`` rounds: decide, reveal, update, settle the ledger.

    Adaptive adversaries see only strictly past decisions; the round's
    point is fixed before the round's coin is read.  The ``rounds``
    coins are drawn up front as one ``rng.random(rounds)`` block, which
    yields the same values as ``rounds`` sequential ``random()`` calls
    and leaves ``rng`` in the same state.  ``reward_series`` and
    ``pile_series`` hold R_alg and max(C_yes, C_no) after each round.
    """
    r_alg = 0.0
    c_yes = 0.0
    c_no = 0.0
    rewards = np.empty(rounds)
    piles = np.empty(rounds)
    prev: bool | None = None
    next_point = adversary.next_point
    decide = subroutine.decide
    update = subroutine.update
    for t, coin in enumerate(rng.random(rounds).tolist()):
        pt = next_point(prev)
        d = decide(coin)
        update(pt)
        a, b = pt
        if d:
            r_alg += 0.5 * a
            c_no += b
        else:
            r_alg += 0.5 * b
            c_yes += a
        rewards[t] = r_alg
        piles[t] = c_yes if c_yes >= c_no else c_no
        prev = d
    return BalanceRunResult(bal.Ledger(r_alg, c_yes, c_no), rewards, piles)


# --- experiment drivers ---------------------------------------------------

def _usm_trial(config: ExperimentConfig, trial: int, adversary=None, track_opt: bool = True):
    """One USM trial's game, against ``adversary`` or, without one, a fresh
    build; ``track_opt`` as :func:`~onlineusm.framework.run_usm_game` takes it."""
    if adversary is None:
        adversary = build_usm_adversary(config.adversary, config.n, config.seed)
    subs = [build_subroutine(config.subroutine, config.rounds) for _ in range(config.n)]
    streams = [coin_stream(config.seed, trial, i) for i in range(config.n)]
    return run_usm_game(
        subs,
        adversary,
        config.rounds,
        streams,
        track_opt=track_opt,
        keep_transcripts=config.keep_transcripts,
    )


def _usm_trials(config: ExperimentConfig) -> list:
    """Every trial of a USM experiment, in trial order.

    A cycle kind's sequence of functions is fixed by the master seed
    before any coin is drawn, so its instance is built once and its best
    fixed set is tracked once: every trial's ``cum_opt`` is one
    read-only array, and its ``opt_set`` one set.  With 2^n <= rounds
    and the batch's prefix arrays within the framework's byte budget,
    the trials, one or more, play together
    (:func:`~onlineusm.framework.run_cycle_trials`).  Otherwise the
    experiment tracks with :func:`~onlineusm.framework._cycle_best` and
    each trial plays a fresh cursor over the same oracles.  Other kinds
    build their adversary, and track, once per trial.  Either way the
    results are bit for bit those of one tracking game per trial.
    """
    built = build_usm_adversary(config.adversary, config.n, config.seed)
    if not isinstance(built, adv.CycleFunctionAdversary):
        return [_usm_trial(config, 0, built), *(_usm_trial(config, k) for k in range(1, config.trials))]
    if _holds_prefix(built, config.n, config.rounds):
        streams = [[coin_stream(config.seed, k, i) for i in range(config.n)] for k in range(config.trials)]
        return run_cycle_trials(build_subroutine(config.subroutine, config.rounds), built, config.rounds,
                                streams, keep_transcripts=config.keep_transcripts)
    cum_opt, opt_set = _cycle_best([value_table(g) for g in built.oracles], config.rounds)
    cum_opt.flags.writeable = False
    results = [_usm_trial(config, k, adv.CycleFunctionAdversary(built.oracles), track_opt=False)
               for k in range(config.trials)]
    for res in results:
        res.cum_opt, res.opt_set = cum_opt, opt_set
    return results


def _usm_series(res) -> tuple[np.ndarray, ...]:
    return res.rewards, res.cum_rewards, res.cum_opt, np.cumsum(res.round_queries)


def _balance_trial(config: ExperimentConfig, trial: int) -> BalanceRunResult:
    adversary = build_balance_adversary(config.adversary)
    sub = build_subroutine(config.subroutine, config.rounds)
    rng = coin_stream(config.seed, trial, 0)
    return run_balance_game(sub, adversary, config.rounds, rng)


def _balance_series(res: BalanceRunResult) -> tuple[np.ndarray, ...]:
    rewards = res.reward_series
    return np.diff(rewards, prepend=0.0), rewards, res.pile_series, np.zeros(rewards.size, dtype=np.int64)


def run_experiment(config: ExperimentConfig):
    """Run the configured experiment; returns (columns, summary).

    ``columns`` maps each name of RESULT_HEADER to one array holding that
    cell of every row, rows in (trial, t) order: int64 for ``trial``,
    ``t`` and ``queries``, float64 for the rest.  The offline and verify
    games have no rows, so their columns are empty.  Deterministic given
    the config: reruns produce identical columns and summary.
    """
    config = config.validated()
    if config.game in ("usm", "balance"):
        return _run_online_experiment(config)
    summary = _run_offline(config) if config.game == "offline" else _run_verify(config)
    return _columns(*[()] * len(RESULT_HEADER)), summary


def _columns(*cells) -> dict[str, np.ndarray]:
    """The result columns, named by RESULT_HEADER, one argument per name."""
    return {
        name: np.asarray(column, dtype=np.int64 if name in _INT_COLUMNS else np.float64)
        for name, column in zip(RESULT_HEADER, cells, strict=True)
    }


def _run_online_experiment(config: ExperimentConfig):
    """Columns and summary of the USM or the balance game.

    Each trial's series (per-round reward, cumulative reward, best
    fixed choice so far and cumulative queries) come from the game's
    ``_*_series`` adapter: ``cum_opt`` is the USM best so far, the
    larger pile the balance game's.  This is the one place the
    alpha-regret is computed: the regret column is
    ``alpha * best - cum_reward``, its last entry per trial is that
    trial's final regret, and the summary statistics are reductions of it.
    """
    usm = config.game == "usm"
    if usm:
        results, series = _usm_trials(config), _usm_series
    else:
        results, series = [_balance_trial(config, k) for k in range(config.trials)], _balance_series
    reward, cum_reward, best, queries = (np.concatenate(s) for s in zip(*map(series, results)))
    regret = config.alpha * best - cum_reward
    columns = _columns(
        np.repeat(np.arange(config.trials), config.rounds),
        np.tile(np.arange(1, config.rounds + 1), config.trials),
        reward,
        cum_reward,
        best,
        regret,
        queries,
    )
    by_trial = regret.reshape(config.trials, config.rounds)
    finals = by_trial[:, -1].tolist()
    arr = np.asarray(finals)
    mean_final = float(arr.mean())
    std_final = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    cps = default_checkpoints(config.rounds)
    # fancy indexing copies each checkpoint's regrets into one contiguous
    # row, the array np.mean would make of a list of them
    mean_regret_at = [float(np.mean(row)) for row in by_trial.T[[c - 1 for c in cps]]]
    if usm:
        head = {"n": config.n}
        scaled = {"mean_final_regret_per_n_sqrt_t": mean_final / (config.n * config.rounds ** 0.5)}
    else:
        head = {}
        scaled = {"mean_final_regret_per_sqrt_t": mean_final / config.rounds ** 0.5}
    summary = {
        "game": config.game,
        **head,
        "rounds": config.rounds,
        "trials": config.trials,
        "alpha": config.alpha,
        "subroutine": config.subroutine,
        "adversary": config.adversary,
        "seed": config.seed,
        "final_alpha_regret": finals,
        "mean_final_alpha_regret": mean_final,
        "std_final_alpha_regret": std_final,
        **scaled,
        "checkpoints": cps,
        "mean_regret_at_checkpoints": mean_regret_at,
        "growth_exponent": fit_growth_exponent(cps, mean_regret_at),
        "total_queries": int(queries.reshape(config.trials, config.rounds)[:, -1].sum()),
    }
    if usm:
        summary["max_round_queries"] = int(max(res.max_round_queries for res in results))
        summary["query_budget_per_round"] = 4 * config.n + 2
        if config.keep_transcripts:
            summary["diagnostics"] = _usm_diagnostics(results)
    return columns, summary


def _usm_diagnostics(results) -> dict:
    """Replay checks over each trial's kept rounds
    (:func:`~onlineusm.framework._replay`), against the best fixed set
    tracked for the trial (``opt_set``)."""
    worst_residual = 0.0
    failures = 0
    for res in results:
        failed, residuals = _replay(res.oracles, res.chosen_sets, res.points, res.opt_set)
        failures += failed
        for r in residuals.tolist():
            worst_residual = max(worst_residual, abs(r))
    return {"opt_tracking_failures": failures, "max_value_identity_residual": worst_residual}


def _offline_instance(config: ExperimentConfig):
    if config.graph is not None:
        g = read_digraph(config.graph)
    else:
        g = random_digraph(config.n, config.density, (0.0, 1.0), instance_rng(config.seed))
    if g.n > ENUMERATION_LIMIT:
        raise ConfigError(_OFFLINE_SIZE_MESSAGE.format(g.n))
    return g


def _run_offline(config: ExperimentConfig) -> dict:
    g = _offline_instance(config)
    oracle = normalize(g)
    opt = brute_force_opt(oracle)
    det = det_double_greedy(oracle)
    rnd = rand_double_greedy_stats(oracle, config.trials, config.seed)
    uni = uniform_random_value(oracle)
    scale = opt.value if opt.value > 0 else 1.0
    return {
        "game": "offline",
        "n": g.n,
        "edges": len(g.edges),
        "seed": config.seed,
        "rdg_trials": config.trials,
        "opt": {"set": opt.chosen, "value": opt.value},
        "det_double_greedy": {"set": det.chosen, "value": det.value, "ratio": det.value / scale},
        "rand_double_greedy": {
            "best_set": rnd.chosen,
            "best_value": rnd.value,
            "mean": rnd.mean,
            "std": rnd.std,
            "mean_ratio": rnd.mean / scale,
        },
        "uniform_random_value": uni,
        "uniform_ratio": uni / scale,
    }


def _run_verify(config: ExperimentConfig) -> dict:
    """Summary of the submodularity check of a graph file's cut function.

    An exhaustive request is checked against its size limit, then reads
    all 2^n values from :func:`normalize`'s cut table; a sampled one reads
    4 values per sample from the cheaper of the table and cut sums.
    """
    g = read_digraph(config.graph)
    if config.samples is None:
        check_exhaustive_size(g.n)
    oracle = normalize(g) if config.samples is None else sampling_oracle(g, config.samples)
    witness = verify_submodularity(oracle, samples=config.samples, seed=config.seed)
    summary = {
        "game": "verify",
        "n": g.n,
        "edges": len(g.edges),
        "mode": "sampled" if config.samples is not None else "exhaustive",
        "passed": witness is None,
        "witness": None,
        "queries": oracle.queries,
    }
    if witness is not None:
        s, t, i = witness
        summary["witness"] = {"s": s, "t": t, "i": i}
    return summary


# --- output -----------------------------------------------------------

#: rows per output slice and rounds per chunk of per-round text: only one
#: slice's cells exist as Python objects at a time (4096 rows raised the
#: peak of an 8-trial, 4000-round CSV run by about 1 MB)
_ROWS_PER_SLICE = 1024


def _per_round(arrays: list[np.ndarray]) -> tuple[int, list[bool]]:
    """The trial-block length, that of the first run of one ``trial``
    value, and which columns are per-round: the rows split into whole
    blocks and each block holds the first one's bits in that column (so
    ±0.0 and nan payloads differ).  Without a per-round column, 1."""
    rows = len(arrays[0])
    # 0 when the first run of trial is every row, or there are none
    length = int(np.argmax(arrays[0] != arrays[0][0])) if rows else 0
    if length and rows % length == 0:
        blocks = [a.view(f"u{a.itemsize}").reshape(-1, length) for a in arrays]
        shared = [bool((bits == bits[0]).all()) for bits in blocks]
        if any(shared):
            return length, shared
    return 1, [False] * len(arrays)


def _cells(arrays: list[np.ndarray], count: int) -> tuple:
    """The first ``count`` rows of the arrays' cells, flat, as Python values."""
    flat = [None] * (count * len(arrays))
    for j, a in enumerate(arrays):
        flat[j::len(arrays)] = a[:count].tolist()
    return tuple(flat)


def _row_texts(columns: Mapping[str, np.ndarray], specs: list[str], row) -> Iterator[str]:
    """The rows' text, one string per slice of at most ``_ROWS_PER_SLICE``
    rows, each row ``row(specs) % cells`` (one spec per column).

    Per-round cells (:func:`_per_round`) are formatted once for all
    trials: the row template, the other specs escaped as ``%%``, formats
    each chunk of rounds into one string, the template of its rows.  A
    slice, one chunk of a block or as many whole blocks as fit, fills its
    chunk's template with its own cells in one ``%``.
    """
    arrays = [columns[name] for name in RESULT_HEADER]
    length, shared = _per_round(arrays)
    rounds = [a for a, s in zip(arrays, shared) if s]
    own = [a for a, s in zip(arrays, shared) if not s]
    template = row([spec if s else spec.replace("%", "%%") for spec, s in zip(specs, shared)])
    chunks = [(c, min(_ROWS_PER_SLICE, length - c)) for c in range(0, length, _ROWS_PER_SLICE)]
    texts = [(template * n) % _cells([a[c:] for a in rounds], n) for c, n in chunks]
    step = max(1, _ROWS_PER_SLICE // length) * length
    for start in range(0, len(arrays[0]), step):
        blocks = min(step, len(arrays[0]) - start) // length
        for (c, n), text in zip(chunks, texts):
            yield (text * blocks) % _cells([a[start + c:] for a in own], n * blocks)


def _csv_blocks(columns: Mapping[str, np.ndarray]) -> Iterator[str]:
    """CSV text of the rows, one block of whole lines per slice, each
    ending in a newline (:func:`_row_texts`).  ``%d`` writes int columns
    (the text ``str`` gives) and ``%.12g`` float columns (the text
    ``format(v, ".12g")`` gives, nan, infinities and -0.0 included)."""
    specs = ["%d" if columns[name].dtype.kind in "iu" else "%.12g" for name in RESULT_HEADER]
    return _row_texts(columns, specs, lambda cells: ",".join(cells) + "\n")


def _json_row_blocks(columns: Mapping[str, np.ndarray]) -> Iterator[str]:
    """The rows as ``JSONEncoder(indent=1)`` writes them in the items of
    the top-level object's ``rows`` array, one block per slice
    (:func:`_row_texts`), to be written one after the other.  ``%d``
    writes int columns and ``%r`` float columns, the text of
    ``int.__repr__`` and ``float.__repr__``, which the encoder writes for
    ints and finite floats.  ``%r`` writes every nan as ``nan`` and the
    infinities as ``inf`` and ``-inf``, which no other cell's text holds;
    they become the encoder's ``NaN``, ``Infinity`` and ``-Infinity``.
    Each row starts with the ``",\n"`` before it; the first block drops it."""
    specs = ["%d" if columns[name].dtype.kind in "iu" else "%r" for name in RESULT_HEADER]
    row = lambda cells: ",\n  [\n" + ",\n".join("   " + c for c in cells) + "\n  ]"
    for k, text in enumerate(_row_texts(columns, specs, row)):
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield text if k else text[2:]


def _atomic_write(path: str, parts: Iterable[str]) -> None:
    """Write the concatenation of ``parts`` atomically."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-results-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_results(
    columns: Mapping[str, np.ndarray],
    summary: dict,
    fmt: str,
    path: str,
    *,
    config: ExperimentConfig | None = None,
    summary_only: bool = False,
) -> None:
    """Emit the rows of ``columns`` (as :func:`run_experiment` returns
    them) and the summary, as csv (12 significant digits for floats, LF
    endings) or as a single json object; the write is atomic either way.

    Rows are written one slice at a time, each per-round cell formatted
    once for all trials (:func:`_row_texts`).  JSON is the bytes of
    ``json.dumps(obj, indent=1)``: the encoder writes the config, the
    summary and an empty ``rows`` array, and the rows, if any, are then
    written into that array (:func:`_json_row_blocks`).
    """
    if fmt == "csv":
        header = ",".join(RESULT_HEADER) + "\n"
        _atomic_write(path, [header] if summary_only else chain([header], _csv_blocks(columns)))
    elif fmt == "json":
        obj: dict = {}
        if config is not None:
            # the output path is not recorded: the same seeded command
            # writes the same bytes under any name
            obj["config"] = {k: v for k, v in asdict(config).items() if k != "output"}
        obj["summary"] = summary
        if not summary_only:
            obj["rows"] = []
        text = json.JSONEncoder(indent=1).encode(obj)
        if summary_only or not len(columns[RESULT_HEADER[0]]):
            _atomic_write(path, [text, "\n"])
        else:
            # the text ends in the empty rows array, "[]\n}": the rows go after its "["
            _atomic_write(path, chain([text[:-3], "\n"], _json_row_blocks(columns), ["\n ]\n}\n"]))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
