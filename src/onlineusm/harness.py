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

Trials run in one process.  A cycle kind's trials play together, one
array round for all of them at a time, when there are at least two, its
rounds reach every prefix (2^n <= T) and the arrays fit the framework's
byte budget (:func:`~onlineusm.framework.run_cycle_trials`); otherwise
they run one after another.  Either way each trial's results are those
of its own game, bit for bit.

An experiment's result rows are seven column arrays named by
``RESULT_HEADER`` (int64 ``trial``, ``t`` and ``queries``, float64 for
the rest), in (trial, round) order.  Both online games build them, and
their summaries, in one function from each trial's series with array
operations, so no Python object per row exists until output.  CSV output
formats a bounded slice of rows at a time; JSON output builds every
row's list at once.  Files are written atomically (temp file, then
rename).
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
    _holds_prefix,
    default_checkpoints,
    fit_growth_exponent,
    opt_tracking_check,
    run_cycle_trials,
    run_usm_game,
    value_identity_residual,
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
        if d:
            r_alg += 0.5 * pt.alpha
            c_no += pt.beta
        else:
            r_alg += 0.5 * pt.beta
            c_yes += pt.alpha
        rewards[t] = r_alg
        piles[t] = c_yes if c_yes >= c_no else c_no
        prev = d
    return BalanceRunResult(bal.Ledger(r_alg, c_yes, c_no), rewards, piles)


# --- experiment drivers ---------------------------------------------------

def _usm_trial(config: ExperimentConfig, trial: int, adversary=None, tracked=None):
    """One USM trial, against ``adversary`` or, without one, a fresh build.

    With ``tracked``, an earlier trial's result against the same sequence
    of functions, the game skips tracking the best fixed set and the
    result reports that trial's ``cum_opt`` and ``opt_set`` instead.
    """
    if adversary is None:
        adversary = build_usm_adversary(config.adversary, config.n, config.seed)
    subs = [build_subroutine(config.subroutine, config.rounds) for _ in range(config.n)]
    streams = [coin_stream(config.seed, trial, i) for i in range(config.n)]
    res = run_usm_game(
        subs,
        adversary,
        config.rounds,
        streams,
        track_opt=tracked is None,
        keep_transcripts=config.keep_transcripts,
    )
    if tracked is not None:
        res.cum_opt, res.opt_set = tracked.cum_opt, tracked.opt_set
    return res


#: fewest trials a cycled experiment plays as one batch: one batched
#: trial ran 0.95-1.03x the speed of its own game with balancer, 1.05-1.09x
#: with mw and 1.55-1.74x with uniform; two ran 1.4x, 1.6x and 2.6x
#: (n = 8, T = 4000, cycle-random:k=4, medians of three sets of 12 to 16
#: alternating in-process pairs)
_BATCH_MIN_TRIALS = 2


def _usm_trials(config: ExperimentConfig) -> list:
    """Every trial of a USM experiment, in trial order.

    A cycle kind's sequence of functions is fixed by the master seed
    before any coin is drawn, so its instance is built once and its best
    fixed set is tracked once: every trial's ``cum_opt`` is one
    read-only array, and its ``opt_set`` one set.  With at least
    ``_BATCH_MIN_TRIALS`` trials, 2^n <= rounds and the batch's prefix
    arrays within the framework's byte budget, the trials play together
    (:func:`~onlineusm.framework.run_cycle_trials`).  Otherwise each
    trial plays a fresh cursor over the same oracles, and trial 0 tracks
    (the same doubles any trial would track).  Other kinds build their
    adversary, and track, once per trial.  Either way the results are
    bit for bit those of one game per trial.
    """
    built = build_usm_adversary(config.adversary, config.n, config.seed)
    if config.trials >= _BATCH_MIN_TRIALS and _holds_prefix(built, config.n, config.rounds, batched=True):
        streams = [[coin_stream(config.seed, k, i) for i in range(config.n)] for k in range(config.trials)]
        return run_cycle_trials(build_subroutine(config.subroutine, config.rounds), built, config.rounds,
                                streams, keep_transcripts=config.keep_transcripts)
    first = _usm_trial(config, 0, built)
    if not isinstance(built, adv.CycleFunctionAdversary):
        return [first, *(_usm_trial(config, k) for k in range(1, config.trials))]
    first.cum_opt.flags.writeable = False
    return [first, *(_usm_trial(config, k, adv.CycleFunctionAdversary(built.oracles), first)
                     for k in range(1, config.trials))]


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
    """Replay checks over retained transcripts (see framework module).

    Each trial's reference set is the best fixed set its game tracked
    (``opt_set``), checked against every round it played.
    """
    worst_residual = 0.0
    failures = 0
    for res in results:
        for tr, f in zip(res.transcripts, res.oracles):
            if opt_tracking_check(tr, f, res.opt_set) is not None:
                failures += 1
        n = len(res.transcripts[0].marginals)
        for i in range(1, n + 1):
            worst_residual = max(
                worst_residual, abs(value_identity_residual(res.transcripts, res.oracles, i))
            )
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

    Up to n = ENUMERATION_LIMIT, :func:`normalize` answers every counted
    query from its cut table, not with a Python cut sum.  An
    exhaustive request is checked against its size limit before that
    table is built.
    """
    g = read_digraph(config.graph)
    if config.samples is None:
        check_exhaustive_size(g.n)
    oracle = normalize(g)
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

#: rows per output slice; only one slice's rows exist as Python objects
#: at a time (4096 rows raised the peak of an 8-trial, 4000-round CSV
#: run by about 1 MB)
_ROWS_PER_SLICE = 1024


def _row_slices(columns: Mapping[str, np.ndarray]) -> Iterator[list[list]]:
    """Each bounded slice of rows as one list of Python values per column,
    in RESULT_HEADER order (ints for int64 columns, floats for float64)."""
    arrays = [columns[name] for name in RESULT_HEADER]
    for start in range(0, len(arrays[0]), _ROWS_PER_SLICE):
        yield [a[start:start + _ROWS_PER_SLICE].tolist() for a in arrays]


def _csv_blocks(columns: Mapping[str, np.ndarray]) -> Iterator[str]:
    """CSV text of the rows, one block of whole lines per slice, each
    ending in a newline.  One ``%`` template formats a whole row: ``%d``
    for int columns (the text ``str`` gives), ``%.12g`` for float columns
    (the text ``format(v, ".12g")`` gives, nan, infinities and -0.0
    included)."""
    template = ",".join("%d" if columns[name].dtype.kind in "iu" else "%.12g" for name in RESULT_HEADER)
    for part in _row_slices(columns):
        yield "\n".join(map(template.__mod__, zip(*part))) + "\n"


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

    CSV text is formatted one slice of rows at a time.  JSON is encoded
    piece by piece with ``JSONEncoder(indent=1).iterencode``, the same
    encoder and bytes as ``json.dumps(obj, indent=1)``, without the whole
    text in one string.
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
            obj["rows"] = [list(row) for part in _row_slices(columns) for row in zip(*part)]
        _atomic_write(path, chain(json.JSONEncoder(indent=1).iterencode(obj), ["\n"]))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
