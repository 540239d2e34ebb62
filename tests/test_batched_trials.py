"""A cycled experiment's trials played together are its trials played one by one.

``framework.run_cycle_trials``, to which ``harness._usm_trials`` hands a
cycle kind's trials, plays them, one or more, as one batch when 2^n <=
rounds and the batch's arrays fit ``framework._PREFIX_BYTES``, and
otherwise one root-walk ``framework.run_usm_game`` per trial; the tests
tell the paths apart by counting those games.  They pin the batch to the
per-trial games bit for bit: the result columns, the summary, the kept
rounds (chosen sets and points), every oracle's counted queries and
every coin stream's final state.  They also pin the byte budget, which
changes speed and memory but no output, what building the batch takes
against it, and the rejection of points outside the triangle on the
batched path.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlineusm import cli, framework, harness
from onlineusm.adversaries import CycleFunctionAdversary
from onlineusm.errors import InvalidPointError
from onlineusm.framework import _cycle_best, run_cycle_trials, run_usm_game
from onlineusm.harness import SUBROUTINE_NAMES, ExperimentConfig, _usm_trials, build_subroutine, run_experiment
from onlineusm.submodular import normalize, random_digraph, write_digraph

from references import oracle_from_table, reference_tracking
from test_offline import value_tables

N = 5


def cycle_files(tmp_path):
    rng = np.random.default_rng(4)
    paths = [tmp_path / f"g{k}.dg" for k in range(2)]
    for p in paths:
        write_digraph(p, random_digraph(N, 0.6, (0.0, 1.0), rng))
    return "cycle-files:" + ";".join(map(str, paths))


def bits(x):
    """Floats by their bits, anywhere inside tuples and lists."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [bits(v) for v in x]
    return x


def counted_games(monkeypatch):
    """A list that gains an entry for every ``framework.run_usm_game`` call,
    the per-trial games ``run_cycle_trials`` plays when it does not batch."""
    games = []
    game = framework.run_usm_game
    monkeypatch.setattr(framework, "run_usm_game", lambda *a, **k: games.append(1) or game(*a, **k))
    return games


def recorded_run(monkeypatch, config, batched):
    """``run_experiment`` and ``_usm_trials`` of ``config`` on one path, with
    the oracles and coin streams they made: (columns, summary, results,
    oracles' queries, streams' final states, whether the batch played)."""
    streams, builds = [], []
    make_stream, build = harness.coin_stream, harness.build_usm_adversary
    monkeypatch.setattr(harness, "coin_stream", lambda *a: streams.append(make_stream(*a)) or streams[-1])
    monkeypatch.setattr(harness, "build_usm_adversary", lambda *a: builds.append(build(*a)) or builds[-1])
    games = counted_games(monkeypatch)
    if not batched:
        monkeypatch.setattr(framework, "_PREFIX_BYTES", 0)
    columns, summary = run_experiment(config)
    queries = [f.queries for f in builds[0].oracles]
    states = [s.bit_generator.state for s in streams]
    results = _usm_trials(config)
    # each round's oracle, by its place in the cycle
    for res in results:
        res.oracles = [builds[-1].oracles.index(f) for f in res.oracles]
    return columns, summary, results, queries, states, not games


@pytest.mark.parametrize("rounds", [1 << N, (1 << N) + 1, 150])
@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("adversary", ["cycle-random:k=3", "fixed-random", "cycle-files"])
@pytest.mark.parametrize("subroutine", SUBROUTINE_NAMES)
def test_batched_trials_are_the_per_trial_games(subroutine, adversary, trials, rounds, monkeypatch, tmp_path):
    if adversary == "cycle-files":
        adversary = cycle_files(tmp_path)
    config = ExperimentConfig(game="usm", n=N, rounds=rounds, trials=trials, seed=6, subroutine=subroutine,
                              adversary=adversary, format="json", keep_transcripts=True).validated()
    got = recorded_run(monkeypatch, config, batched=True)
    want = recorded_run(monkeypatch, config, batched=False)
    assert got[-1] and not want[-1]
    (columns, summary, results, queries, states, _), (w_columns, w_summary, w_results, w_queries, w_states, _) = got, want
    assert columns.keys() == w_columns.keys()
    for name, column in columns.items():
        assert column.dtype == w_columns[name].dtype
        assert column.tobytes() == w_columns[name].tobytes()
    assert json.dumps(summary) == json.dumps(w_summary)  # nan != nan, but its text is equal
    assert summary["diagnostics"]["opt_tracking_failures"] == 0
    assert summary["diagnostics"]["max_value_identity_residual"] <= 1e-9
    for res, w_res in zip(results, w_results, strict=True):
        assert res.chosen_sets == w_res.chosen_sets
        assert [type(s) for s in res.chosen_sets] == [int] * rounds
        assert res.points.dtype == w_res.points.dtype == np.float64
        assert res.points.shape == w_res.points.shape == (rounds, N, 2)
        assert res.points.tobytes() == w_res.points.tobytes()
        assert res.oracles == w_res.oracles
        assert res.opt_set == w_res.opt_set
    # 2n counted queries per trial-round, on the oracle of that round
    assert queries == w_queries
    assert sum(queries) == 2 * N * trials * rounds == summary["total_queries"]
    assert states == w_states


def test_batched_results_share_one_read_only_best_set_series():
    config = ExperimentConfig(game="usm", n=N, rounds=40, trials=3, seed=6,
                              adversary="cycle-random:k=2").validated()
    results = _usm_trials(config)
    shared = results[0].cum_opt
    assert not shared.flags.writeable
    assert all(res.cum_opt is shared for res in results)
    assert {res.opt_set for res in results} == {results[0].opt_set}


@pytest.mark.parametrize("trials, rounds", [(1, 150), (3, (1 << N) - 1)])
def test_one_trial_batches_and_too_few_rounds_play_trial_by_trial(trials, rounds, monkeypatch):
    games = counted_games(monkeypatch)
    config = ExperimentConfig(game="usm", n=N, rounds=rounds, trials=trials, seed=6).validated()
    assert len(_usm_trials(config)) == trials
    assert len(games) == (0 if 1 << N <= rounds else trials)


def cli_bytes(tmp_path, *argv):
    """What ``cli.main`` printed and wrote for ``argv``, with its exit code."""
    out = tmp_path / "out.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--format", "json", "--output", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize("extra", [(), ("--keep-transcripts",)])
def test_prefix_byte_budget_changes_no_output(trials, extra, monkeypatch, tmp_path):
    argv = ("simulate-usm", "--n", "6", "--rounds", "150", "--trials", str(trials), "--seed", "2",
            "--adversary", "cycle-random:k=3", *extra)
    games = counted_games(monkeypatch)
    uncapped = cli_bytes(tmp_path, *argv)
    assert uncapped[0] == 0
    # one trial or two, the experiment plays one batch and no game
    assert games == []
    # exactly three functions' 64 nodes of 2n + 2 doubles each (two point
    # terms per element, alpha and beta), and the n int64 nodes of each of
    # the 64 sets: one batch still
    fits = (3 * 8 * (2 * 6 + 2) + 8 * 6) * 64
    monkeypatch.setattr(framework, "_PREFIX_BYTES", fits)
    assert cli_bytes(tmp_path, *argv) == uncapped
    assert games == []
    # one byte short: the trials play one by one, their rounds walking from the root
    monkeypatch.setattr(framework, "_PREFIX_BYTES", fits - 1)
    assert cli_bytes(tmp_path, *argv) == uncapped
    assert len(games) == trials


#: what building and playing a batch may take beyond ``_holds_prefix``'s
#: figure: the value tables' prefix points and point terms while they are
#: built, and the per-round arrays of a trial
BUILD_SLACK = 1 << 19


def test_building_the_batch_stays_within_its_byte_budget(monkeypatch):
    n, k, rounds = 12, 2, 1 << 12
    rng = np.random.default_rng(3)
    adversary = CycleFunctionAdversary([normalize(random_digraph(n, 0.5, (0.0, 1.0), rng)) for _ in range(k)])
    # per node: two terms per element, alpha and beta for each function,
    # and the n int64 nodes the batch gathers by (2 MiB here)
    figure = (k * 8 * (2 * n + 2) + 8 * n) << n
    monkeypatch.setattr(framework, "_PREFIX_BYTES", figure)
    assert framework._holds_prefix(adversary, n, rounds)
    monkeypatch.setattr(framework, "_PREFIX_BYTES", figure - 1)
    assert not framework._holds_prefix(adversary, n, rounds)
    monkeypatch.setattr(framework, "_PREFIX_BYTES", figure)
    games = counted_games(monkeypatch)
    sub, streams = build_subroutine("balancer", rounds), [[np.random.default_rng((0, i)) for i in range(n)]]
    tracemalloc.start()
    try:
        run_cycle_trials(sub, adversary, rounds, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert games == []
    assert peak <= figure + BUILD_SLACK


def nonsubmodular_table(n):
    """A table in [0, 1] whose root point leaves the triangle: f is 1 on
    the empty and the full set and 0 elsewhere, so (alpha, beta) at the
    root is (-1, -1)."""
    table = np.zeros(1 << n)
    table[0] = table[-1] = 1.0
    return table


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_a_rejected_point_raises_on_the_batched_path(trials):
    n, rounds = 3, 8
    oracles = [oracle_from_table(nonsubmodular_table(n))]
    streams = [[np.random.default_rng((k, i)) for i in range(n)] for k in range(trials)]
    with pytest.raises(InvalidPointError) as batched:
        run_cycle_trials(build_subroutine("balancer", rounds), CycleFunctionAdversary(oracles), rounds, streams)
    with pytest.raises(InvalidPointError) as scalar:
        run_usm_game([build_subroutine("balancer", rounds) for _ in range(n)], CycleFunctionAdversary(oracles),
                     rounds, [np.random.default_rng((0, i)) for i in range(n)])
    assert str(batched.value) == str(scalar.value) == "(-1.0, -1.0) outside triangle; is the function submodular?"
    # the other subroutines check no point, so they play on
    for name in ("mw", "uniform"):
        fresh = [[np.random.default_rng((k, i)) for i in range(n)] for k in range(trials)]
        assert len(run_cycle_trials(build_subroutine(name, rounds), CycleFunctionAdversary(oracles), rounds,
                                    fresh)) == trials


class FixedCoins:
    """A stand-in coin stream: ``random(out=row)`` fills ``row`` with its
    next values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, out):
        out[:] = self.values[:out.size]
        del self.values[:out.size]


#: two tables on n = 3 whose points are inside the triangle except at
#: node 3 (element 2 after element 1 said yes): (-0.5, -0.75) in the first,
#: (-1.0, -0.25) in the second
TWO_BAD_TABLES = ([1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0, 0.75], [1.0, 1.0, 1.0, 0.0, 1.0, 0.5, 1.0, 0.75])


def test_a_rejected_point_is_named_in_round_major_order():
    # trial 0's element 1 says no in round 1 and yes in round 2; trial 1's
    # says yes in round 1.  Trial by trial, trial 0 meets node 3 of the
    # second table first; round by round, trial 1 meets node 3 of the first.
    rounds = 8
    oracles = [oracle_from_table(np.array(t)) for t in TWO_BAD_TABLES]
    first_coins = ([0.9, 0.1], [0.1, 0.1])
    streams = [[FixedCoins(c + [0.5] * (rounds - 2))] + [FixedCoins([0.5] * rounds) for _ in range(2)]
               for c in first_coins]
    with pytest.raises(InvalidPointError, match=r"^\(-0\.5, -0\.75\) outside triangle"):
        run_cycle_trials(build_subroutine("balancer", rounds), CycleFunctionAdversary(oracles), rounds, streams)
    streams = [FixedCoins(first_coins[0] + [0.5] * (rounds - 2))] + [FixedCoins([0.5] * rounds) for _ in range(2)]
    with pytest.raises(InvalidPointError, match=r"^\(-1\.0, -0\.25\) outside triangle"):
        run_usm_game([build_subroutine("balancer", rounds) for _ in range(3)], CycleFunctionAdversary(oracles),
                     rounds, streams)


def test_a_nonsubmodular_cycle_exits_two(monkeypatch, tmp_path):
    # cut functions are submodular, so the CLI meets such a cycle only
    # through a stubbed build
    games = counted_games(monkeypatch)
    monkeypatch.setattr(harness, "build_usm_adversary", lambda *a: CycleFunctionAdversary(
        [oracle_from_table(np.array(t)) for t in TWO_BAD_TABLES]))
    code, stdout, stderr, written = cli_bytes(tmp_path, "simulate-usm", "--n", "3", "--rounds", "8", "--trials", "2")
    assert code == 2 and stdout == "" and written is None
    assert stderr.startswith("runtime error: (") and stderr.endswith("outside triangle; is the function submodular?\n")
    assert games == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_trials_on_any_cycled_tables(data):
    n = data.draw(st.integers(1, 5))
    tables = data.draw(st.lists(value_tables(n), min_size=1, max_size=3))
    tables += data.draw(st.lists(st.sampled_from(tables), max_size=2))  # a repeat shares its oracle
    name = data.draw(st.sampled_from(["balancer", "mw", "uniform"]))
    rounds = data.draw(st.integers(1, 3 << n))
    trials = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sides = []
    for batched in (True, False):
        distinct = {}
        oracles = [distinct.setdefault(id(t), oracle_from_table(t)) for t in tables]
        streams = [[np.random.default_rng((seed, k, i)) for i in range(n)] for k in range(trials)]
        if batched:
            # the batch even where its rounds reach only some nodes (rounds < 2^n)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(framework, "_holds_prefix", lambda *a: True)
                results = run_cycle_trials(build_subroutine(name, rounds), CycleFunctionAdversary(oracles),
                                           rounds, streams, keep_transcripts=True)
        else:
            results = [run_usm_game([build_subroutine(name, rounds) for _ in range(n)],
                                    CycleFunctionAdversary(oracles), rounds, row, keep_transcripts=True)
                       for row in streams]
        sides.append(([(res.rewards.tobytes(), res.cum_rewards.tobytes(), res.cum_opt.tobytes(), res.opt_set,
                         res.max_round_queries,
                         res.chosen_sets, res.points.shape, res.points.tobytes(),
                         [oracles.index(f) for f in res.oracles]) for res in results],
                       [f.queries for f in oracles],
                       [s.bit_generator.state for row in streams for s in row]))
    assert sides[0] == sides[1]


@settings(max_examples=60, deadline=None)
@given(tables=st.integers(1, 4).flatmap(lambda n: st.lists(value_tables(n), min_size=1, max_size=3)),
       rounds=st.integers(1, 40), block=st.sampled_from([8, 16, 64, 1 << 18]))
@example(tables=[np.array([0.0, -0.0, -0.0, 0.0])], rounds=3, block=8)
@example(tables=[np.array([-0.0, -0.0]), np.array([0.0, -0.0])], rounds=5, block=16)
def test_cycle_best_is_the_round_by_round_total(tables, rounds, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(framework, "_TRACK_BYTES", block)
        cum_opt, opt_set = _cycle_best(tables, rounds)
    want_opt, _, want_set = reference_tracking([tables[t % len(tables)] for t in range(rounds)])
    assert cum_opt.tobytes() == want_opt.tobytes()
    assert opt_set == want_set
