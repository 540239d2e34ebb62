import json

import numpy as np
import pytest

from onlineusm import harness
from onlineusm.cli import parse_config
from onlineusm.errors import ConfigError
from onlineusm.harness import (
    RESULT_HEADER,
    ExperimentConfig,
    _balance_trial,
    _usm_trial,
    _usm_trials,
    build_balance_adversary,
    build_subroutine,
    build_usm_adversary,
    coin_stream,
    run_experiment,
    write_results,
)
from onlineusm.submodular import normalize, random_digraph, value_table, write_digraph

from conftest import columns_of
from references import balance_alpha_regret, usm_alpha_regret


def rows_of(columns):
    """The rows of ``run_experiment``'s columns as tuples of Python values."""
    return list(zip(*(columns[name].tolist() for name in RESULT_HEADER)))


# --- config parsing -------------------------------------------------------

def test_parse_usm_defaults():
    cfg = parse_config(["simulate-usm", "--n", "8", "--rounds", "1000",
                        "--subroutine", "balancer", "--seed", "7"])
    assert cfg.game == "usm"
    assert cfg.alpha == 0.5
    assert cfg.trials == 1
    assert cfg.format == "csv"
    assert cfg.adversary == "cycle-random:k=4"


def test_parse_balance_defaults():
    cfg = parse_config(["simulate-balance", "--rounds", "100"])
    assert cfg.game == "balance"
    assert cfg.alpha == 1.0
    assert cfg.adversary == "pattern:URL"


def test_parse_rejects_alpha_out_of_range():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(["simulate-usm", "--n", "4", "--rounds", "10", "--alpha", "1.5"])
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(["simulate-balance", "--rounds", "10", "--alpha", "0"])


def test_parse_missing_rounds_names_flag():
    with pytest.raises(ConfigError, match="rounds"):
        parse_config(["simulate-usm", "--n", "4"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(ConfigError):
        parse_config(["simulate-balance", "--rounds", "10", "--frobnicate", "1"])


def test_parse_rejects_usm_n_beyond_enumeration():
    with pytest.raises(ConfigError, match="n"):
        parse_config(["simulate-usm", "--n", "21", "--rounds", "10"])


def test_parse_rejects_csv_transcripts():
    with pytest.raises(ConfigError, match="json"):
        ExperimentConfig(
            game="usm", n=4, rounds=5, keep_transcripts=True,
            format="csv", output="x.csv",
        ).validated()


@pytest.mark.parametrize("game, extra", [("offline", {"n": 6, "trials": 10}), ("verify", {"graph": "g.dg"})])
def test_summary_games_reject_csv_output(game, extra, tmp_path):
    # offline and verify write one summary object and no rows; a csv file
    # would hold only the online-game header
    with pytest.raises(ConfigError, match="json"):
        ExperimentConfig(game=game, output=str(tmp_path / "x.csv"), **extra).validated()
    # without an output the default format is never used, so it still
    # validates (test_offline_game_summary runs such a config)
    assert ExperimentConfig(game=game, **extra).validated().format == "csv"
    ExperimentConfig(game=game, format="json", output=str(tmp_path / "x.json"), **extra).validated()


def test_validation_misc():
    with pytest.raises(ConfigError):
        ExperimentConfig(game="nope", rounds=5).validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(game="balance", rounds=0).validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(game="balance", rounds=5, trials=0).validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(game="balance", rounds=5, seed=-1).validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(game="verify").validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(game="offline").validated()


def test_builders_reject_unknown_names():
    with pytest.raises(ConfigError):
        build_subroutine("bandit", 10)
    with pytest.raises(ConfigError):
        build_balance_adversary("zigzag:UR")
    with pytest.raises(ConfigError):
        build_usm_adversary("chaos", 4, 0)
    with pytest.raises(ConfigError):
        build_usm_adversary("cycle-random:k=0", 4, 0)
    with pytest.raises(ConfigError):
        build_usm_adversary("cycle-random:bogus=2", 4, 0)


def test_coin_streams_are_independent_and_reproducible():
    a = coin_stream(3, 0, 1).random(5)
    b = coin_stream(3, 0, 1).random(5)
    c = coin_stream(3, 0, 2).random(5)
    d = coin_stream(3, 1, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# --- balance experiment ----------------------------------------------------

def test_balance_experiment_rows_and_regret_column():
    cfg = ExperimentConfig(game="balance", rounds=50, trials=2, seed=5,
                           adversary="pattern:URL", subroutine="balancer").validated()
    columns, summary = run_experiment(cfg)
    rows = rows_of(columns)
    assert len(rows) == 100
    assert [r[0] for r in rows[:50]] == [0] * 50
    assert [r[1] for r in rows[:3]] == [1, 2, 3]
    for trial, t, reward, cum_reward, cum_opt, regret, queries in rows:
        assert regret == pytest.approx(cfg.alpha * cum_opt - cum_reward, abs=1e-12)
        assert queries == 0
    # cumulative column is a prefix sum of the reward column
    cum = 0.0
    for row in rows[:50]:
        cum += row[2]
        assert row[3] == pytest.approx(cum, abs=1e-9)
    assert summary["total_queries"] == 0
    assert len(summary["final_alpha_regret"]) == 2


def test_balance_experiment_final_matches_replay():
    cfg = ExperimentConfig(game="balance", rounds=200, trials=1, seed=9,
                           adversary="adaptive:punish-last").validated()
    rows, summary = run_experiment(cfg)
    # independent replay through the public pieces
    from onlineusm.framework import run_balance_game

    res = run_balance_game(
        build_subroutine("balancer", 200),
        build_balance_adversary("adaptive:punish-last"),
        200,
        coin_stream(9, 0, 0),
    )
    assert summary["final_alpha_regret"][0] == pytest.approx(
        balance_alpha_regret(res.ledger, 1.0), abs=1e-12
    )


# --- usm experiment ---------------------------------------------------------

@pytest.fixture(scope="module")
def small_usm_config():
    return ExperimentConfig(
        game="usm", n=4, rounds=30, trials=2, seed=3,
        subroutine="balancer", adversary="cycle-random:k=2",
    ).validated()


def test_usm_experiment_row_invariants(small_usm_config):
    columns, summary = run_experiment(small_usm_config)
    rows = rows_of(columns)
    cfg = small_usm_config
    assert len(rows) == cfg.trials * cfg.rounds
    assert [r[:2] for r in rows] == sorted([r[:2] for r in rows])
    last_q = {}
    for trial, t, reward, cum_reward, cum_opt, regret, queries in rows:
        assert queries >= last_q.get(trial, 0)
        last_q[trial] = queries
        assert regret == pytest.approx(cfg.alpha * cum_opt - cum_reward, abs=1e-9)
    assert summary["max_round_queries"] <= 4 * cfg.n + 2
    assert summary["query_budget_per_round"] == 18


def test_usm_rows_match_recomputed_regret(small_usm_config):
    cfg = small_usm_config
    rows = rows_of(run_experiment(cfg)[0])
    # rebuild trial 1 with retention on and recompute regret on 100 random prefixes
    retained = ExperimentConfig(**{**vars(cfg), "keep_transcripts": True, "format": "json"})
    res = _usm_trial(retained, 1)
    history = list(zip(res.oracles, res.chosen_sets))
    trial_rows = [r for r in rows if r[0] == 1]
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = int(rng.integers(1, cfg.rounds + 1))
        want = usm_alpha_regret(history[:t], cfg.alpha)
        assert trial_rows[t - 1][5] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("game", ["usm", "balance"])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("rounds", [1, 17])
def test_summary_finals_are_each_trials_final_regret(game, trials, rounds):
    # the summary takes each trial's final regret from the last row of the
    # regret column; it must be, as a double, alpha times the trial's final
    # best value (USM best fixed set, larger balance pile) minus its reward
    if game == "usm":
        cfg = ExperimentConfig(game="usm", n=4, rounds=rounds, trials=trials, seed=3,
                               adversary="cycle-random:k=2").validated()
        results = [_usm_trial(cfg, k) for k in range(trials)]
        want = [cfg.alpha * r.cum_opt[-1] - r.cum_rewards[-1] for r in results]
    else:
        cfg = ExperimentConfig(game="balance", rounds=rounds, trials=trials, seed=3,
                               adversary="pattern:URLLR", alpha=0.7).validated()
        want = [balance_alpha_regret(_balance_trial(cfg, k).ledger, cfg.alpha) for k in range(trials)]
    assert run_experiment(cfg)[1]["final_alpha_regret"] == want


def _counted_builds(monkeypatch):
    """Route ``harness.build_usm_adversary`` through a wrapper that keeps
    every adversary it builds."""
    built = []
    build = harness.build_usm_adversary

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(harness, "build_usm_adversary", counting)
    return built


@pytest.mark.parametrize("adversary", ["cycle-random:k=3", "fixed-random", "cycle-files"])
def test_cycle_kinds_build_and_track_once_per_experiment(adversary, monkeypatch, tmp_path):
    if adversary == "cycle-files":
        rng = np.random.default_rng(4)
        paths = [tmp_path / f"g{k}.dg" for k in range(2)]
        for p in paths:
            write_digraph(p, random_digraph(5, 0.6, (0.0, 1.0), rng))
        adversary = "cycle-files:" + ";".join(map(str, paths))
    cfg = ExperimentConfig(game="usm", n=5, rounds=40, trials=3, seed=6,
                           adversary=adversary).validated()
    built = _counted_builds(monkeypatch)
    results = _usm_trials(cfg)
    assert len(built) == 1
    shared = results[0].cum_opt
    assert not shared.flags.writeable
    assert all(res.cum_opt is shared for res in results)
    # the best set is shared too, and reaches the final best total
    oracles, best = built[0].oracles, results[0].opt_set
    assert all(res.opt_set == best for res in results)
    assert shared[-1] == sum(oracles[t % len(oracles)].peek(best) for t in range(cfg.rounds))

    built.clear()
    _, summary = run_experiment(cfg)
    assert len(built) == 1
    # every trial queried the one set of oracles, so their counters hold
    # all the experiment's counted queries
    assert sum(f.queries for f in built[0].oracles) == summary["total_queries"]


@pytest.mark.parametrize("adversary", ["fresh-random", "adaptive:punish-last-set"])
def test_other_kinds_build_once_per_trial(adversary, monkeypatch):
    cfg = ExperimentConfig(game="usm", n=5, rounds=40, trials=3, seed=6,
                           adversary=adversary).validated()
    built = _counted_builds(monkeypatch)
    results = _usm_trials(cfg)
    assert len(built) == cfg.trials
    assert len({id(res.cum_opt) for res in results}) == cfg.trials


def test_usm_diagnostics_via_transcripts():
    cfg = ExperimentConfig(
        game="usm", n=5, rounds=25, trials=1, seed=11,
        subroutine="mw", adversary="fixed-random", format="json",
        keep_transcripts=True,
    ).validated()
    _, summary = run_experiment(cfg)
    assert summary["diagnostics"]["opt_tracking_failures"] == 0
    assert summary["diagnostics"]["max_value_identity_residual"] <= 1e-9


def test_usm_always_no_zero_rewards():
    cfg = ExperimentConfig(game="usm", n=4, rounds=10, trials=1, seed=2,
                           subroutine="always-no", adversary="fixed-random").validated()
    columns, _ = run_experiment(cfg)
    for row in rows_of(columns):
        assert row[2] == 0.0  # cut value of the empty set


def test_fixed_random_is_a_one_function_cycle():
    # fixed-random draws the graph cycle-random:k=1 draws, from the same seed
    for params in ("", ":density=0.3,wlo=0.2,whi=0.9"):
        fixed = build_usm_adversary("fixed-random" + params, 5, 8)
        cycle = build_usm_adversary("cycle-random:k=1" + params.replace(":", ","), 5, 8)
        assert len(fixed.oracles) == 1
        assert np.array_equal(value_table(fixed.oracles[0]), value_table(cycle.oracles[0]))
        assert all(fixed.next_oracle(s) is fixed.oracles[0] for s in (None, 0, 0b11111))
    for kind in ("fixed-random", "fresh-random"):
        with pytest.raises(ConfigError, match=f"unknown {kind} parameter 'k'"):
            build_usm_adversary(f"{kind}:k=2", 5, 8)


def test_usm_adversary_files_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    graphs, paths = [], []
    for k in range(2):
        g = random_digraph(4, 0.7, (0.0, 1.0), rng)
        p = tmp_path / f"g{k}.dg"
        write_digraph(p, g)
        graphs.append(g)
        paths.append(str(p))
    tables = [value_table(normalize(g)) for g in graphs]

    def emitted(descriptor, rounds):
        adv = build_usm_adversary(descriptor, 4, 0)
        return [value_table(adv.next_oracle(None)) for _ in range(rounds)]

    for got, want in zip(emitted(f"cycle-files:{paths[0]};{paths[1]}", 5), [0, 1, 0, 1, 0]):
        assert np.allclose(got, tables[want], rtol=0.0, atol=1e-12)
    for got in emitted(f"fixed-file:{paths[1]}", 3):
        assert np.allclose(got, tables[1], rtol=0.0, atol=1e-12)
    with pytest.raises(ConfigError):
        build_usm_adversary(f"cycle-files:{paths[0]}", 5, 0)  # n mismatch
    with pytest.raises(ConfigError, match="fixed-file"):
        build_usm_adversary(f"fixed-file:{paths[0]};{paths[1]}", 4, 0)  # one path only


# --- output ----------------------------------------------------------------

def test_write_csv_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_results(columns_of([]), {"game": "balance"}, "csv", str(path))
    assert path.read_text() == ",".join(RESULT_HEADER) + "\n"


def test_write_csv_formats_int_and_float_columns(tmp_path):
    # int columns print whole through str; .12g would write 1e+14.  Float
    # columns print through .12g, including whole-valued floats.
    path = tmp_path / "r.csv"
    rows = [(0, 1, 0.1 + 0.2, 2.0, 1e-300, -0.0, 10**14), (7, 100000000000000, 1 / 3, 1e20, 5.0, 0.5, 3)]
    write_results(columns_of(rows), {}, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[1] == "0,1,0.3,2,1e-300,-0,100000000000000"
    assert lines[2] == "7,100000000000000,0.333333333333,1e+20,5,0.5,3"


def test_json_roundtrip_exact(tmp_path):
    cfg = ExperimentConfig(game="balance", rounds=40, trials=1, seed=1).validated()
    columns, summary = run_experiment(cfg)
    rows = rows_of(columns)
    path = tmp_path / "out.json"
    write_results(columns, summary, "json", str(path), config=cfg)
    obj = json.loads(path.read_text())
    assert obj["config"]["seed"] == 1
    assert len(obj["rows"]) == len(rows)
    for got, want in zip(obj["rows"], rows):
        assert got == list(want)  # float values survive exactly
    assert obj["summary"]["final_alpha_regret"] == summary["final_alpha_regret"]


def test_json_summary_only(tmp_path):
    cfg = ExperimentConfig(game="balance", rounds=10, trials=1, seed=1).validated()
    columns, summary = run_experiment(cfg)
    path = tmp_path / "s.json"
    write_results(columns, summary, "json", str(path), summary_only=True)
    obj = json.loads(path.read_text())
    assert "rows" not in obj


def test_csv_bytes_deterministic(tmp_path):
    cfg = ExperimentConfig(game="usm", n=4, rounds=20, trials=2, seed=8,
                           subroutine="balancer", adversary="cycle-random:k=2").validated()
    paths = []
    for name in ("a.csv", "b.csv"):
        columns, summary = run_experiment(cfg)
        p = tmp_path / name
        write_results(columns, summary, "csv", str(p), config=cfg)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_offline_game_summary():
    cfg = ExperimentConfig(game="offline", n=8, trials=500, seed=4).validated()
    columns, summary = run_experiment(cfg)
    assert list(columns) == list(RESULT_HEADER)
    assert all(c.size == 0 for c in columns.values())
    opt = summary["opt"]["value"]
    assert opt > 0
    assert summary["det_double_greedy"]["value"] >= opt / 3 - 1e-9
    assert summary["uniform_random_value"] >= opt / 4 - 1e-9
    assert summary["rand_double_greedy"]["mean"] >= opt / 2 - 0.1


def test_verify_game_summary(tmp_path):
    g = random_digraph(6, 0.5, (0.0, 1.0), np.random.default_rng(1))
    p = tmp_path / "g.dg"
    write_digraph(p, g)
    _, summary = run_experiment(ExperimentConfig(game="verify", graph=str(p)).validated())
    assert summary["passed"] is True
    assert summary["witness"] is None
    assert summary["mode"] == "exhaustive"
