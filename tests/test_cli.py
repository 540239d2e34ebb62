import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import onlineusm.cli as cli
from onlineusm import harness, submodular
from onlineusm.errors import ConfigError
from onlineusm.harness import SUBROUTINE_NAMES, build_subroutine
from onlineusm.submodular import (
    ENUMERATION_LIMIT,
    SubmodularOracle,
    directed_cut_value,
    normalize,
    random_digraph,
    verify_submodularity,
    write_digraph,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "onlineusm.cli", *args],
        capture_output=True,
        text=True,
    )


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "simulate-usm" in proc.stdout


#: sha256 of the empty output
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
#: argv -> (exit code, sha256 of stdout, sha256 of stderr), recorded with
#: COLUMNS=80 from the parser that filled in every subcommand's arguments
CLI_SURFACE = {
    ("--help",): (0, "e40abf89aa3a910677707556604c721208af7575f28913d8a49e7b6c3541995a", EMPTY),
    ("simulate-usm", "--help"): (0, "4ff828eb839d7b5bb83dab16b8f22b48f6b1c44b052873327783f6fe7134562d", EMPTY),
    ("simulate-balance", "--help"): (0, "2688e96febe77bb1a9289fd3582081d0b51719506b6072ee7718f65161d38069", EMPTY),
    ("offline", "--help"): (0, "48c3beedab7becdeb1a63c0775aac26f9c9b500d45951331401391df49b18b9e", EMPTY),
    ("verify", "--help"): (0, "46e821ddc0a282d66580c059e8599cfe8f6b82750c57373773e3c33b52730f73", EMPTY),
    ("bogus",): (1, EMPTY, "b55d9d8bf0ce289956798dd8aab56ac250933c904252f66351599999bafd6d03"),
    (): (1, EMPTY, "398a71844e12cf1130e8120e26594978f8c8e18f9dc1ee972324c143698a7cad"),
    ("simulate-usm", "--n", "4"): (1, EMPTY, "c6fdee9d4ada44fdd5be2afe37c82175c641eaf4014e7a6cedab3bd49bba1e87"),
    ("offline", "--nope"): (1, EMPTY, "a0f650bc73172ad2b64740da4e846caf70a66feef2aeb43e82d8984391f33a2a"),
    ("--nope", "offline"): (1, EMPTY, "a0f650bc73172ad2b64740da4e846caf70a66feef2aeb43e82d8984391f33a2a"),
    ("-h", "offline"): (0, "e40abf89aa3a910677707556604c721208af7575f28913d8a49e7b6c3541995a", EMPTY),
    # an option first still runs the named subcommand, which needs its arguments
    ("--nope", "simulate-usm"): (1, EMPTY, "b997827725ec9a4c2a2c400f16eebbdfaba83c4c4192cc585db0dba5e0769a04"),
    ("-x", "simulate-balance", "--rounds"): (1, EMPTY, "784e37857e62621c1d3a620c98b0cc162506c66e88b3538f0df8535d88ff8e93"),
}


@pytest.mark.parametrize("argv", list(CLI_SURFACE), ids=" ".join)
def test_cli_surface_bytes(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's help exits from inside parse_args
        code = exc.code
    out, err = capsys.readouterr()
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest(out), digest(err)) == CLI_SURFACE[argv], (out, err)


SUBCOMMANDS = ("simulate-usm", "simulate-balance", "offline", "verify")


@pytest.mark.parametrize("argv, built", [
    (["offline", "--n", "6", "--trials", "10"], ["onlineusm offline"]),
    (["simulate-usm", "--n", "4", "--rounds", "10"], ["onlineusm simulate-usm"]),
    (["--nope", "verify", "g.dg"], ["onlineusm", *(f"onlineusm {name}" for name in SUBCOMMANDS)]),
])
def test_parsing_adds_only_the_arguments_of_the_subcommand_run(argv, built, monkeypatch):
    progs = []
    add_argument = cli._Parser.add_argument
    monkeypatch.setattr(cli._Parser, "add_argument",
                        lambda self, *args, **kwargs: progs.append(self.prog) or add_argument(self, *args, **kwargs))
    if argv[0] in SUBCOMMANDS:
        cli.parse_config(argv)
    else:
        with pytest.raises(ConfigError, match="unrecognized arguments: --nope"):
            cli.parse_config(argv)
    # every parser built adds its own -h; only the subcommand run adds more
    assert sorted(set(progs)) == sorted(built)
    run = next(arg for arg in argv if arg in SUBCOMMANDS)
    assert {prog for prog in progs if progs.count(prog) > 1} == {f"onlineusm {run}"}


def test_missing_rounds_exit_one():
    proc = run_cli("simulate-usm", "--n", "4")
    assert proc.returncode == 1
    assert "rounds" in proc.stderr


def test_bad_alpha_exit_one():
    proc = run_cli("simulate-balance", "--rounds", "10", "--alpha", "1.5")
    assert proc.returncode == 1
    assert "alpha" in proc.stderr


def test_unknown_flag_exit_one():
    proc = run_cli("simulate-balance", "--rounds", "10", "--nope")
    assert proc.returncode == 1


@pytest.mark.parametrize("name", SUBROUTINE_NAMES)
def test_every_subroutine_name_parses_and_builds(name):
    for command in (["simulate-usm", "--n", "3"], ["simulate-balance"]):
        config = cli.parse_config([*command, "--rounds", "4", "--subroutine", name])
        sub = build_subroutine(config.subroutine, config.rounds)
        assert type(sub.decide(0.5)) is bool
    with pytest.raises(ConfigError):
        cli.parse_config(["simulate-balance", "--rounds", "4", "--subroutine", name + "-x"])


def test_balance_run_writes_csv(tmp_path):
    out = tmp_path / "res.csv"
    proc = run_cli(
        "simulate-balance", "--rounds", "50", "--seed", "4",
        "--adversary", "pattern:RL", "--output", str(out),
    )
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["game"] == "balance"
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,t,reward,cum_reward,cum_opt,alpha_regret,queries"
    assert len(lines) == 51


def test_usm_run_json_summary_only(tmp_path):
    out = tmp_path / "res.json"
    proc = run_cli(
        "simulate-usm", "--n", "4", "--rounds", "25", "--seed", "1",
        "--format", "json", "--summary-only", "--output", str(out),
    )
    assert proc.returncode == 0
    obj = json.loads(out.read_text())
    assert "rows" not in obj
    assert obj["summary"]["n"] == 4


def test_summary_only_reports_the_rows_it_writes(tmp_path, capsys):
    argv = ["simulate-usm", "--n", "4", "--rounds", "10", "--trials", "2", "--output"]
    full, short = tmp_path / "all.csv", tmp_path / "so.csv"
    assert cli.main([*argv, str(full)]) == 0
    assert capsys.readouterr().err == f"wrote 20 rows to {full}\n"
    assert cli.main([*argv, str(short), "--summary-only"]) == 0
    assert capsys.readouterr().err == f"wrote 0 rows to {short}\n"
    assert short.read_text() == "trial,t,reward,cum_reward,cum_opt,alpha_regret,queries\n"


@pytest.mark.parametrize("command", [
    ["simulate-usm", "--n", "4", "--rounds", "20", "--trials", "2", "--seed", "5", "--format", "json"],
    ["offline", "--n", "6", "--trials", "50", "--seed", "5"],
])
def test_json_bytes_do_not_depend_on_the_output_name(tmp_path, capsys, command):
    (tmp_path / "sub").mkdir()
    paths = [tmp_path / "a.json", tmp_path / "sub" / "another-name.json"]
    for path in paths:
        assert cli.main([*command, "--output", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_offline_subcommand():
    proc = run_cli("offline", "--n", "6", "--trials", "200", "--seed", "2")
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["opt"]["value"] >= summary["det_double_greedy"]["value"] - 1e-9


def test_offline_rejects_csv_output(tmp_path, capsys):
    # offline writes one summary object and no rows, so json is its only format
    out = tmp_path / "x.csv"
    argv = ["offline", "--n", "6", "--trials", "10", "--format", "csv", "--output", str(out)]
    assert cli.main(argv) == 1
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_offline_rejects_a_large_n_before_building_the_graph(monkeypatch, capsys):
    import onlineusm.harness as harness

    def no_build(*args, **kwargs):
        raise AssertionError("random_digraph called for an n the ladder rejects")

    monkeypatch.setattr(harness, "random_digraph", no_build)
    assert cli.main(["offline", "--n", "1600", "--trials", "1"]) == 1
    assert "offline ladder needs n <= 20 (exhaustive optimum), got 1600" in capsys.readouterr().err


def test_offline_rejects_a_large_graph_file(tmp_path, capsys):
    p = tmp_path / "big.dg"
    write_digraph(p, random_digraph(21, 0.05, (0.0, 1.0), np.random.default_rng(0)))
    assert cli.main(["offline", "--graph", str(p), "--trials", "1"]) == 1
    assert "offline ladder needs n <= 20 (exhaustive optimum), got 21" in capsys.readouterr().err


def test_verify_pass_exit_zero(tmp_path):
    g = random_digraph(5, 0.6, (0.0, 1.0), np.random.default_rng(3))
    p = tmp_path / "ok.dg"
    write_digraph(p, g)
    proc = run_cli("verify", str(p))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_verify_malformed_file_exit_one(tmp_path):
    p = tmp_path / "bad.dg"
    p.write_text("digraph 2\n1 2 -3\n")
    proc = run_cli("verify", str(p))
    assert proc.returncode == 1


def test_non_finite_weight_in_a_graph_file_exit_one(tmp_path):
    p = tmp_path / "inf.dg"
    p.write_text("digraph 3\n1 2 0.5\n2 3 inf\n")
    proc = run_cli("verify", str(p))
    assert proc.returncode == 1
    assert "non-finite" in proc.stderr
    p = tmp_path / "nan.dg"
    p.write_text("digraph 3\n1 2 nan\n2 3 0.5\n")
    proc = run_cli("offline", "--graph", str(p), "--trials", "10")
    assert proc.returncode == 1
    assert "non-finite" in proc.stderr


def test_exhaustive_verify_reads_the_cut_table(tmp_path, monkeypatch, capsys):
    g = random_digraph(12, 0.5, (0.0, 1.0), np.random.default_rng(12))
    p = tmp_path / "g.dg"
    write_digraph(p, g)
    # the check through the cut function itself: one Python cut sum per mask
    scale = 1.0 / g.total_weight
    oracle = SubmodularOracle(g.n, lambda s: directed_cut_value(g, s) * scale)
    witness = verify_submodularity(oracle)
    want = {"game": "verify", "n": 12, "edges": len(g.edges), "mode": "exhaustive",
            "passed": witness is None, "witness": None, "queries": oracle.queries}
    assert want["queries"] == 1 << 12
    calls = []
    cut_value = submodular.directed_cut_value
    monkeypatch.setattr(submodular, "directed_cut_value", lambda g, s: calls.append(s) or cut_value(g, s))
    assert cli.main(["verify", str(p)]) == 0
    assert capsys.readouterr().out == json.dumps(want, indent=1) + "\n"
    # the sampled mode reads the same table
    assert cli.main(["verify", str(p), "--samples", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["queries"] > 0
    assert calls == []
    # above ENUMERATION_LIMIT it asks the cut function itself, once per query
    big = tmp_path / "big.dg"
    write_digraph(big, random_digraph(ENUMERATION_LIMIT + 1, 0.05, (0.0, 1.0), np.random.default_rng(21)))
    assert cli.main(["verify", str(big), "--samples", "50"]) == 0
    assert len(calls) == json.loads(capsys.readouterr().out)["queries"] > 0


@pytest.mark.parametrize("n, samples, table", [(2, 1, True), (12, 3, False), (12, 4, True),
                                                (ENUMERATION_LIMIT, 50, False), (ENUMERATION_LIMIT, 1024, True)])
def test_sampled_verify_builds_the_table_only_when_cheaper(tmp_path, monkeypatch, capsys, n, samples, table):
    # 4 cut sums per sample cost less than the table's 2^n entries below
    # 2^(n - 10) samples; either way the summary is the one the table gives
    g = random_digraph(n, 0.5, (0.0, 1.0), np.random.default_rng(n))
    p = tmp_path / "g.dg"
    write_digraph(p, g)
    oracle = normalize(g)
    witness = verify_submodularity(oracle, samples=samples, seed=3)
    want = {"game": "verify", "n": n, "edges": len(g.edges), "mode": "sampled",
            "passed": witness is None, "witness": None, "queries": oracle.queries}
    tables, calls = [], []
    cut_table, cut_value = submodular._cut_table, submodular.directed_cut_value
    monkeypatch.setattr(submodular, "_cut_table", lambda g, scale: tables.append(g.n) or cut_table(g, scale))
    monkeypatch.setattr(submodular, "directed_cut_value", lambda g, s: calls.append(s) or cut_value(g, s))
    assert cli.main(["verify", str(p), "--samples", str(samples), "--seed", "3"]) == 0
    assert capsys.readouterr().out == json.dumps(want, indent=1) + "\n"
    assert (tables, len(calls)) == (([n], 0) if table else ([], want["queries"]))


def test_verify_too_large_exit_one(tmp_path, monkeypatch, capsys):
    g = random_digraph(17, 0.05, (0.0, 1.0), np.random.default_rng(0))
    p = tmp_path / "big.dg"
    write_digraph(p, g)
    proc = run_cli("verify", str(p))
    assert proc.returncode == 1
    assert "samples" in proc.stderr
    sampled = run_cli("verify", str(p), "--samples", "200")
    assert sampled.returncode == 0
    # the rejected exhaustive request builds no cut table first
    tables = []
    cut_table = submodular._cut_table
    monkeypatch.setattr(submodular, "_cut_table", lambda g, scale: tables.append(g.n) or cut_table(g, scale))
    assert cli.main(["verify", str(p)]) == 1
    assert capsys.readouterr().err == proc.stderr
    assert tables == []


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_sample_count_below_one_exit_one_before_reading(samples, tmp_path, monkeypatch, capsys):
    p = tmp_path / "g20.dg"
    write_digraph(p, random_digraph(ENUMERATION_LIMIT, 0.05, (0.0, 1.0), np.random.default_rng(3)))
    tables, reads = [], []
    cut_table, read = submodular._cut_table, harness.read_digraph
    monkeypatch.setattr(submodular, "_cut_table", lambda g, scale: tables.append(g.n) or cut_table(g, scale))
    monkeypatch.setattr(harness, "read_digraph", lambda path: reads.append(path) or read(path))
    assert cli.main(["verify", str(p), "--samples", samples]) == 1
    assert capsys.readouterr().err == f"error: --samples must be >= 1, got {samples}\n"
    assert tables == [] and reads == []


@pytest.mark.parametrize("adversary", ["cycle-random:whi=nan", "cycle-random:whi=inf",
                                       "fixed-random:wlo=nan", "fresh-random:whi=inf"])
def test_non_finite_weight_range_exit_one(adversary):
    proc = run_cli("simulate-usm", "--n", "4", "--rounds", "5", "--adversary", adversary)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("adversary", ["cycle-random:k=2,k=3", "fresh-random:density=0.5,density=0.6"])
def test_repeated_descriptor_key_exit_one(adversary):
    proc = run_cli("simulate-usm", "--n", "3", "--rounds", "5", "--adversary", adversary)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "given twice" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_workers_must_be_one():
    args = ("simulate-usm", "--n", "4", "--rounds", "20", "--trials", "2", "--keep-transcripts")
    proc = run_cli(*args, "--workers", "2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --workers must be 1")
    assert "Traceback" not in proc.stderr
    proc = run_cli(*args, "--workers", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trials"] == 2


def test_unwritable_output_exit_two(tmp_path):
    out = tmp_path / "missing-dir" / "res.csv"
    proc = run_cli("simulate-balance", "--rounds", "5", "--output", str(out))
    assert proc.returncode == 2


def test_verify_violation_maps_to_exit_three(monkeypatch):
    # graph-backed cut functions are genuinely submodular, so the
    # witness path is exercised by stubbing the experiment result
    monkeypatch.setattr(
        cli, "run_experiment",
        lambda cfg: ([], {"game": "verify", "passed": False,
                          "witness": {"s": 1, "t": 0, "i": 2}}),
    )
    assert cli.main(["verify", "whatever.dg"]) == 3
