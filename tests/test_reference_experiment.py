"""Every run shape against one reference: ``run_experiment`` is ``reference_experiment``.

``references.reference_experiment`` plays each trial of a USM experiment
with a fresh adversary and fresh subroutines, one ``run_round`` per
round, and reads rewards and the best fixed set's running totals by
peeks, sharing no cache with the engines.  Whether the program batches a
cycle's trials, walks them one game at a time or plays another kind
trial by trial, its result columns must be the reference's bit for bit.
A seeded run must also write the same bytes when it runs twice in one
process, whatever the process allocated and freed in between.

Fresh and adaptive runs are drawn only with ``keep_transcripts``: without
retention their best fixed set is tracked from value tables cached under
reused ids (ROADMAP item 1a), so their ``cum_opt`` is wrong and depends
on the process.
"""

import gc
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from onlineusm.harness import SUBROUTINE_NAMES, ExperimentConfig, run_experiment, write_results
from onlineusm.submodular import random_digraph, write_digraph

from references import oracle_from_table, reference_experiment


def graph_files(directory, n, count, seed):
    """``cycle-files`` over ``count`` random digraphs on n vertices written into ``directory``."""
    rng = np.random.default_rng(seed)
    paths = [Path(directory) / f"g{k}.dg" for k in range(count)]
    for p in paths:
        write_digraph(p, random_digraph(n, 0.6, (0.0, 1.0), rng))
    return "cycle-files:" + ";".join(map(str, paths))


@st.composite
def usm_configs(draw, directory):
    """A USM experiment of any adversary kind and subroutine, small enough
    for the reference, with 2^n on either side of the rounds."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["cycle-random", "fixed-random", "cycle-files", "fresh-random",
                                 "adaptive:punish-last-set"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "cycle-random":
        kind = f"cycle-random:k={draw(st.integers(1, 3))}"
    elif kind == "cycle-files":
        kind = graph_files(directory, n, draw(st.integers(1, 3)), seed)
    # item 1a: fresh and adaptive runs track their true regret only with retention
    keep = draw(st.booleans()) if kind.startswith(("cycle", "fixed")) else True
    return ExperimentConfig(game="usm", n=n, rounds=draw(st.integers(1, 80)), trials=draw(st.integers(1, 3)),
                            seed=seed, subroutine=draw(st.sampled_from(SUBROUTINE_NAMES)), adversary=kind,
                            keep_transcripts=keep).validated()


# ~1 s at 150 examples: each example plays and replays at most 3 trials of 80 rounds
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_run_shape_is_the_reference(data):
    with tempfile.TemporaryDirectory() as directory:
        config = data.draw(usm_configs(directory))
        columns, _ = run_experiment(config)
        want = reference_experiment(config)
    assert list(columns) == list(want)
    for name, column in columns.items():
        assert column.dtype == want[name].dtype, name
        assert column.tobytes() == want[name].tobytes(), name


def churn():
    """Allocate and free objects of the kinds a game makes, so that later
    objects may reuse their ids and memory."""
    rng = np.random.default_rng(0)
    junk = [oracle_from_table(rng.random(64)) for _ in range(500)]
    junk += [np.empty(rng.integers(1, 4096)) for _ in range(500)]
    del junk
    gc.collect()


def test_a_seeded_run_writes_the_same_bytes_twice_in_one_process(tmp_path):
    configs = [
        # a cycle whose trials walk (2^6 > 40 rounds), and one that batches
        dict(n=6, rounds=40, trials=3, adversary="cycle-random:k=3"),
        dict(n=4, rounds=40, trials=3, adversary="cycle-random:k=2"),
        dict(n=5, rounds=40, trials=2, adversary="fresh-random", keep_transcripts=True),
        dict(n=5, rounds=40, trials=2, adversary="adaptive:punish-last-set", keep_transcripts=True),
    ]
    for k, fields in enumerate(configs):
        written = []
        for run in range(2):
            config = ExperimentConfig(game="usm", seed=3, format="json", **fields).validated()
            columns, summary = run_experiment(config)
            path = tmp_path / f"{k}-{run}.json"
            write_results(columns, summary, "json", str(path), config=config)
            written.append(path.read_bytes())
            churn()
        assert written[0] == written[1], fields
