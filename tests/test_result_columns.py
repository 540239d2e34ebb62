"""Result columns and their output, bit for bit against tuple rows.

``run_experiment`` returns seven column arrays.  These tests pin them to
the tuple rows the harness assembled before (``references``) with
``==`` on every value, for every subroutine, for the cycle, fixed and
file adversaries and for the balance game, and pin the CSV and JSON
writers to per-row formatting and to ``json.dumps``.
"""

import json
import math
import struct
import tracemalloc
from dataclasses import asdict
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlineusm import harness
from onlineusm.harness import (
    RESULT_HEADER,
    SUBROUTINE_NAMES,
    ExperimentConfig,
    _balance_trial,
    _usm_trial,
    run_experiment,
    write_results,
)
from onlineusm.submodular import random_digraph, write_digraph

from conftest import INT_COLUMNS, columns_of
from references import reference_balance_rows, reference_csv_line, reference_usm_rows


def assert_columns_are_rows(columns, rows):
    assert list(columns) == list(RESULT_HEADER)
    for j, name in enumerate(RESULT_HEADER):
        column = columns[name]
        assert column.dtype == (np.int64 if name in INT_COLUMNS else np.float64)
        values = column.tolist()
        want = [row[j] for row in rows]
        assert [type(v) for v in values] == [type(v) for v in want]
        assert values == want


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    rng = np.random.default_rng(12)
    paths = []
    for k in range(2):
        p = tmp_path_factory.mktemp("graphs") / f"g{k}.dg"
        write_digraph(p, random_digraph(5, 0.6, (0.0, 1.0), rng))
        paths.append(str(p))
    return paths


@pytest.mark.parametrize("subroutine", SUBROUTINE_NAMES)
@pytest.mark.parametrize("adversary", ["cycle-random:k=3", "fixed-random", "cycle-files", "fixed-file"])
def test_usm_columns_are_the_tuple_rows(subroutine, adversary, graph_files):
    if adversary == "cycle-files":
        adversary = "cycle-files:" + ";".join(graph_files)
    elif adversary == "fixed-file":
        adversary = "fixed-file:" + graph_files[1]
    cfg = ExperimentConfig(game="usm", n=5, rounds=70, trials=3, seed=6, subroutine=subroutine,
                           adversary=adversary).validated()
    columns, _ = run_experiment(cfg)
    rows = reference_usm_rows([_usm_trial(cfg, k) for k in range(cfg.trials)], cfg.rounds, cfg.alpha)
    assert_columns_are_rows(columns, rows)


@pytest.mark.parametrize("subroutine", SUBROUTINE_NAMES)
@pytest.mark.parametrize("adversary, alpha", [("pattern:URLLUR", 1.0), ("adaptive:punish-last", 0.7),
                                              ("adaptive:reward-chase", 0.3)])
def test_balance_columns_are_the_tuple_rows(subroutine, adversary, alpha):
    cfg = ExperimentConfig(game="balance", rounds=90, trials=3, seed=2, subroutine=subroutine,
                           adversary=adversary, alpha=alpha).validated()
    columns, _ = run_experiment(cfg)
    rows = reference_balance_rows([_balance_trial(cfg, k) for k in range(cfg.trials)],
                                  cfg.rounds, cfg.alpha)
    assert_columns_are_rows(columns, rows)


# --- writers ----------------------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_INTS = st.integers(-(2**63), 2**63 - 1)


@st.composite
def tuple_rows(draw):
    """Rows of RESULT_HEADER's kinds: Python ints and floats of any value."""
    count = draw(st.integers(0, 12))
    return [tuple(draw(_INTS if name in INT_COLUMNS else _FLOATS) for name in RESULT_HEADER)
            for _ in range(count)]


def _float_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: nans of other payloads and signs, infinities, subnormals and both zeros
_SPECIAL_FLOATS = (0.0, -0.0, math.nan, _float_bits(0x7FF8000000000001), _float_bits(0xFFF8000000000000),
                   _float_bits(0x7FF0000000000001), math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072e-308)
_BLOCK_FLOATS = st.sampled_from(_SPECIAL_FLOATS) | _FLOATS


def _flipped(v):
    """v with its sign bit flipped when it is a zero, and v otherwise."""
    return -v if v == 0.0 else v


@st.composite
def trial_block_rows(draw):
    """Rows as an experiment lays them out, in trial blocks: each block a
    run of one ``trial`` value, drawn anew (so the column need not be
    monotone).  A block either is new, of its own length, each column's
    cells drawn apart or as one value, or repeats an earlier block's
    length and chosen columns, its float cells zero-flipped here and
    there (0.0 for -0.0 and back); the others are drawn anew."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        trial = draw(_INTS)
        if blocks and draw(st.booleans()):
            source = draw(st.sampled_from(blocks))
            kept = draw(st.lists(st.booleans(), min_size=len(RESULT_HEADER), max_size=len(RESULT_HEADER)))
            flips = draw(st.lists(st.booleans(), min_size=len(source), max_size=len(source)))
            rows = []
            for row, flip in zip(source, flips):
                cells = [trial]
                for j, name in enumerate(RESULT_HEADER[1:], 1):
                    if not kept[j]:
                        cells.append(draw(_INTS if name in INT_COLUMNS else _BLOCK_FLOATS))
                    else:
                        cells.append(_flipped(row[j]) if flip and name not in INT_COLUMNS else row[j])
                rows.append(tuple(cells))
        else:
            length = draw(st.integers(1, 6))
            columns = [[trial] * length]
            for name in RESULT_HEADER[1:]:
                cell = _INTS if name in INT_COLUMNS else _BLOCK_FLOATS
                one = draw(st.booleans())
                columns.append([draw(cell)] * length if one else [draw(cell) for _ in range(length)])
            rows = list(zip(*columns))
        blocks.append(rows)
    return [row for rows in blocks for row in rows]


_NAN1 = _float_bits(0x7FF8000000000001)


@settings(max_examples=160, deadline=None)
@given(rows=tuple_rows() | trial_block_rows(), rows_per_slice=st.integers(1, 5))
# a block repeating the one before it but for a flipped zero, and nans of
# two payloads, with trial values falling
@example(rows=[(5, 1, 0.0, 1.0, 2.0, math.nan, 10), (5, 2, 0.5, -0.0, 2.0, 0.0, 20),
               (3, 1, -0.0, 1.0, 2.0, _NAN1, 10), (3, 2, 0.5, 0.0, 2.0, 0.0, 20)], rows_per_slice=1)
# a column of one value but for a zero's sign, after a block of one value
@example(rows=[(7, 1, 0.0, 0.0, 1.0, 0.0, 4), (7, 1, 0.0, 0.0, 1.0, 0.0, 4),
               (2, 1, 0.0, -0.0, 1.0, 0.0, 4), (2, 1, 0.0, 0.0, 1.0, 0.0, 4)], rows_per_slice=3)
def test_csv_is_the_per_row_formatting(tmp_path_factory, rows, rows_per_slice):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    with patch.object(harness, "_ROWS_PER_SLICE", rows_per_slice):
        write_results(columns_of(rows), {}, "csv", str(path))
    want = "".join(line + "\n" for line in [",".join(RESULT_HEADER), *map(reference_csv_line, rows)])
    assert path.read_bytes() == want.encode()


#: finite rows, then rows holding each non-finite float and a negative zero
_JSON_ROWS = [(0, 1, 0.1, 0.30000000000000004, 1e-05, -2.5e-300, 16), (0, 2, 5e-324, 1e16, -1.0, 123.0, 32),
              (1, 1, math.nan, 0.0, 1.0, 2.0, 16), (1, 2, -0.0, math.inf, 1.0, -math.inf, 32),
              (2, 1, 0.5, -0.0, 1.5, -0.0, 16), (2, 2, 0.25, 0.75, 1.75, 0.0, 32)]


@settings(max_examples=40, deadline=None)
@given(rows=tuple_rows(), rows_per_slice=st.integers(1, 5), summary_only=st.booleans())
# nan, infinities and -0.0 in slices next to finite ones, all in one
# slice, summary only, and no rows
@example(rows=_JSON_ROWS, rows_per_slice=2, summary_only=False)
@example(rows=_JSON_ROWS, rows_per_slice=1024, summary_only=False)
@example(rows=_JSON_ROWS, rows_per_slice=2, summary_only=True)
@example(rows=[], rows_per_slice=2, summary_only=False)
def test_json_is_json_dumps(tmp_path_factory, rows, rows_per_slice, summary_only):
    path = tmp_path_factory.mktemp("json") / "r.json"
    cfg = ExperimentConfig(game="balance", rounds=3, output=str(path), format="json").validated()
    summary = {"growth_exponent": float("nan"), "final_alpha_regret": [0.1, -2.5e-300], "name": "é"}
    with patch.object(harness, "_ROWS_PER_SLICE", rows_per_slice):
        write_results(columns_of(rows), summary, "json", str(path), config=cfg,
                      summary_only=summary_only)
    config = asdict(cfg)
    del config["output"]
    obj = {"config": config, "summary": summary}
    if not summary_only:
        obj["rows"] = [list(row) for row in rows]
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=1) + "\n"


# --- per-round text ---------------------------------------------------------

_ROUND_COLUMNS = ("t", "cum_opt", "queries")


def _drawn(name, count, rng):
    if name in INT_COLUMNS:
        return rng.integers(-10**6, 10**6, count).tolist()
    return (rng.standard_normal(count) * 1e3).tolist()


def block_rows(lengths, repeated=_ROUND_COLUMNS, seed=0):
    """Tuple rows in trial blocks of the given lengths, trial k's block
    holding ``trial`` k.  Each ``repeated`` column holds the same cells,
    round by round, in every block (the longest block's cells, cut to the
    block's length); the others are drawn per row."""
    rng = np.random.default_rng(seed)
    per_round = {name: _drawn(name, max(lengths), rng) for name in repeated}
    rows = []
    for trial, length in enumerate(lengths):
        cells = [per_round[name][:length] if name in repeated else _drawn(name, length, rng)
                 for name in RESULT_HEADER]
        cells[0] = [trial] * length
        rows += zip(*cells)
    return rows


def per_round_of(rows):
    """:func:`harness._per_round` of the rows' columns, its mask as column names."""
    columns = columns_of(rows)
    length, shared = harness._per_round([columns[name] for name in RESULT_HEADER])
    return length, {name for name, s in zip(RESULT_HEADER, shared) if s}


def assert_writers_are_the_references(path, rows, rows_per_slice):
    """Both writers give the per-row CSV lines and ``json.dumps``'s bytes."""
    with patch.object(harness, "_ROWS_PER_SLICE", rows_per_slice):
        write_results(columns_of(rows), {}, "csv", str(path / "r.csv"))
        write_results(columns_of(rows), {}, "json", str(path / "r.json"))
    want = "".join(line + "\n" for line in [",".join(RESULT_HEADER), *map(reference_csv_line, rows)])
    assert (path / "r.csv").read_bytes() == want.encode()
    obj = {"summary": {}, "rows": [list(row) for row in rows]}
    assert (path / "r.json").read_text(encoding="utf-8") == json.dumps(obj, indent=1) + "\n"


def test_cycle_rows_repeat_t_cum_opt_and_queries(tmp_path):
    rows = block_rows([6] * 4)
    assert per_round_of(rows) == (6, set(_ROUND_COLUMNS))
    # a chunk of four rounds and one of two, per block
    assert_writers_are_the_references(tmp_path, rows, 4)


@pytest.mark.parametrize("lengths", [[5, 3, 5], [3, 5, 4], [4, 2, 2]])
def test_blocks_of_unequal_length(tmp_path, lengths):
    rows = block_rows(lengths)
    assert per_round_of(rows) == (1, set())
    for rows_per_slice in (2, 3, 1024):
        assert_writers_are_the_references(tmp_path, rows, rows_per_slice)


def test_unequal_trials_repeating_at_the_first_ones_length(tmp_path):
    # trial 1 plays trial 0's two rounds twice: blocks of two rows repeat
    # t and queries although trial 1 is twice as long
    rows = [(0, 1, 0.5, 0.5, 1.0, 0.0, 10), (0, 2, 0.25, 0.75, 1.5, 0.0, 20),
            (1, 1, 0.125, 0.125, 1.0, 0.375, 10), (1, 2, 1.0, 1.125, 1.5, -0.375, 20),
            (1, 1, 0.0, 1.125, 2.5, 0.125, 10), (1, 2, 1e-300, 1.125, 2.5, 0.125, 20)]
    assert per_round_of(rows) == (2, {"t", "queries"})
    assert_writers_are_the_references(tmp_path, rows, 3)


@pytest.mark.parametrize("rows_per_slice, trials", [(10, 7), (1024, 700)])
def test_blocks_shorter_than_a_slice_with_a_partial_last_slice(tmp_path, rows_per_slice, trials):
    # three whole blocks of three rows per slice of 10, and a last slice of
    # one block; 341 blocks per slice of 1024, and a last slice of 18
    rows = block_rows([3] * trials)
    assert per_round_of(rows) == (3, set(_ROUND_COLUMNS))
    assert_writers_are_the_references(tmp_path, rows, rows_per_slice)


def test_a_repeated_column_broken_in_one_block_by_a_zeros_sign(tmp_path):
    rows = block_rows([5] * 4)
    # round 3's cum_opt is 0.0 in every block, and -0.0 in trial 2's
    for k in range(2, len(rows), 5):
        rows[k] = (*rows[k][:4], 0.0, *rows[k][5:])
    assert per_round_of(rows) == (5, set(_ROUND_COLUMNS))
    rows[12] = (*rows[12][:4], -0.0, *rows[12][5:])
    assert per_round_of(rows) == (5, {"t", "queries"})
    assert_writers_are_the_references(tmp_path, rows, 2)
    assert (tmp_path / "r.csv").read_text().splitlines()[1 + 12].split(",")[4] == "-0"


@pytest.mark.parametrize("rows_per_slice", [3, 1024])
def test_one_trial(tmp_path, rows_per_slice):
    rows = block_rows([7])
    assert per_round_of(rows) == (1, set())
    assert_writers_are_the_references(tmp_path, rows, rows_per_slice)


@pytest.mark.parametrize("rows_per_slice", [2, 5, 1024])
def test_every_column_but_trial_repeating(tmp_path, rows_per_slice):
    rows = block_rows([4] * 3, repeated=RESULT_HEADER[1:])
    assert per_round_of(rows) == (4, set(RESULT_HEADER[1:]))
    assert_writers_are_the_references(tmp_path, rows, rows_per_slice)


def test_nan_and_infinities_in_a_repeated_column(tmp_path):
    rows = block_rows([4] * 3)
    special = [math.nan, math.inf, -math.inf, 1.5]
    rows = [(*row[:4], special[k % 4], *row[5:]) for k, row in enumerate(rows)]
    assert per_round_of(rows) == (4, set(_ROUND_COLUMNS))
    assert_writers_are_the_references(tmp_path, rows, 3)
    text = (tmp_path / "r.json").read_text()
    assert "NaN" in text and "-Infinity" in text


#: a bound on the peak of traced memory while a 2-trial, 2^16-round run
#: is written as JSON.  The writer keeps the per-round text of one trial
#: block, one string per chunk of rounds: about 5.4 MiB here (3 MiB in
#: CSV, from the same helper).  One str object per per-round cell would
#: take at least 56 bytes and a list slot, over 12 MiB for three columns.
_WRITE_PEAK_BYTES = 8 * 2**20


def test_writing_a_long_horizon_keeps_memory_bounded(tmp_path):
    rounds = 2**16
    rng = np.random.default_rng(5)
    t = np.arange(1, rounds + 1)
    best = np.tile(np.cumsum(rng.random(rounds)), 2)
    reward = rng.random(2 * rounds)
    cum_reward = np.cumsum(reward.reshape(2, rounds), axis=1).ravel()
    columns = harness._columns(np.repeat(np.arange(2), rounds), np.tile(t, 2), reward, cum_reward,
                               best, 0.5 * best - cum_reward, np.tile(34 * t, 2))
    shared = [name in _ROUND_COLUMNS for name in RESULT_HEADER]
    assert harness._per_round([columns[name] for name in RESULT_HEADER]) == (rounds, shared)
    tracemalloc.start()
    try:
        write_results(columns, {}, "json", str(tmp_path / "r.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _WRITE_PEAK_BYTES
