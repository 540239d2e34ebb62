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


@settings(max_examples=40, deadline=None)
@given(rows=tuple_rows(), rows_per_slice=st.integers(1, 5), summary_only=st.booleans())
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
