"""``IdColumn``, the joined ids of an anchored pool, and the ids it must hold.

A column holds any ``str``: a trailing or inner NUL, a lone surrogate (a
JSON escape only, so only the line reader yields one), a newline and
non-BMP and non-ASCII characters. Each path that reads ids, from both
readers through ``take``, the tie-break order, ``sample``, ``export_subset``
and ``write_trace``, is compared against the record-based references.
"""
from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonical_writers
from conftest import make_tree
from full_rescoring import sample_full_rescoring
from record_setup import _rank_candidates
from record_setup import load_anchored as load_records
from tagforest import (
    AnchoredPool,
    AnchoredRecord,
    ObjectiveConfig,
    SamplerConfig,
    export_subset,
    load_anchored,
    sample,
    write_trace,
)
from tagforest import anchoring
from tagforest.anchoring import IdColumn
from tagforest.sampler import _candidate_setup

# Characters a column must keep as given; ids built from them differ only
# in a NUL, a surrogate, a combining mark or a non-BMP character.
_CHARS = ["a", "b", "\x00", "\ud800", "\udfff", "\n", "é", "\u0301", "\U0001d11e", "\U0001f600"]
_ID = st.lists(st.sampled_from(_CHARS), max_size=4).map("".join)

# ids for the file round trip: each ends in or holds one of the characters
# above, and several differ from another only there
_ODD_IDS = [
    "a", "a\x00", "\x00", "a\x00b", "\x00\x00",
    "\ud800", "x\ud800", "\ud800\x00",
    "line\nbreak", "line", "\n",
    "é", "e\u0301", "e",
    "\U0001d11e", "\U0001d11e\x00", "\U0001f600",
]


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of what it raises."""
    try:
        return "returned", fn(*args)
    except ValueError as exc:  # UnicodeEncodeError included
        return "raised", type(exc).__name__, str(exc)


class TestSequence:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        strings=st.lists(_ID, max_size=12),
        cut=st.tuples(
            st.none() | st.integers(-14, 14),
            st.none() | st.integers(-14, 14),
            st.none() | st.integers(-4, 4).filter(bool),
        ),
        chunk=st.sampled_from([1, 2, 5, anchoring._ITER_ROWS]),
    )
    def test_matches_the_list(self, strings, cut, chunk):
        column = IdColumn.from_strings(strings)
        n = len(strings)
        assert len(column) == n
        assert column.ends.dtype == np.int64
        assert column.text == "".join(strings)
        with mock.patch.object(anchoring, "_ITER_ROWS", chunk):
            assert list(column) == strings
        assert [column[i] for i in range(-n, n)] == strings + strings
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                column[i]
        part = column[slice(*cut)]
        assert isinstance(part, IdColumn)
        assert list(part) == strings[slice(*cut)]

    def test_numpy_index(self):
        column = IdColumn.from_strings(["a", "\x00", "b"])
        assert column[np.int64(1)] == "\x00" and column[np.int64(-1)] == "b"

    def test_pool_holds_one_column(self):
        # any sequence of str given for ids becomes the pool's one column
        pool = AnchoredPool(
            ids=["a\x00", "b"],
            leaf_ptr=np.array([0, 1, 1]),
            leaf_ids=np.array([1]),
            dropped=[(), ()],
            quality=np.array([0.5, 0.5]),
            complexity=np.array([0.5, 0.5]),
        )
        assert isinstance(pool.ids, IdColumn) and list(pool.ids) == ["a\x00", "b"]
        records = [AnchoredRecord("\ud800", (1,), (), 0.5, 0.5)]
        for pool in (AnchoredPool.from_records(records), AnchoredPool.from_records(records).take([0])):
            assert isinstance(pool.ids, IdColumn) and list(pool.ids) == ["\ud800"]


def _write_rows(path, rows, ensure_ascii: bool) -> None:
    """One compact JSON row per line; an id holding a surrogate is always escaped."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            escape = ensure_ascii or any("\ud800" <= ch <= "\udfff" for ch in row["id"])
            f.write(json.dumps(row, ensure_ascii=escape, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("ensure_ascii", [True, False], ids=["escaped", "raw"])
@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_odd_ids_round_trip(tmp_path, ensure_ascii, alpha):
    tree = make_tree([None, 0, 0, 1, 1, 2])  # leaves 3, 4 and 5
    leaves = [3, 4, 5]
    # three score levels, so most candidates tie and the id decides
    rows = [
        {"id": rid, "leaves": [leaves[k % 3]] if k % 5 else [],
         "dropped": ["t\x00"] * (k % 2), "quality": [0.5, 0.25, 0.5][k % 3],
         "complexity": 0.5}
        for k, rid in enumerate(reversed(_ODD_IDS))
    ]
    path = tmp_path / "anchored.jsonl"
    _write_rows(path, rows, ensure_ascii)

    want = load_records(path)
    with open(path, encoding="utf-8") as f:
        lines = anchoring._read_lines(f)
    got = load_anchored(path)
    for pool in (got, lines):
        assert isinstance(pool.ids, IdColumn)
        assert list(pool.ids) == [r["id"] for r in rows]
        assert repr(list(pool)) == repr(want)
    picked = [len(want) - 1, 0, 5, 5, 2]
    assert repr(list(got.take(picked))) == repr([want[i] for i in picked])

    usable = [r for r in want if r.leaves]
    cand, _ = _rank_candidates(usable, alpha)
    order, *_ = _candidate_setup(got, tree, alpha)
    assert [got.ids[i] for i in order.tolist()] == [r.id for r in cand]

    config = SamplerConfig(budget=len(usable), objective=ObjectiveConfig(alpha=alpha))
    selected, trace = sample(got, tree, config)
    ref_selected, ref_trace = sample_full_rescoring(want, tree, config)
    assert repr(selected) == repr(ref_selected)
    assert repr(trace.picks) == repr(ref_trace.picks)
    # a lone surrogate cannot be written as UTF-8: both writers refuse it alike
    for name, write, reference in (
        ("subset", lambda p: export_subset(selected, trace, None, p),
         lambda p: canonical_writers.export_subset(ref_selected, ref_trace, None, p)),
        ("trace", lambda p: write_trace(trace, p),
         lambda p: canonical_writers.write_trace(ref_trace, p)),
    ):
        a, b = tmp_path / f"{name}.got", tmp_path / f"{name}.want"
        assert _outcome(write, a) == _outcome(reference, b)
        if b.exists() and a.exists():
            assert a.read_bytes() == b.read_bytes()


def test_surrogate_free_ids_write_and_read_back(tmp_path):
    # every odd id but the lone surrogates survives write_anchored, and the
    # written file reads back to the same pool
    ids = [rid for rid in _ODD_IDS if not any("\ud800" <= ch <= "\udfff" for ch in rid)]
    pool = AnchoredPool.from_records([
        AnchoredRecord(rid, (k + 1,), ("\x00",) * (k % 2), 0.5, k / 100)
        for k, rid in enumerate(ids)
    ])
    path = tmp_path / "a.jsonl"
    anchoring.write_anchored(pool, path)
    canonical_writers.write_anchored(pool, tmp_path / "want.jsonl")
    assert path.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert repr(list(load_anchored(path))) == repr(list(pool))


def _refuse_fallback(f):
    raise AssertionError("the line reader ran")


def test_non_ascii_ids_take_the_fast_path(tmp_path):
    ids = ["é", "e\u0301", "e", "\U0001d11e", "\U0001d11ea", "\U0001f600", "名"]
    rows = [{"id": rid, "leaves": [1], "dropped": [], "quality": 0.5, "complexity": 0.5}
            for rid in ids]
    path = tmp_path / "a.jsonl"
    _write_rows(path, rows, ensure_ascii=False)
    with mock.patch.object(anchoring, "_read_lines", _refuse_fallback):
        got = load_anchored(path)
    assert list(got.ids) == ids
    assert repr(list(got)) == repr(load_records(path))


_ROW = '{"id":"%s","leaves":[1],"dropped":[],"quality":0.5,"complexity":0.5}\n'


@pytest.mark.parametrize("collide", [lambda s: 7, len], ids=["constant", "length"])
def test_hash_collision_between_distinct_ids_loads(tmp_path, collide):
    path = tmp_path / "a.jsonl"
    path.write_text("".join(_ROW % rid for rid in ["ab", "cd", "a", "b", "abc"]), encoding="utf-8")
    with mock.patch.object(anchoring, "hash", collide, create=True), \
            mock.patch.object(anchoring, "_read_lines", _refuse_fallback):
        got = load_anchored(path)
    assert list(got.ids) == ["ab", "cd", "a", "b", "abc"]


@pytest.mark.parametrize("collide", [None, lambda s: 7, len], ids=["hash", "constant", "length"])
def test_duplicate_id_still_falls_back(tmp_path, collide):
    path = tmp_path / "a.jsonl"
    path.write_text("".join(_ROW % rid for rid in ["ab", "cd", "x", "cd"]), encoding="utf-8")
    with mock.patch.object(anchoring, "hash", collide or hash, create=True):
        with open(path, encoding="utf-8") as f:
            assert anchoring._read_fixed_shape(f) is None
        with pytest.raises(ValueError) as got:
            load_anchored(path)
    assert str(got.value) == "line 4: duplicate id 'cd'"
    with pytest.raises(ValueError, match="^line 4: duplicate id 'cd'$"):
        load_records(path)
