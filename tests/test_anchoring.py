"""Anchoring tests: exact matches, similarity matching, activation lifting."""
from __future__ import annotations

import json
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforest import (
    AnchoredPool,
    AnchoredRecord,
    EmbeddingTable,
    Instance,
    anchor_pool,
    build_ancestry_matrix,
    load_anchored,
    write_anchored,
)
from tagforest import anchoring

from conftest import make_tree, random_tree
from path_lifting import anchor_instance
from record_setup import load_anchored as load_records


def _inst(i: str, tags, q: float = 0.5, c: float = 0.5) -> Instance:
    return Instance(id=i, query="q", response="r", tags=tuple(tags), quality=q, complexity=c)


class TestAnchorInstance:
    def test_exact_name_match_similarity_one(self, tiny_tree):
        profile = anchor_instance(_inst("x", ["l1"]), tiny_tree, None)
        assert profile.leaf_ids == (1,)
        assert profile.matched["l1"] == (1, 1.0)
        assert profile.dropped == ()

    def test_tree_activation_worked_example(self, tiny_tree):
        # both leaves active: h_tree = M @ [1,1] = [2,1,1]
        profile = anchor_instance(_inst("x", ["l1", "l2"]), tiny_tree, None)
        assert profile.leaf_ids == (1, 2)
        np.testing.assert_array_equal(profile.node_ids, [0, 1, 2])
        np.testing.assert_array_equal(profile.node_counts, [2, 1, 1])

    def test_activation_equals_ancestry_product(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            anc = build_ancestry_matrix(tree)
            leaf_names = [tree.node(int(i)).name for i in tree.leaf_ids]
            k = int(rng.integers(1, min(4, len(leaf_names)) + 1))
            chosen = [leaf_names[j] for j in rng.choice(len(leaf_names), k, replace=False)]
            profile = anchor_instance(_inst("x", chosen), tree, None)
            h_leaf = np.zeros(len(leaf_names), dtype=np.int64)
            for leaf in profile.leaf_ids:
                h_leaf[tree.leaf_pos[leaf]] = 1
            expected = anc.tree_counts(h_leaf)
            dense = np.zeros(tree.n_nodes, dtype=np.int64)
            dense[profile.node_ids] = profile.node_counts
            np.testing.assert_array_equal(dense, expected)

    def test_similarity_matching_with_embeddings(self, tiny_tree):
        table = EmbeddingTable(dimension=2)
        table.entries["l1"] = np.array([1.0, 0.0])
        table.entries["l2"] = np.array([0.0, 1.0])
        table.entries["near-l2"] = np.array([0.1, 0.9])
        profile = anchor_instance(_inst("x", ["near-l2"]), tiny_tree, table)
        assert profile.leaf_ids == (2,)
        leaf, sim = profile.matched["near-l2"]
        assert leaf == 2 and sim > 0.9

    def test_threshold_drops_and_unanchorable(self, tiny_tree):
        table = EmbeddingTable(dimension=2)
        table.entries["l1"] = np.array([1.0, 0.0])
        table.entries["l2"] = np.array([0.9, 0.1])
        table.entries["far"] = np.array([-1.0, 0.0])
        profile = anchor_instance(
            _inst("x", ["far"]), tiny_tree, table, min_similarity=0.3
        )
        assert profile.unanchorable
        assert profile.dropped == ("far",)
        assert profile.leaf_ids == ()

    def test_duplicate_tags_collapse_to_binary(self, tiny_tree):
        profile = anchor_instance(_inst("x", ["l1", "l1", "l1"]), tiny_tree, None)
        assert profile.leaf_ids == (1,)
        np.testing.assert_array_equal(profile.node_counts, [1, 1])

    def test_name_collision_resolves_to_lowest_leaf_id(self):
        tree = make_tree([None, 0, 0], names=["root", "dup", "dup"])
        profile = anchor_instance(_inst("x", ["dup"]), tree, None)
        assert profile.leaf_ids == (1,)

    def test_argmax_tie_breaks_to_lowest_leaf_id(self):
        tree = make_tree([None, 0, 0], names=["root", "la", "lb"])
        table = EmbeddingTable(dimension=2)
        table.entries["la"] = np.array([1.0, 0.0])
        table.entries["lb"] = np.array([1.0, 0.0])  # identical leaf vectors
        table.entries["query"] = np.array([1.0, 0.0])
        profile = anchor_instance(_inst("x", ["query"]), tree, table)
        assert profile.leaf_ids == (1,)


class TestAnchorPool:
    def test_matches_single_instance_path(self, tiny_tree):
        rng = np.random.default_rng(52)
        table = EmbeddingTable(dimension=4)
        for name in ("l1", "l2", "t0", "t1", "t2"):
            table.entries[name] = rng.normal(size=4)
        pool = [
            _inst("a", ["t0", "l1"]),
            _inst("b", ["t1"]),
            _inst("c", ["t2", "t0"]),
        ]
        records, report = anchor_pool(pool, tiny_tree, table, 0.0)
        for inst, pooled in zip(pool, records):
            single = anchor_instance(inst, tiny_tree, table, 0.0)
            assert pooled.leaves == single.leaf_ids
            assert pooled.dropped == single.dropped

    def test_report_counts(self, tiny_tree):
        table = EmbeddingTable(dimension=2)
        table.entries["l1"] = np.array([1.0, 0.0])
        table.entries["l2"] = np.array([0.0, 1.0])
        table.entries["bad"] = np.array([-1.0, -1.0])
        pool = [_inst("a", ["l1"]), _inst("b", ["bad"]), _inst("c", ["l2", "bad"])]
        records, report = anchor_pool(pool, tiny_tree, table, 0.3)
        assert report.anchored == 2
        assert report.unanchorable_ids == ["b"]
        assert report.dropped_tags["bad"] == 2
        assert len(records) == len(pool)  # output order preserved
        assert records[1].leaves == () and records[1].dropped == ("bad",)

    def test_pool_order_preserved(self, tiny_tree):
        pool = [_inst(f"i{k}", ["l1"]) for k in range(7)]
        records, _ = anchor_pool(pool, tiny_tree, None)
        assert [r.id for r in records] == [i.id for i in pool]

    def test_records_carry_pool_scores(self, tiny_tree):
        pool = [_inst("a", ["l1"], 0.25, 0.75), _inst("b", ["l2"], 1.0, 0.0)]
        records, _ = anchor_pool(pool, tiny_tree, None)
        assert [(r.quality, r.complexity) for r in records] == [(0.25, 0.75), (1.0, 0.0)]


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_VALID_ROW_KEYS = ("id", "leaves", "dropped", "quality", "complexity")
_VALID_ROW = st.fixed_dictionaries(
    {
        "id": st.text(min_size=1, max_size=2),
        "leaves": st.lists(st.integers(-2, 9), max_size=3),
        "dropped": st.lists(st.text(max_size=3), max_size=2),
        "quality": st.floats(0.0, 1.0),
        "complexity": st.floats(0.0, 1.0),
    }
)
# a valid row with at most one field replaced by arbitrary JSON or removed
_ROW = st.builds(
    lambda row, key, junk, drop: (
        row if key is None
        else {k: v for k, v in row.items() if k != key} if drop
        else {**row, key: junk}
    ),
    _VALID_ROW,
    st.sampled_from([None, None, *_VALID_ROW_KEYS]),
    _JSON,
    st.booleans(),
)
_LINE = st.one_of(
    _ROW.map(json.dumps),
    _ROW.map(json.dumps),  # listed twice: most lines are near-valid rows
    _JSON.map(json.dumps),
    st.text(alphabet=st.characters(blacklist_characters="\r\n"), max_size=6),
)


_BIG_LEAF = (2**63, -(2**63) - 1, 10**30)  # outside int64
_EDGE_LINE = st.one_of(
    # two rows on one line, with and without the comma of a joined parse
    st.tuples(_VALID_ROW, _VALID_ROW, st.sampled_from([" ", ","])).map(
        lambda t: json.dumps(t[0]) + t[2] + json.dumps(t[1])
    ),
    _VALID_ROW.map(lambda row: "\ufeff" + json.dumps(row)),  # a BOM
    _VALID_ROW.map(lambda row: json.dumps(row).replace(", ", ",\n", 1)),  # split row
    st.builds(
        lambda row, key, value: {**row, key: value},
        _VALID_ROW,
        st.sampled_from(["quality", "complexity"]),
        st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -0.0, 1, True]),
    ).map(json.dumps),
    st.builds(
        lambda row, leaf: {**row, "leaves": [*row["leaves"], leaf]},
        _VALID_ROW,
        st.sampled_from([2**63 - 1, -(2**63), *_BIG_LEAF]),
    ).map(json.dumps),
)


def _load_or_error(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


class TestAnchoredFile:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(_VALID_ROW.map(json.dumps), _LINE, _EDGE_LINE), max_size=5))
    def test_pool_matches_record_reader(self, tmp_path_factory, lines):
        """The columnar loader gives the records, or the error text, of the
        record reader in ``record_setup``. The one difference: a leaf id
        outside int64 is a located error, where the record reader loads it."""
        path = tmp_path_factory.mktemp("rows") / "a.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        got = _load_or_error(load_anchored, path)
        want = _load_or_error(load_records, path)
        big = re.match(r"line (\d+): 'leaves' must hold 64-bit integers, got (-?\d+)$", str(got))
        if big:
            bad, leaf = int(big.group(1)), int(big.group(2))
            assert leaf in _BIG_LEAF
            with open(path, encoding="utf-8") as f:
                lines_read = f.readlines()  # as the readers split them
            assert str(leaf) in lines_read[bad - 1]
            # the record reader accepts every line up to and including that one
            path.write_text("".join(lines_read[:bad]), encoding="utf-8")
            assert isinstance(load_records(path), list)
            return
        if isinstance(want, str):
            assert got == want
            return
        assert isinstance(got, AnchoredPool)
        assert len(got) == len(want)
        assert repr(list(got)) == repr(want)  # repr: -0.0 and int/float differ
        assert repr([got[i] for i in range(-len(got), 0)]) == repr(want)
        assert repr(got[1::2]) == repr(want[1::2])
        for column, dtype in (("leaf_ptr", np.int64), ("leaf_ids", np.int64),
                              ("quality", np.float64), ("complexity", np.float64)):
            assert getattr(got, column).dtype == dtype

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_LINE, max_size=4))
    def test_load_returns_records_or_names_the_line(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("rows") / "a.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        try:
            records = load_anchored(path)
        except ValueError as exc:
            found = re.match(r"line (\d+): ", str(exc))
            assert found, str(exc)
            bad = int(found.group(1))
            assert 1 <= bad <= len(lines) and lines[bad - 1].strip()
            path.write_text(
                "".join(f"{line}\n" for line in lines[: bad - 1]), encoding="utf-8"
            )
            load_anchored(path)  # every line before the named one is fine
        else:
            assert len(records) == sum(1 for line in lines if line.strip())
            for r in records:
                assert isinstance(r.id, str) and r.id
                assert all(type(x) is int for x in r.leaves)
                assert all(isinstance(t, str) for t in r.dropped)
                assert 0.0 <= r.quality <= 1.0 and 0.0 <= r.complexity <= 1.0

    def test_round_trip(self, tmp_path, tiny_tree):
        pool = [_inst("a", ["l1"], 0.25, 0.75), _inst("b", ["zzz_none"], 0.5, 0.5)]
        table = EmbeddingTable(dimension=2)
        table.entries["l1"] = np.array([1.0, 0.0])
        table.entries["l2"] = np.array([0.0, 1.0])
        table.entries["zzz_none"] = np.array([-1.0, 0.0])
        records, _ = anchor_pool(pool, tiny_tree, table, 0.3)
        path = tmp_path / "anchored.jsonl"
        write_anchored(records, path)
        records = load_anchored(path)
        assert records[0].id == "a" and records[0].leaves == (1,)
        assert records[0].quality == 0.25 and records[0].complexity == 0.75
        assert records[1].leaves == () and records[1].dropped == ("zzz_none",)

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            '["a"]',
            '{"id":"a","leaves":[2],"dropped":[],"quality":0,"complexity":0}',
            '{"id":"c","leaves":[true],"dropped":[],"quality":0,"complexity":0}',
            '{"id":"c","leaves":[2],"dropped":[],"quality":2,"complexity":-1}',
            '{"id":"c","leaves":[2],"dropped":[],"complexity":0}',
        ],
    )
    def test_refused_line_opens_the_file_once(self, tmp_path, monkeypatch, bad):
        good = '{"id":"%s","leaves":[1],"dropped":[],"quality":1,"complexity":0}'
        p = tmp_path / "a.jsonl"
        p.write_text(good % "a" + "\n" + good % "b" + "\n" + bad + "\n" + good % "d" + "\n")
        want = _load_or_error(load_records, p)
        assert want.startswith("line 3: ")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr("tagforest.anchoring.open", counting_open, raising=False)
        assert _load_or_error(load_anchored, p) == want
        assert opened == [p]

    def test_load_errors_carry_line_number(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text('{"id":"a","leaves":[1],"dropped":[],"quality":1,"complexity":1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_anchored(p)

    def test_load_rejects_duplicate_ids(self, tmp_path):
        row = '{"id":"a","leaves":[1],"dropped":[],"quality":1,"complexity":1}'
        p = tmp_path / "a.jsonl"
        p.write_text(row + "\n" + row + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_anchored(p)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-0.5", "1.01", '"high"', "null"])
    def test_load_rejects_bad_scores(self, tmp_path, bad):
        good = '{"id":"a","leaves":[1],"dropped":[],"quality":1,"complexity":0}'
        p = tmp_path / "a.jsonl"
        p.write_text(
            good + "\n"
            + '{"id":"b","leaves":[1],"dropped":[],"quality":0.5,"complexity":' + bad + "}\n"
        )
        with pytest.raises(ValueError, match="line 2: 'complexity'"):
            load_anchored(p)


def _read_lines(path) -> AnchoredPool:
    """The line reader alone, on a file opened as ``load_anchored`` opens it."""
    with open(path, "r", encoding="utf-8") as f:
        return anchoring._read_lines(f)


def _assert_same_pool(got, want):
    assert isinstance(got, AnchoredPool) and isinstance(want, AnchoredPool)
    assert got.ids == want.ids
    assert got.dropped == want.dropped
    for column in ("leaf_ptr", "leaf_ids", "quality", "complexity"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert a.tobytes() == b.tobytes(), column


def _refuse_fallback(f):
    raise AssertionError("the line reader ran")


def _mostly(good, edge):
    """``good`` 14 times in 15, else ``edge``: most lines of a file stay valid."""
    return st.integers(0, 14).flatmap(lambda k: edge if k == 7 else good)


# Field texts of a row, each either valid in the fixed shape or an edge
# case: ids and tags with \u escapes, raw non-ASCII and characters that
# must be escaped, repeated ids, leaf ids near and past int64, and score
# tokens json and float() read alike or that break a rule.
_PLAIN_NAME = st.text(alphabet="abcé名 ", max_size=3)
_NAME_EDGE = st.builds(
    lambda name, how: how(name),
    st.sampled_from(["a", "é", 'q"', "\\", "\x01", "\u2028"]) | st.text(max_size=3),
    st.sampled_from([json.dumps, lambda s: json.dumps(s, ensure_ascii=False)]),
)
_ID_TEXT = _mostly(_PLAIN_NAME.filter(bool).map(lambda s: f'"{s}"'), _NAME_EDGE)
_TAG_TEXT = _mostly(_PLAIN_NAME.map(lambda s: f'"{s}"'), _NAME_EDGE)
_LEAF_TEXT = _mostly(
    st.integers(-3, 40).map(str)
    | st.sampled_from(["-0", "999999999999999999", "-999999999999999999"]),
    st.sampled_from([
        "01", str(10**18), str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1),
        "1.0", "true", "",
    ]),
)
_SCORE_TEXT = _mostly(
    st.floats(0.0, 1.0).map(repr)
    | st.floats(0.0, 1.0).map(lambda x: "%.17g" % x)
    | st.sampled_from([
        "0", "1", "-0.0", "0.0", "1.0", "1E+00", "1e0", "0e-5", "-0e0", "-0E+00",
        "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308", "1e-400",
        "-1e-400", "0.99999999999999999999",
    ]),
    st.floats().map(json.dumps)
    | st.sampled_from([
        "-0", "-5e-324", "1.0000000000000002", "1.5", "-0.5", "2", "1e400", "01", ".5",
        "0.", "1E", "-", "true", '"0.5"', "1" * 5000,
    ]),
)
_SHAPED_ROW = '{"id":%s,"leaves":[%s],"dropped":[%s],"quality":%s,"complexity":%s}'
_FIELDS = st.tuples(
    _ID_TEXT,
    st.lists(_LEAF_TEXT, max_size=3).map(",".join),
    st.lists(_TAG_TEXT, max_size=2).map(",".join),
    _SCORE_TEXT,
    _SCORE_TEXT,
)
# a valid row in the fixed shape: unique ids are drawn by the caller
_FAST_ROW = st.tuples(
    st.lists(st.integers(-(10**18) + 1, 10**18 - 1), max_size=4),
    st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs"),
                                            blacklist_characters='"\\'), max_size=3),
             max_size=2),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


class TestFixedShapeReader:
    """``load_anchored`` reads files of the fixed row shape in blocks and
    falls back to the line reader for any other file; both give the same
    columns, or the same error text."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        lines=st.lists(
            _mostly(_FIELDS, _VALID_ROW.map(json.dumps)
                    | st.sampled_from(["", "  ", "\t", "not json"])),
            max_size=6,
        ),
        unique=_mostly(st.just(True), st.just(False)),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=_mostly(st.just(False), st.just(True)),
        final_newline=st.booleans(),
        block=st.sampled_from([1, 2, 7, 50, 1 << 16]),
    )
    def test_matches_line_reader(
        self, tmp_path_factory, lines, unique, newline, bom, final_newline, block
    ):
        for i, line in enumerate(lines):
            if isinstance(line, tuple):
                rid, *rest = line
                if unique:  # "<i>:" after the quote makes the ids differ
                    rid = f'"{i}:{rid[1:]}'
                lines[i] = _SHAPED_ROW % (rid, *rest)
        path = tmp_path_factory.mktemp("rows") / "a.jsonl"
        text = newline.join(lines) + (newline if final_newline and lines else "")
        path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
        with mock.patch.object(anchoring, "_BLOCK_CHARS", block):
            with open(path, "r", encoding="utf-8") as f:
                fast = anchoring._read_fixed_shape(f)
            got = _load_or_error(load_anchored, path)
        want = _load_or_error(_read_lines, path)
        if fast is not None:  # the fast path only accepts what the line reader does
            _assert_same_pool(fast, want)
        if isinstance(want, str):
            assert got == want
        else:
            _assert_same_pool(got, want)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(_FAST_ROW, max_size=8), st.sampled_from([1, 3, 64, 1 << 16]))
    def test_write_anchored_output_takes_the_fast_path(self, tmp_path_factory, rows, block):
        records = [
            AnchoredRecord(id=f"r{i}é", leaves=tuple(leaves), dropped=tuple(tags),
                           quality=q, complexity=c)
            for i, (leaves, tags, q, c) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("rows") / "a.jsonl"
        write_anchored(records, path)
        want = _read_lines(path)
        with mock.patch.object(anchoring, "_BLOCK_CHARS", block), \
                mock.patch.object(anchoring, "_read_lines", _refuse_fallback):
            got = load_anchored(path)
        _assert_same_pool(got, want)

    def test_generator_rows_take_the_fast_path(self, tmp_path):
        # rows as json.dumps writes them with compact separators: shortest
        # float repr, ASCII escapes; more than one block, so rows straddle
        # a block boundary
        rng = np.random.default_rng(3)
        path = tmp_path / "a.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i in range(2000):
                row = {
                    "id": f"c{i:06d}",
                    "leaves": sorted(rng.choice(1000, size=1 + i % 3, replace=False).tolist()),
                    "dropped": ["x y", ""] if i % 7 == 0 else [],
                    "quality": float(rng.random()),
                    "complexity": [0.0, 1.0, 0.5, float(rng.random())][i % 4],
                }
                f.write(json.dumps(row, separators=(",", ":")) + "\n")
        assert path.stat().st_size > 2 * anchoring._BLOCK_CHARS
        want = _read_lines(path)
        with mock.patch.object(anchoring, "_read_lines", _refuse_fallback):
            got = load_anchored(path)
        _assert_same_pool(got, want)
        assert got[7].dropped == ("x y", "")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0), st.sampled_from(["%r", "%.17g", "%.3e", "%.5f"]))
    def test_scores_parse_to_the_json_bits(self, tmp_path_factory, x, fmt):
        token = fmt % x
        path = tmp_path_factory.mktemp("rows") / "a.jsonl"
        path.write_text(
            '{"id":"a","leaves":[1],"dropped":[],"quality":%s,"complexity":%s}\n'
            % (token, token)
        )
        with open(path, "r", encoding="utf-8") as f:
            got = anchoring._read_fixed_shape(f)
        bits = np.array([json.loads(token)], dtype=np.float64).tobytes()
        assert got.quality.tobytes() == bits and got.complexity.tobytes() == bits

    @pytest.mark.parametrize(
        "token, fast, sign",
        [("0", True, 1.0), ("1", True, 1.0), ("-0.0", True, -1.0), ("1E+00", True, 1.0),
         ("5e-324", True, 1.0), ("-0e0", True, -1.0),
         ("-0", False, 1.0)],  # json reads the integer -0 as +0.0
    )
    def test_score_tokens(self, tmp_path, token, fast, sign):
        path = tmp_path / "a.jsonl"
        path.write_text(
            '{"id":"a","leaves":[1],"dropped":[],"quality":%s,"complexity":0.5}\n' % token
        )
        with open(path, "r", encoding="utf-8") as f:
            assert (anchoring._read_fixed_shape(f) is not None) == fast
        got = load_anchored(path)
        _assert_same_pool(got, _read_lines(path))
        assert math.copysign(1.0, got.quality[0]) == sign

    @pytest.mark.parametrize(
        "second",
        [
            '{"id":"a","leaves":[1],"dropped":[],"quality":0.5,"complexity":0.5}',  # duplicate
            '{"id":"b","leaves":[1],"dropped":[],"quality":1.5,"complexity":0.5}',
            '{"id":"b","leaves":[%d],"dropped":[],"quality":0.5,"complexity":0.5}' % 2**63,
            '{"id":"b","leaves":[%d],"dropped":[],"quality":0.5,"complexity":0.5}'
            % -(2**63),
            '{"id":"b\\"","leaves":[1],"dropped":[],"quality":0.5,"complexity":0.5}',
            '{"id":"b", "leaves":[1],"dropped":[],"quality":0.5,"complexity":0.5}',
            "",
        ],
    )
    def test_other_files_fall_back(self, tmp_path, second):
        path = tmp_path / "a.jsonl"
        first = '{"id":"a","leaves":[1],"dropped":[],"quality":0.5,"complexity":0.5}'
        path.write_text(first + "\n" + second + "\n" + first.replace('"a"', '"c"') + "\n")
        with open(path, "r", encoding="utf-8") as f:
            assert anchoring._read_fixed_shape(f) is None
        want = _load_or_error(_read_lines, path)
        got = _load_or_error(load_anchored, path)
        if isinstance(want, str):
            assert got == want and want.startswith("line 2: ")
        else:
            _assert_same_pool(got, want)

    def test_take_matches_indexing(self):
        pool = AnchoredPool.from_records([
            AnchoredRecord(id=f"r{i}", leaves=tuple(range(i % 3)), dropped=("t",) * (i % 2),
                           quality=i / 10, complexity=1 - i / 10)
            for i in range(7)
        ])
        for rows in ([], [3], [6, 0, 2, 2], list(range(7))):
            assert repr(list(pool.take(rows))) == repr([pool[i] for i in rows])


_GOOD_ROW = {"id": "a", "leaves": [1], "dropped": [], "quality": 0.5, "complexity": 0.5}


@pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")], ids=["spaced", "fixed-shape"])
@pytest.mark.parametrize(
    "fields, error",
    [
        ({"id": "b", "leaves": [True], "quality": 2},
         "line 2: 'leaves' must be a list of integers, got [True]"),
        ({"id": "b", "quality": "x", "complexity": 5},
         "line 2: 'quality' must be a finite number in [0, 1], got 'x'"),
        ({"quality": 2}, "line 2: 'quality' must be a finite number in [0, 1], got 2"),
        ({"leaves": [2**63]}, "line 2: duplicate id 'a'"),
    ],
    ids=["shape-before-quality", "quality-before-complexity", "quality-before-duplicate",
         "duplicate-before-int64"],
)
def test_first_broken_rule_is_named(tmp_path, separators, fields, error):
    """A line that breaks two rules is refused for the first of: row shape,
    quality, complexity, duplicate id, int64 leaf. Compact rows start in the
    fixed shape, and the broken rule sends the file to the line reader."""
    path = tmp_path / "a.jsonl"
    rows = [_GOOD_ROW, {**_GOOD_ROW, **fields}]
    path.write_text("".join(json.dumps(row, separators=separators) + "\n" for row in rows))
    assert _load_or_error(load_anchored, path) == error


# a row in the fixed shape with one character replaced
_MUTATED_ROW = st.builds(
    lambda row, at, char: row[:at] + char + row[at + 1 :],
    _FIELDS.map(lambda fields: _SHAPED_ROW % fields),
    st.integers(0, 80),
    st.sampled_from(list('"\\,:[]{}-+.eE019 x')),
)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="possessive quantifiers need 3.11")
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(
    st.one_of(_FIELDS.map(lambda fields: _SHAPED_ROW % fields), _MUTATED_ROW, _EDGE_LINE),
    max_size=6,
))
def test_row_shape_matches_without_possessive_quantifiers(lines):
    """The plain pattern that Python 3.10 compiles finds the rows the possessive one does."""
    block = "".join(line + "\n" for line in lines)
    assert anchoring._row_shape("+").pattern == anchoring._ROW_SHAPE.pattern
    assert anchoring._row_shape("").findall(block) == anchoring._row_shape("+").findall(block)
