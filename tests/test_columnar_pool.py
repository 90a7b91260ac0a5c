"""The columnar anchor stage against the record-based references in ``record_pool``.

Every case runs the reference and the columnar function on the same input
and compares the outcome: the report entries, the records (by ``repr``,
so -0.0 and 0.0 differ), the anchoring counters and dropped tags, the
raised text, and the bytes written.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import record_pool as ref
from tagforest import anchoring
from tagforest.anchoring import AnchoredPool, AnchoredRecord
from tagforest.io import (
    EmbeddingTable,
    Instance,
    InstancePool,
    load_instances,
    normalize_scores,
    save_tree,
)

from conftest import make_tree

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Characters JSON escapes or that strip() removes, plus non-ASCII.
_CHARS = [
    "a", "b", "é", "\U0001d11e", '"', "\\", "/",
    "\x00", "\x1f", "\x7f", " ", "\x85", "\u2028",
]
_TEXT = st.lists(st.sampled_from(_CHARS), max_size=3).map("".join)


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of what it raises."""
    try:
        return "returned", fn(*args)
    except (ValueError, OverflowError) as exc:
        return "raised", type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# load_instances

_VALID = {
    "id": st.sampled_from(["a", "b"]) | _TEXT.filter(bool),
    "query": _TEXT,
    "response": _TEXT,
    "tags": st.lists(_TEXT, max_size=3),
    "quality": st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 0, 1, 10**300])
    | st.integers(),
}
_VALID["complexity"] = _VALID["quality"]
_BROKEN = {
    "id": ["", 0, None, ["a"]],
    "query": [None, 1, ["q"]],
    "response": [None, 1.5, {}],
    "tags": ["t", None, [1], ["a", None], {"a": 1}],
    "quality": [True, False, None, "1", 10**400, -(10**400), float("nan"), float("inf")],
}
_BROKEN["complexity"] = _BROKEN["quality"]
_GOOD_ROW = {"id": "g", "query": "q", "response": "r", "tags": ["t"],
             "quality": -0.0, "complexity": 10**300}
_EDGE_LINES = [
    json.dumps({**_GOOD_ROW, key: value}) for key in _BROKEN for value in _BROKEN[key]
] + [
    json.dumps({k: v for k, v in _GOOD_ROW.items() if k != key}) for key in _GOOD_ROW
] + [
    "\ufeff" + json.dumps(_GOOD_ROW),
    json.dumps(_GOOD_ROW) * 2,
    json.dumps({**_GOOD_ROW, "id": 'é"\\\x00\u2028', "tags": ["a", "a", "\x1f"]}),
    json.dumps({**_GOOD_ROW, "quality": True}),
    "",
    "\x85",
]


@st.composite
def _pool_line(draw) -> str:
    row = {key: draw(value) for key, value in _VALID.items()}
    broken = draw(st.sampled_from([None] * 8 + sorted(_VALID) + ["missing"]))
    if broken == "missing":
        del row[draw(st.sampled_from(sorted(_VALID)))]
    elif broken is not None:
        row[broken] = draw(st.sampled_from(_BROKEN[broken]))
    text = json.dumps(row, ensure_ascii=draw(st.booleans()))
    shape = draw(
        st.sampled_from(["plain"] * 10 + ["padded", "bom", "twice", "blank", "junk"])
    )
    if shape == "padded":
        return " \t" + text + "  "
    if shape == "bom":
        return "\ufeff" + text
    if shape == "twice":  # two objects on one line
        return text + text
    if shape == "blank":
        return draw(st.sampled_from(["", "   ", "\x85"]))
    if shape == "junk":
        return draw(st.sampled_from(["not json", "[1, 2]", "null", '"s"', "{", "{}"]))
    return text


def _read(loader, path):
    pool, report = loader(path)
    return [repr(inst) for inst in pool], report.entries


class TestLoadInstances:
    @_SETTINGS
    @given(st.lists(_pool_line(), max_size=6))
    def test_matches_record_reader(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("pool") / "pool.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        want = _outcome(_read, ref.load_instances, path)
        assert _outcome(_read, load_instances, path) == want

    @pytest.mark.parametrize(
        "line", _EDGE_LINES, ids=[f"edge{k}" for k in range(len(_EDGE_LINES))]
    )
    def test_edge_line_matches_record_reader(self, tmp_path, line):
        path = tmp_path / "pool.jsonl"
        first, last = (json.dumps({**_GOOD_ROW, "id": rid}) for rid in "hi")
        path.write_text(f"{first}\n{line}\n{last}\n", encoding="utf-8")
        want = _outcome(_read, ref.load_instances, path)
        assert _outcome(_read, load_instances, path) == want

    def test_bom_blank_and_two_objects_located(self, tmp_path):
        row = {"id": "a", "query": "q", "response": "r", "tags": ["t"],
               "quality": 1, "complexity": 2}
        text = json.dumps(row)
        path = tmp_path / "pool.jsonl"
        path.write_text(f"\ufeff{text}\n\n{text}{text}\n{text}\n", encoding="utf-8")
        pool, report = load_instances(path)
        assert isinstance(pool, InstancePool)
        assert [i.id for i in pool] == ["a"]
        assert [loc for _, loc, _ in report.errors] == ["line 1", "line 2", "line 3"]
        assert report.entries == ref.load_instances(path)[1].entries

    def test_duplicate_id_text(self, tmp_path):
        row = {"id": 'q"\\é', "query": "q", "response": "r", "tags": [],
               "quality": 1, "complexity": 2}
        path = tmp_path / "pool.jsonl"
        path.write_text(json.dumps(row) + "\nnot json\n" + json.dumps(row) + "\n")
        want = _outcome(ref.load_instances, path)
        assert want[:2] == ("raised", "DuplicateIdError")
        assert _outcome(load_instances, path) == want
        assert want[2] == "line 3: duplicate instance id 'q\"\\é'"


# ---------------------------------------------------------------------------
# normalize_scores

# ints stay within 2**52, where the reference's exact int arithmetic and
# float64 arithmetic give the same result
_RAW_SCORE = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 0, True, False, 10**400])
    | st.integers(-(2**52), 2**52)
)


def _instances(draw, scores) -> list[Instance]:
    n = draw(st.integers(0, 6))
    return [
        Instance(
            id=f"i{k}",
            query="q",
            response="r",
            tags=tuple(draw(st.lists(_TEXT, max_size=2))),
            quality=draw(scores),
            complexity=draw(scores),
        )
        for k in range(n)
    ]


def _normalized(fn, pool):
    return [repr(inst) for inst in fn(pool)]


def _reference_scaling(pool):
    """``ref.normalize_scores``, except in two places. Where a column's
    span overflows, the reference's top row comes out inf / inf = NaN, and
    the expected values are those of halving every term first, which keeps
    them in [0, 1]. And a -0.0 the reference gives comes out as 0.0."""
    out = ref.normalize_scores(pool)
    for field in ("quality", "complexity"):
        values = [getattr(inst, field) for inst in pool]
        lo, hi = min(values), max(values)
        if hi - lo == math.inf:
            values = [(v * 0.5 - lo * 0.5) / (hi * 0.5 - lo * 0.5) for v in values]
        else:
            values = [getattr(inst, field) for inst in out]
        out = [replace(inst, **{field: v + 0.0}) for inst, v in zip(out, values)]
    return out


class TestNormalizeScores:
    @_SETTINGS
    @given(st.data())
    def test_matches_record_scaling(self, data):
        pool = _instances(data.draw, _RAW_SCORE)
        scores = [s for inst in pool for s in (inst.quality, inst.complexity)]
        # the reference checks one instance at a time, so a non-finite
        # float ahead of an int too large for a float raises first there
        if 10**400 in scores:
            assume(all(s == s and abs(s) != float("inf") for s in scores))
        want = _outcome(_normalized, _reference_scaling, pool)
        assert _outcome(_normalized, normalize_scores, pool) == want
        if want[0] == "returned":
            columns = InstancePool.from_records(pool)
            assert _normalized(normalize_scores, columns) == want[1]

    # whichever zero is the first minimum, every zero comes out as +0.0; the
    # reference gives -0.0 for a -0.0 score under a +0.0 minimum
    @pytest.mark.parametrize(
        "scores, expected",
        [
            ([0.0, -0.0, 1.0], ["0.0", "0.0", "1.0"]),  # lo is +0.0
            ([-0.0, 0.0, 1.0], ["0.0", "0.0", "1.0"]),  # lo is -0.0
            ([1.0, 0.0, -0.0], ["1.0", "0.0", "0.0"]),
        ],
    )
    def test_signed_zero_follows_first_minimum(self, scores, expected):
        pool = [Instance(f"i{k}", "q", "r", (), s, 0.5) for k, s in enumerate(scores)]
        out = normalize_scores(pool)
        assert isinstance(out, InstancePool)
        assert [repr(i.quality) for i in out] == expected
        assert [repr(i.quality + 0.0) for i in ref.normalize_scores(pool)] == expected
        assert [repr(i.quality) for i in _reference_scaling(pool)] == expected

    def test_overflowing_span_scales_to_unit_interval(self):
        pool = [Instance(f"i{k}", "q", "r", (), s, 0.5) for k, s in
                enumerate([-1e308, 0.0, 1e308])]
        assert [i.quality for i in normalize_scores(pool)] == [0.0, 0.5, 1.0]
        assert math.isnan(ref.normalize_scores(pool)[2].quality)  # the old overflow

    def test_non_finite_names_first_instance(self):
        pool = [Instance(f"i{k}", "q", "r", (), 0.5, s) for k, s in
                enumerate([1.0, float("inf"), float("nan")])]
        with pytest.raises(ValueError, match="^non-finite score on instance 'i1'$"):
            normalize_scores(pool)


# ---------------------------------------------------------------------------
# anchor_pool and write_anchored

# Unit vectors with 1 or 4 components of +-1 (norms 1 and 2): every
# similarity between two of them is a multiple of 0.25, computed exactly in
# any summation order, so exact ties and threshold hits come out the same
# whatever BLAS call a chunk shape selects. Leaf vectors are distinct, so a
# tag with a hashed fallback vector meets no tie between two columns.
_EXACT_VECTORS = [
    tuple(s if j == i else 0.0 for j in range(4)) for i in range(4) for s in (1.0, -1.0)
] + [
    tuple(1.0 if (m >> j) & 1 else -1.0 for j in range(4)) for m in range(16)
]
_NAMES = ["a", "b", "c", "é", 'q"', "x\\y", "\x01t", "zz"]


@st.composite
def _anchor_case(draw):
    """A tree with named leaves, an optional table, a pool and a threshold."""
    n = draw(st.integers(2, 10))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    names = [draw(st.sampled_from(_NAMES)) for _ in range(n)]
    tree = make_tree(parents, names)
    leaves = [int(x) for x in tree.leaf_ids]
    vectors = draw(st.permutations(_EXACT_VECTORS))
    table_names = set(draw(st.lists(st.sampled_from(_NAMES), max_size=6)))
    # at most one leaf without a node embedding, hashed from a name the
    # table does not hold
    bare = draw(st.none() | st.sampled_from(leaves))
    if bare is not None and tree.node(bare).name in table_names:
        bare = None
    for k, leaf in enumerate(leaves):
        if leaf != bare:
            tree.node(leaf).embedding = np.array(vectors[k])
    table = None
    if draw(st.booleans()):
        dim = draw(st.sampled_from([4] * 9 + [3]))  # 3: a dimension mismatch
        table = EmbeddingTable(dimension=dim)
        for name in sorted(table_names):
            vec = draw(st.sampled_from(_EXACT_VECTORS + [(0.0,) * 4]))  # zero: hashed
            table.entries[name] = np.array(vec[:dim])
    pool = [
        Instance(
            id=draw(_TEXT),
            query="q",
            response="r",
            tags=tuple(draw(st.lists(st.sampled_from(_NAMES), max_size=5))),
            quality=draw(st.floats(0.0, 1.0)),
            complexity=draw(st.sampled_from([0.0, -0.0, 0.25, 1.0])),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    min_sim = draw(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]))
    return tree, table, pool, min_sim


def _anchored(fn, pool, tree, table, min_sim):
    records, report = fn(pool, tree, table, min_sim)
    return (
        [repr(r) for r in records],
        report.anchored,
        report.unanchorable_ids,
        report.exact_tags,
        report.nearest_tags,
        list(report.dropped_tags.items()),
    )


class TestAnchorPool:
    # tags per similarity block; None keeps io._row_blocks
    @pytest.mark.parametrize("chunk", [1, 2, 3, 512, None])
    @_SETTINGS
    @given(_anchor_case())
    def test_matches_record_anchoring(self, chunk, case):
        tree, table, pool, min_sim = case
        want = _outcome(_anchored, ref.anchor_pool, pool, tree, table, min_sim)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(
                    anchoring,
                    "_row_blocks",
                    lambda n, width: [slice(a, a + chunk) for a in range(0, n, chunk)],
                )
            got = _outcome(_anchored, anchoring.anchor_pool, pool, tree, table, min_sim)
            columns = InstancePool.from_records(pool)
            from_columns = _outcome(
                _anchored, anchoring.anchor_pool, columns, tree, table, min_sim
            )
        assert got == want
        assert from_columns == want

    @_SETTINGS
    @given(_anchor_case(), st.integers(0, 6))
    def test_loaded_codes_match_rebuilt_codes(self, tmp_path_factory, case, bad_at):
        # the loader's tag codes, with a refused line's tags left out, are
        # those from_records gives the same instances, and anchor alike
        tree, table, pool, min_sim = case
        lines = [
            json.dumps({"id": f"r{k}", "query": inst.query, "response": inst.response,
                        "tags": list(inst.tags), "quality": inst.quality,
                        "complexity": inst.complexity})
            for k, inst in enumerate(pool)
        ]
        lines.insert(min(bad_at, len(lines)), json.dumps({"id": "x", "tags": ["zz", "only"]}))
        path = tmp_path_factory.mktemp("pool") / "pool.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        loaded, report = load_instances(path)
        assert len(report.errors) == 1
        rebuilt = InstancePool.from_records(list(loaded))
        assert loaded.tag_names == rebuilt.tag_names
        assert "only" not in loaded.tag_names
        assert loaded.tag_codes.tolist() == rebuilt.tag_codes.tolist()
        assert loaded.tag_ptr.tolist() == rebuilt.tag_ptr.tolist()
        want = _outcome(_anchored, anchoring.anchor_pool, rebuilt, tree, table, min_sim)
        assert _outcome(_anchored, anchoring.anchor_pool, loaded, tree, table, min_sim) == want

    def test_returns_a_pool(self, tiny_tree):
        pool = [Instance("a", "q", "r", ("l2", "zz", "l1", "l2", "zz"), 0.5, 0.5)]
        records, report = anchoring.anchor_pool(pool, tiny_tree, None, 1.5)
        assert isinstance(records, AnchoredPool)
        assert list(records) == [AnchoredRecord("a", (1, 2), ("zz",), 0.5, 0.5)]
        assert (report.exact_tags, report.nearest_tags) == (2, 0)
        assert report.dropped_tags == {"zz": 1}

    @pytest.mark.parametrize("min_sim", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_refused(self, tiny_tree, min_sim):
        pool = [Instance("a", "q", "r", ("l1",), 0.5, 0.5)]
        with pytest.raises(ValueError, match="min_similarity must be finite"):
            anchoring.anchor_pool(pool, tiny_tree, None, min_sim)


def _written(writer, records, path):
    writer(records, path)
    return path.read_bytes()


class TestWriters:
    @_SETTINGS
    @given(_anchor_case(), st.booleans())
    def test_write_anchored_matches(self, tmp_path_factory, case, as_records):
        tree, table, pool, min_sim = case
        try:
            want_records, _ = ref.anchor_pool(pool, tree, table, min_sim)
        except ValueError:
            return  # a dimension mismatch; compared in TestAnchorPool
        records, _ = anchoring.anchor_pool(pool, tree, table, min_sim)
        if as_records:
            records = list(records)
        out = tmp_path_factory.mktemp("anchored")
        want = _written(ref.write_anchored, want_records, out / "want.jsonl")
        assert _written(anchoring.write_anchored, records, out / "got.jsonl") == want

    @_SETTINGS
    @given(
        st.lists(
            st.builds(
                AnchoredRecord,
                id=_TEXT,
                leaves=st.lists(st.integers(0, 2**63 - 1), max_size=3).map(tuple),
                dropped=st.lists(_TEXT, max_size=2).map(tuple),
                quality=st.floats(),
                complexity=st.floats(),
            ),
            max_size=4,
        )
    )
    def test_write_anchored_any_scores(self, tmp_path_factory, records):
        out = tmp_path_factory.mktemp("anchored")
        want = _outcome(_written, ref.write_anchored, records, out / "want.jsonl")
        got = _outcome(_written, anchoring.write_anchored, records, out / "got.jsonl")
        assert got == want
        if want[0] == "raised":
            assert want[2].startswith("cannot serialize non-finite number: ")
            assert not (out / "got.jsonl").exists()  # refused before opening

    @_SETTINGS
    @given(st.data())
    def test_save_tree_matches(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 8))
        parents = [None] + [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
        names = [data.draw(_TEXT) for _ in range(n)]
        tree = make_tree(parents, names)
        dim = data.draw(st.integers(1, 3))
        for node in tree.nodes:
            if data.draw(st.booleans()):
                size = data.draw(st.sampled_from([dim] * 8 + [dim + 1, 0]))
                floats = st.floats() | st.sampled_from([0.0, -0.0, 5e-324])
                node.embedding = np.array(data.draw(st.lists(floats, min_size=size,
                                                             max_size=size)))
        out = tmp_path_factory.mktemp("tree")
        want = _outcome(_written, ref.save_tree, tree, out / "want.json")
        assert _outcome(_written, save_tree, tree, out / "got.json") == want
