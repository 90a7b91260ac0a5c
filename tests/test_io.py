"""I/O tests: canonical JSON, pools, embeddings, trees, targets."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagforest.io
from tagforest import (
    DuplicateIdError,
    EmbeddingTable,
    Instance,
    InvalidTreeError,
    ObjectiveConfig,
    SamplerConfig,
    TargetDistribution,
    dumps_canonical,
    fallback_embedding,
    load_embeddings,
    load_instances,
    load_target,
    load_tree,
    normalize_scores,
    sample,
    save_target,
    save_tree,
    write_embeddings,
)

import list_decoded_tree
from conftest import make_tree, random_tree


def _inst(i: str, q: float, c: float, tags=("t",)) -> Instance:
    return Instance(id=i, query="q", response="r", tags=tuple(tags), quality=q, complexity=c)


class TestCanonicalJson:
    def test_scalars(self):
        assert dumps_canonical(None) == "null"
        assert dumps_canonical(True) == "true"
        assert dumps_canonical(3) == "3"
        assert dumps_canonical("aé") == '"aé"'

    def test_float_17_digits_round_trip(self):
        rng = np.random.default_rng(41)
        for x in rng.uniform(-1e6, 1e6, size=200):
            assert float(json.loads(dumps_canonical(float(x)))) == float(x)
        assert json.loads(dumps_canonical(0.1)) == 0.1
        assert float(json.loads(dumps_canonical(1 / 3))) == 1 / 3

    def test_preserves_key_order(self):
        s = dumps_canonical({"b": 1, "a": 2})
        assert s == '{"b":1,"a":2}'

    def test_numpy_values(self):
        s = dumps_canonical({"v": np.array([1.5, 2.5]), "n": np.int64(7)})
        assert json.loads(s) == {"v": [1.5, 2.5], "n": 7}

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("inf")})

    def test_stable_across_calls(self):
        payload = {"a": [0.1, 2, None, "s"], "b": {"c": 1e-300}}
        assert dumps_canonical(payload) == dumps_canonical(payload)

    @pytest.mark.parametrize(
        "text",
        [
            'say "hi"',
            "back\\slash",
            "ctl\x00\x01\x1f\t\n\r\x7f",
            "naïve 日本   😀",
            "lone \ud800 surrogate",
            "",
        ],
    )
    def test_strings_and_keys_match_json_dumps(self, text):
        expected = json.dumps(text, ensure_ascii=False)
        assert dumps_canonical(text) == expected
        assert dumps_canonical({text: [text]}) == f"{{{expected}:[{expected}]}}"


class TestLoadInstances:
    def test_parse_totality(self, tmp_path):
        # every line becomes either an instance or a located error
        lines = [
            '{"id":"a","query":"q","response":"r","tags":["t"],"quality":1,"complexity":2}',
            "this is not json",
            '{"id":"b","query":"q","response":"r","tags":["t"],"quality":3}',
            '{"id":"c","query":"q","response":"r","tags":"oops","quality":1,"complexity":2}',
            '{"id":"d","query":"q","response":"r","tags":[],"quality":0.5,"complexity":0.5}',
            "[1,2,3]",
        ]
        p = tmp_path / "pool.jsonl"
        p.write_text("\n".join(lines) + "\n")
        pool, report = load_instances(p)
        assert [i.id for i in pool] == ["a", "d"]
        assert len(report.errors) == 4
        assert len(pool) + len(report.errors) == len(lines)
        locations = [loc for _, loc, _ in report.errors]
        assert "line 2" in locations and "line 3" in locations

    def test_duplicate_id_raises(self, tmp_path):
        row = '{"id":"a","query":"q","response":"r","tags":["t"],"quality":1,"complexity":2}'
        p = tmp_path / "pool.jsonl"
        p.write_text(row + "\n" + row + "\n")
        with pytest.raises(DuplicateIdError):
            load_instances(p)

    def test_non_finite_scores_rejected_per_line(self, tmp_path):
        p = tmp_path / "pool.jsonl"
        p.write_text(
            '{"id":"a","query":"q","response":"r","tags":["t"],"quality":1e999,"complexity":0}\n'
        )
        pool, report = load_instances(p)
        assert len(pool) == 0 and len(report.errors) == 1

    def test_int_beyond_float_range_rejected_per_line(self, tmp_path):
        p = tmp_path / "pool.jsonl"
        p.write_text(
            '{"id":"a","query":"q","response":"r","tags":["t"],"quality":1%s,"complexity":0}\n'
            % ("0" * 400)
        )
        pool, report = load_instances(p)
        assert len(pool) == 0 and report.errors[0][2] == "scores must be finite"

    def test_unreadable_lines_located_and_skipped(self, tmp_path):
        # an int past the int-string digit limit and nesting past the
        # recursion limit are not JSONDecodeErrors, but still line errors
        good = '{"id":"a","query":"q","response":"r","tags":["t"],"quality":1,"complexity":2}'
        lines = [
            '{"id":"b","query":"q","response":"r","tags":["t"],"quality":1%s,"complexity":0}'
            % ("0" * 5000),
            "[" * 100_000 + "]" * 100_000,
            good,
        ]
        p = tmp_path / "pool.jsonl"
        p.write_text("\n".join(lines) + "\n")
        pool, report = load_instances(p)
        assert [i.id for i in pool] == ["a"]
        assert [loc for _, loc, _ in report.errors] == ["line 1", "line 2"]
        assert all(msg.startswith("invalid JSON: ") for _, _, msg in report.errors)
        assert "4300" in report.errors[0][2]

    @pytest.mark.parametrize("refused", [False, True])
    def test_repeated_tags_share_one_string(self, tmp_path, monkeypatch, refused):
        # refused: the file holds a line that breaks a rule, and _scan_once
        # refuses every line, so each row's value comes from loads_line
        tags = [["coding", "math"], ["math", "coding", "coding"], ["poetry", "math"]]
        lines = [
            json.dumps({"id": f"r{i}", "query": "q", "response": "r", "tags": t,
                        "quality": i, "complexity": 0})
            for i, t in enumerate(tags)
        ]
        if refused:
            lines.insert(1, '{"id":"x","query":"q","response":"r","tags":["math",1]}')

            def refuse(text, idx):
                raise StopIteration(idx)

            monkeypatch.setattr(tagforest.io, "_scan_once", refuse)
        p = tmp_path / "pool.jsonl"
        p.write_text("\n".join(lines) + "\n")
        pool, report = load_instances(p)
        assert [loc for _, loc, _ in report.errors] == (["line 2"] if refused else [])
        # the refused line's tags are not encoded; codes follow first sight
        assert pool.tag_names == ["coding", "math", "poetry"]
        assert pool.tag_codes.tolist() == [0, 1, 1, 0, 0, 2, 1]
        assert pool.tag_ptr.tolist() == [0, 2, 5, 7]
        assert [list(inst.tags) for inst in pool] == tags
        for inst in (*pool, *(pool[i] for i in range(len(pool)))):
            for tag in inst.tags:
                assert tag is pool.tag_names[pool.tag_names.index(tag)]

    @pytest.mark.parametrize("refused", [False, True])
    def test_kept_texts(self, tmp_path, monkeypatch, refused):
        # refused: _scan_once refuses every line, so each row's value comes
        # from loads_line
        if refused:
            def refuse(text, idx):
                raise StopIteration(idx)

            monkeypatch.setattr(tagforest.io, "_scan_once", refuse)
        lines = [
            json.dumps({"id": rid, "query": f"q{rid}", "response": f"r{rid}",
                        "tags": ["t", rid], "quality": i, "complexity": -i})
            for i, rid in enumerate(["a", "b", "c"])
        ]
        lines.insert(1, '{"id":"x","query":"q","response":"r","tags":["t"]}')
        p = tmp_path / "pool.jsonl"
        p.write_text("\n".join(lines) + "\n")
        full, full_report = load_instances(p)
        for keep in ((), {"c"}, ["a", "c", "zz"]):
            pool, report = load_instances(p, keep_texts=keep)
            assert report.entries == full_report.entries
            assert pool.ids == full.ids and pool.tag_names == full.tag_names
            assert pool.tag_codes.tolist() == full.tag_codes.tolist()
            assert pool.tag_ptr.tolist() == full.tag_ptr.tolist()
            assert pool.quality.tolist() == full.quality.tolist()
            assert pool.complexity.tolist() == full.complexity.tolist()
            for i, rid in enumerate(pool.ids):
                if rid in keep:
                    assert pool[i] == full[i]
                else:
                    assert pool.queries[i] is None and pool.responses[i] is None
                    with pytest.raises(ValueError, match=f"instance '{rid}': its query"):
                        pool[i]
            if len(keep) < 3:
                with pytest.raises(ValueError, match="texts were not loaded"):
                    list(pool)
            normalized = normalize_scores(pool)
            assert normalized.queries is pool.queries
            assert normalized.quality.tolist() == normalize_scores(full).quality.tolist()

    @pytest.mark.parametrize("refused", [False, True])
    def test_first_broken_rule_reported(self, tmp_path, monkeypatch, refused):
        # each line breaks two rules (or one rule twice) and is reported for
        # the one checked first; refused: _scan_once refuses every line
        good = {"id": "a", "query": "q", "response": "r", "tags": ["t"],
                "quality": 1, "complexity": 2}

        def row(drop=(), **changes):
            obj = {**good, **changes}
            for key in drop:
                del obj[key]
            return json.dumps(obj)

        cases = [
            ("\ufeff" + row(id=""), "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            (row(id="") + "{}", "invalid JSON: Extra data"),
            ('{"id": "", "tags": [1]', "invalid JSON: Expecting ',' delimiter"),
            ('[{"id": ""}]', "record is not a JSON object"),
            (row(drop=["id"], tags="x"), "missing required key 'id'"),
            (row(drop=["response", "complexity"]), "missing required key 'response'"),
            (row(drop=["quality"], id=""), "missing required key 'quality'"),
            (row(id="", query=1), "'id' must be a non-empty string"),
            (row(id=True, tags=None), "'id' must be a non-empty string"),
            (row(response=1.5, tags=["a", None]), "'query' and 'response' must be strings"),
            (row(tags=[1], quality=True), "'tags' must be a list of strings"),
            (row(tags={"a": 1}, complexity=float("nan")), "'tags' must be a list of strings"),
            (row(quality="1", complexity=None), "'quality' must be a number"),
            (row(quality=10**400, complexity=False), "'complexity' must be a number"),
            (row(quality=float("inf"), complexity=-(10**400)), "scores must be finite"),
        ]
        if refused:
            def refuse(text, idx):
                raise StopIteration(idx)

            monkeypatch.setattr(tagforest.io, "_scan_once", refuse)
        p = tmp_path / "pool.jsonl"
        p.write_text("".join(line + "\n" for line, _ in cases) + "\n" + row() + "\n",
                     encoding="utf-8")
        pool, report = load_instances(p)
        assert pool.ids == ["a"]
        assert report.entries == [
            ("error", f"line {k}", text) for k, (_, text) in enumerate(cases, start=1)
        ] + [("error", f"line {len(cases) + 1}", "blank line")]

    def test_kept_texts_duplicate_id_still_raises(self, tmp_path):
        row = '{"id":"a","query":"q","response":"r","tags":["t"],"quality":1,"complexity":2}'
        p = tmp_path / "pool.jsonl"
        p.write_text(row + "\n" + row + "\n")
        for keep in ((), {"b"}):
            with pytest.raises(DuplicateIdError, match="line 2: duplicate instance id 'a'"):
                load_instances(p, keep_texts=keep)


class TestNormalizeScores:
    def test_min_max_worked_example(self):
        pool = [_inst("a", 1, 5), _inst("b", 3, 5), _inst("c", 5, 5)]
        out = normalize_scores(pool)
        np.testing.assert_allclose([i.quality for i in out], [0.0, 0.5, 1.0])
        # constant complexity column maps to 0.5 everywhere
        np.testing.assert_allclose([i.complexity for i in out], [0.5, 0.5, 0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(45)
        pool = [
            _inst(f"i{k}", float(rng.uniform(-5, 20)), float(rng.uniform(0, 3)))
            for k in range(40)
        ]
        once = normalize_scores(pool)
        twice = normalize_scores(once)
        np.testing.assert_allclose(
            [i.quality for i in twice], [i.quality for i in once], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            [i.complexity for i in twice], [i.complexity for i in once], rtol=0, atol=1e-12
        )

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(46)
        pool = [
            _inst(f"i{k}", float(rng.normal() * 100), float(rng.normal()))
            for k in range(100)
        ]
        for inst in normalize_scores(pool):
            assert 0.0 <= inst.quality <= 1.0
            assert 0.0 <= inst.complexity <= 1.0

    def test_non_finite_names_instance(self):
        pool = [_inst("good", 1, 1), _inst("bad", math.inf, 1)]
        with pytest.raises(ValueError, match="bad"):
            normalize_scores(pool)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            normalize_scores([])


class TestFallbackEmbedding:
    def test_unit_norm_and_determinism(self):
        for key in ("alpha", "beta", "", "ünïcode"):
            v1 = fallback_embedding(key, 32)
            v2 = fallback_embedding(key, 32)
            np.testing.assert_array_equal(v1, v2)
            np.testing.assert_allclose(np.linalg.norm(v1), 1.0, rtol=0, atol=1e-12)

    def test_distinct_keys_distinct_vectors(self):
        a = fallback_embedding("alpha", 16)
        b = fallback_embedding("beta", 16)
        assert abs(float(a @ b)) < 0.9

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            fallback_embedding("x", 0)


class TestRowBlocks:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 200_000), width=st.integers(1, 100_000))
    def test_blocks_tile_the_rows(self, n, width):
        from tagforest.io import _BLOCK_ELEMENTS, _BLOCK_ROWS, _row_blocks

        blocks = _row_blocks(n, width)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
        # a block: the largest multiple of _BLOCK_ROWS rows whose results
        # fit in the budget, and at least _BLOCK_ROWS
        step = _row_blocks(2 * _BLOCK_ELEMENTS, width)[0].stop
        assert step % _BLOCK_ROWS == 0
        assert step == _BLOCK_ROWS or step * width <= _BLOCK_ELEMENTS
        assert (step + _BLOCK_ROWS) * width > _BLOCK_ELEMENTS
        assert all(b.stop - b.start == step for b in blocks[:-1])
        if len(blocks) > 1:  # a tail under half a block joins the block before it
            assert step // 2 <= blocks[-1].stop - blocks[-1].start < step + step // 2
        elif blocks:
            assert blocks[0].stop - blocks[0].start < step + step // 2


class TestEmbeddingsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(47)
        table = EmbeddingTable(dimension=8)
        for key in ("a", "b", "c d"):
            table.entries[key] = rng.normal(size=8)
        path = tmp_path / "emb.tsv"
        write_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.dimension == 8 and len(loaded) == 3
        for key in table.entries:
            np.testing.assert_array_equal(loaded.entries[key], table.entries[key])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("dimension 4\n")
        with pytest.raises(ValueError, match="header"):
            load_embeddings(p)

    def test_wrong_dimension_names_key(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("dim=3 count=1\nfoo\t1 2\n")
        with pytest.raises(ValueError, match="foo"):
            load_embeddings(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("dim=2 count=2\nfoo\t1 2\nfoo\t3 4\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_embeddings(p)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("dim=2 count=5\nfoo\t1 2\n")
        with pytest.raises(ValueError, match="count"):
            load_embeddings(p)

    def test_non_finite_component(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("dim=2 count=1\nfoo\t1 inf\n")
        with pytest.raises(ValueError, match="foo"):
            load_embeddings(p)


class TestTreeSerialization:
    def test_round_trip_equality(self, tmp_path, tiny_tree):
        path = tmp_path / "tree.json"
        save_tree(tiny_tree, path)
        assert load_tree(path) == tiny_tree

    def test_reserialization_byte_identical(self, tmp_path):
        rng = np.random.default_rng(48)
        tree = random_tree(rng, max_nodes=60)
        for node in tree.nodes:
            node.embedding = rng.normal(size=5)
        p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
        save_tree(tree, p1)
        save_tree(load_tree(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("one_node", [True, False])
    def test_bytes_are_canonical_json(self, tmp_path, one_node):
        rng = np.random.default_rng(49)
        tree = make_tree([None]) if one_node else random_tree(rng, max_nodes=60)
        for node in tree.nodes[::2]:
            node.embedding = rng.normal(size=3)
        tree.nodes[-1].name = 'q"\\\u00fc\n'
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        nodes = [
            {"id": n.id, "name": n.name, "parent": n.parent, "children": n.children,
             "depth": n.depth, "embedding": n.embedding}
            for n in tree.nodes
        ]
        assert path.read_text(encoding="utf-8") == dumps_canonical({"nodes": nodes}) + "\n"

    def test_save_rejects_invalid(self, tmp_path):
        tree = make_tree([None, 0, 0])
        tree.nodes[2].depth = 9
        with pytest.raises(InvalidTreeError):
            save_tree(tree, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()  # refused before the file is opened

    def test_load_rejects_invalid(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"nodes":[{"id":0,"name":"r","parent":null,"children":[1],"depth":0},'
            '{"id":1,"name":"x","parent":0,"children":[],"depth":5}]}'
        )
        with pytest.raises(InvalidTreeError):
            load_tree(p)

    def test_load_sorts_by_id_but_never_repairs(self, tmp_path):
        # out-of-order node entries are fine; structural damage is not
        p = tmp_path / "t.json"
        p.write_text(
            '{"nodes":[{"id":1,"name":"x","parent":0,"children":[],"depth":1},'
            '{"id":0,"name":"r","parent":null,"children":[1],"depth":0}]}'
        )
        tree = load_tree(p)
        assert [n.id for n in tree.nodes] == [0, 1]

    def test_missing_key_named(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"nodes":[{"id":0,"name":"r","parent":null,"children":[]}]}')
        with pytest.raises(ValueError, match="depth"):
            load_tree(p)

    @pytest.mark.parametrize(
        "name", [None, 5, True, ["a"], {"embedding": [1.0]}],
        ids=["null", "int", "bool", "list", "object"],
    )
    def test_load_refuses_non_string_name(self, tmp_path, name):
        # refused, never renamed to str() of the value
        p = tmp_path / "t.json"
        nodes = [
            {"id": 0, "name": "r", "parent": None, "children": [1], "depth": 0},
            {"id": 1, "name": name, "parent": 0, "children": [], "depth": 1},
        ]
        p.write_text(json.dumps({"nodes": nodes}), encoding="utf-8")
        with pytest.raises(InvalidTreeError) as got:
            load_tree(p)
        assert str(got.value) == f"error: node 1: name must be a string, got {name!r}"

    def test_save_refuses_non_string_name(self, tmp_path):
        tree = make_tree([None, 0, 0])
        tree.nodes[2].name = 7
        with pytest.raises(InvalidTreeError, match="node 2: name must be a string, got 7"):
            save_tree(tree, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()  # refused before the file is opened

    @pytest.mark.parametrize(
        "node",
        [
            '{"id":1,"name":"x","parent":0,"children":[true],"depth":1}',
            '{"id":1,"name":"x","parent":0,"children":[],"depth":1,"embedding":[]}',
            '{"id":1,"name":null,"parent":0,"children":[],"depth":1}',
            '{"id":1,"name":"x","parent":0,"children":[],"depth":5}',
        ],
        ids=["node-rule", "embedding", "name", "tree-rule"],
    )
    def test_refused_file_opened_once(self, tmp_path, monkeypatch, node):
        p = tmp_path / "t.json"
        p.write_text(
            '{"nodes":[{"id":0,"name":"r","parent":null,"children":[1],"depth":0},%s]}' % node
        )
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr("tagforest.io.open", counting_open, raising=False)
        with pytest.raises(ValueError):
            load_tree(p)
        assert opened == [p]


# values that break a node rule, among them objects whose own "embedding"
# list the loader's decoding hook turns into an array
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([10**400, -(10**400), 2**63]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["embedding", "a"]), inner, max_size=2)
    | st.builds(lambda v: {"embedding": v}, st.lists(st.floats(0, 1), min_size=1, max_size=2)),
    max_leaves=5,
)
_NODE_KEYS = ("id", "name", "parent", "children", "depth", "embedding", "extra")


@st.composite
def _tree_file(draw):
    """A tree file's JSON value: a valid tree with up to two values replaced or removed."""
    n = draw(st.integers(1, 6))
    tree = make_tree([None] + [draw(st.integers(0, i - 1)) for i in range(1, n)])
    dim = draw(st.integers(1, 3))
    number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)
    entries = []
    for node in tree.nodes:
        entry = {"id": node.id, "name": node.name, "parent": node.parent,
                 "children": list(node.children), "depth": node.depth}
        how = draw(st.sampled_from(["list", "list", "null", "absent"]))
        if how != "absent":
            entry["embedding"] = (
                None if how == "null" else draw(st.lists(number, min_size=dim, max_size=dim))
            )
        entries.append(entry)
    for _ in range(draw(st.integers(0, 2))):
        entry = entries[draw(st.integers(0, n - 1))]
        key = draw(st.sampled_from(_NODE_KEYS))
        if draw(st.booleans()):
            entry.pop(key, None)
        elif key == "children" and draw(st.booleans()):
            entry[key] = entry[key] + [draw(_JUNK)]
        else:
            entry[key] = draw(_JUNK)
    return {"nodes": draw(st.permutations(entries))}


def _loaded(load, path):
    """The nodes a tree loader returns, embedding bits included, or its error."""
    try:
        tree = load(path)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))
    return ("tree", [
        (n.id, n.name, n.parent, n.children, n.depth,
         None if n.embedding is None
         else (n.embedding.dtype, n.embedding.shape, n.embedding.tobytes()))
        for n in tree.nodes
    ])


class TestLoadTreeDecoding:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(payload=_tree_file())
    def test_same_tree_or_error_as_list_decoding(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("tree") / "tree.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert _loaded(load_tree, path) == _loaded(list_decoded_tree.load_tree, path)

    @pytest.mark.parametrize("where", ["name", "children", "extra"])
    def test_nested_embedding_objects(self, tmp_path, where):
        nested = {"embedding": [1.0, 2.0]}
        nodes = [
            {"id": 0, "name": "r", "parent": None, "children": [1], "depth": 0,
             "embedding": [0.5, 0.25]},
            {"id": 1, "name": "x", "parent": 0, "children": [], "depth": 1},
        ]
        if where == "children":
            nodes[1]["children"] = [nested]
        else:
            nodes[1][where] = nested
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"nodes": nodes}), encoding="utf-8")
        got = _loaded(load_tree, path)
        assert got == _loaded(list_decoded_tree.load_tree, path)
        if where == "name":  # refused, and printed as written
            assert got[2] == "error: node 1: name must be a string, got {'embedding': [1.0, 2.0]}"
        elif where == "children":
            assert got[2].endswith("got {'embedding': [1.0, 2.0]}")


class TestTargetDistribution:
    def test_load_and_densify(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        p.write_text('{"l1": 0.25, "l2": 0.75}')
        target = load_target(p, tiny_tree)
        dense = target.dense(tiny_tree.leaf_ids)
        np.testing.assert_allclose(dense, [0.25, 0.75])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({0: 1.0}, "target node 0 is not a leaf"),
            ({1: 0.5, 9: 0.5}, "target node 9 is not a leaf"),
            ({1: math.nan, 2: 1.0}, "target weight for leaf 1 must be finite and >= 0, got nan"),
            ({2: math.inf}, "target weight for leaf 2 must be finite and >= 0, got inf"),
            ({1: 1.5, 2: -0.5}, "target weight for leaf 2 must be finite and >= 0, got -0.5"),
        ],
    )
    def test_dense_refuses_bad_library_input(self, tiny_tree, worked_pool, weights, message):
        target = TargetDistribution(weights=weights)
        with pytest.raises(ValueError) as got:
            target.dense(tiny_tree.leaf_ids)
        assert str(got.value) == message
        # every target passes through dense, so sample refuses it the same way
        config = SamplerConfig(budget=2, objective=ObjectiveConfig(kl_weight=1.0))
        with pytest.raises(ValueError) as got:
            sample(worked_pool, tiny_tree, config, target)
        assert str(got.value) == message

    def test_renormalizes_within_window(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        p.write_text('{"l1": 0.5005, "l2": 0.5}')
        target = load_target(p, tiny_tree)
        np.testing.assert_allclose(sum(target.weights.values()), 1.0, rtol=0, atol=1e-15)

    def test_sum_outside_window_rejected(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        p.write_text('{"l1": 0.6, "l2": 0.6}')
        with pytest.raises(ValueError, match="sum"):
            load_target(p, tiny_tree)

    def test_unknown_leaf_rejected(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        p.write_text('{"root": 1.0}')
        with pytest.raises(ValueError, match="root"):
            load_target(p, tiny_tree)

    def test_negative_weight_rejected(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        p.write_text('{"l1": -0.2, "l2": 1.2}')
        with pytest.raises(ValueError, match="l1"):
            load_target(p, tiny_tree)

    def test_int_beyond_float_range_rejected(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        p.write_text('{"l1": 1%s, "l2": 1.0}' % ("0" * 400))
        with pytest.raises(ValueError, match="weight for 'l1' must be finite"):
            load_target(p, tiny_tree)

    def test_ambiguous_leaf_name_rejected(self, tmp_path):
        tree = make_tree([None, 0, 0], names=["root", "same", "same"])
        p = tmp_path / "q.json"
        p.write_text('{"same": 1.0}')
        with pytest.raises(ValueError, match="ambiguous"):
            load_target(p, tree)

    @pytest.mark.parametrize("weights", [{1: 1.0}, {1: 0.5, 2: 0.5}], ids=["one", "both"])
    def test_save_refuses_shared_leaf_name(self, tmp_path, weights):
        # load_target would refuse the name, so no file is written
        tree = make_tree([None, 0, 0, 0], names=["root", "same", "same", "other"])
        p = tmp_path / "q.json"
        with pytest.raises(ValueError, match="leaf name 'same' is ambiguous in this tree"):
            save_target(TargetDistribution(weights=weights), tree, p)
        assert not p.exists()

    def test_save_refuses_non_leaf_key(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        with pytest.raises(ValueError, match="target node 0 is not a leaf"):
            save_target(TargetDistribution(weights={0: 1.0}), tiny_tree, p)
        assert not p.exists()

    def test_save_round_trip(self, tmp_path, tiny_tree):
        target = TargetDistribution(weights={1: 0.3, 2: 0.7})
        p = tmp_path / "q.json"
        save_target(target, tiny_tree, p)
        loaded = load_target(p, tiny_tree)
        assert loaded.weights == target.weights

    def test_zero_weights_dropped(self, tmp_path, tiny_tree):
        p = tmp_path / "q.json"
        p.write_text('{"l1": 0.0, "l2": 1.0}')
        target = load_target(p, tiny_tree)
        assert target.weights == {2: 1.0}
