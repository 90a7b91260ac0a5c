"""A tree is checked once: the first read of ``TagTree.parents`` validates it.

Every view of a tree (``leaf_ids``, ``leaf_pos``, ``root_id``,
``n_leaves``) derives from ``parents``, so a loaded tree is validated by
``load_tree`` and by nothing after it, and every function that reads a
tree built in code refuses an invalid one with ``validate_tree``'s report.
``save_tree`` alone validates afresh, on every call.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from tagforest import (
    AnchoredRecord,
    Instance,
    InvalidTreeError,
    ObjectiveConfig,
    SamplerConfig,
    TargetDistribution,
    anchor_pool,
    build_ancestry_matrix,
    build_propagation_matrix,
    derive_target,
    load_target,
    load_tree,
    sample,
    save_tree,
    validate_tree,
    write_anchored,
)
from tagforest.cli import main

from conftest import make_tree, random_tree


@pytest.fixture
def validate_calls(monkeypatch):
    """The trees passed to ``validate_tree`` through any tagforest module."""
    calls = []

    def counting(tree):
        calls.append(tree)
        return validate_tree(tree)

    for name, module in list(sys.modules.items()):
        if name.startswith("tagforest") and getattr(module, "validate_tree", None) is validate_tree:
            monkeypatch.setattr(module, "validate_tree", counting)
    return calls


@pytest.fixture
def tree_file(tmp_path, tiny_tree):
    path = tmp_path / "tree.json"
    save_tree(tiny_tree, path)
    return str(path)


_ALIGNED = SamplerConfig(budget=3, objective=ObjectiveConfig(kl_weight=5.0))


class TestCheckedOnce:
    @pytest.mark.parametrize("aligned", [False, True])
    def test_load_then_sample(self, tree_file, worked_pool, validate_calls, aligned):
        tree = load_tree(tree_file)
        assert validate_calls == [tree]
        if aligned:
            sample(worked_pool, tree, _ALIGNED, TargetDistribution(weights={1: 0.5, 2: 0.5}))
        else:
            sample(worked_pool, tree, SamplerConfig(budget=3))
        assert validate_calls == [tree]

    def test_builders_and_views_of_a_loaded_tree(self, tree_file, validate_calls):
        tree = load_tree(tree_file)
        build_ancestry_matrix(tree)
        build_propagation_matrix(tree)
        assert (tree.root_id, tree.n_leaves, tree.leaf_pos) == (0, 2, {1: 0, 2: 1})
        assert validate_calls == [tree]

    def test_stats(self, tree_file, worked_pool, tmp_path, validate_calls, capsys):
        subset = tmp_path / "subset.jsonl"
        write_anchored(worked_pool, subset)
        assert main(["stats", "--input", str(subset), "--tree", tree_file]) == 0
        assert "coverage per depth" in capsys.readouterr().out
        assert len(validate_calls) == 1  # load_tree's

    def test_save_tree_checks_on_every_call(self, tiny_tree, tmp_path, validate_calls):
        tiny_tree.parents  # views read and kept
        save_tree(tiny_tree, tmp_path / "a.json")
        save_tree(tiny_tree, tmp_path / "b.json")
        assert validate_calls == [tiny_tree, tiny_tree, tiny_tree]
        # the kept views do not hide a change made after first use
        tiny_tree.nodes[2].depth = 5
        with pytest.raises(InvalidTreeError) as raised:
            save_tree(tiny_tree, tmp_path / "c.json")
        assert str(raised.value) == str(validate_tree(tiny_tree))
        assert not (tmp_path / "c.json").exists()

    def test_views_follow_the_parent_array(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            tree = random_tree(rng, max_nodes=60)
            childless = [n.id for n in tree.nodes if n.is_leaf()]
            assert tree.leaf_ids.dtype == np.int64
            assert tree.leaf_ids.tolist() == childless
            assert tree.leaf_pos == {nid: j for j, nid in enumerate(childless)}
            assert tree.root_id == next(n.id for n in tree.nodes if n.parent is None)


def _out_of_id_order():
    tree = make_tree([None, 0, 0], names=["root", "a", "b"])
    tree.nodes[1], tree.nodes[2] = tree.nodes[2], tree.nodes[1]
    return tree


def _child_listed_twice():
    tree = make_tree([None, 0, 0], names=["root", "a", "b"])
    tree.nodes[0].children = [1, 1, 2]
    return tree


def _two_roots():
    tree = make_tree([None, 0, 0], names=["root", "a", "b"])
    tree.nodes[0].children = [1]
    tree.nodes[2].parent = None
    tree.nodes[2].depth = 0
    return tree


_RECORDS = [AnchoredRecord(id="x", leaves=(1,), dropped=(), quality=0.5, complexity=0.5)]


def _load_target(tree, tmp_path):
    path = tmp_path / "target.json"
    path.write_text('{"a": 1.0}\n')
    return load_target(path, tree)


_READERS = {
    "anchor_pool": lambda tree, tmp_path: anchor_pool(
        [Instance(id="x", query="q", response="r", tags=("a",), quality=0.5, complexity=0.5)],
        tree,
        None,
    ),
    "derive_target": lambda tree, tmp_path: derive_target(_RECORDS, tree),
    "load_target": _load_target,
    "sample": lambda tree, tmp_path: sample(_RECORDS, tree, SamplerConfig(budget=1)),
    "build_ancestry_matrix": lambda tree, tmp_path: build_ancestry_matrix(tree),
    "build_propagation_matrix": lambda tree, tmp_path: build_propagation_matrix(tree),
    "root_id": lambda tree, tmp_path: tree.root_id,
}


@pytest.mark.parametrize(
    "defect", [_out_of_id_order, _child_listed_twice, _two_roots], ids=lambda f: f.__name__[1:]
)
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_invalid_library_tree_is_refused(reader, defect, tmp_path):
    tree = defect()
    report = validate_tree(tree)
    assert not report.ok
    with pytest.raises(InvalidTreeError) as raised:
        _READERS[reader](tree, tmp_path)
    assert str(raised.value) == str(report)
    assert raised.value.report.entries == report.entries
