"""Tree structure and validation tests."""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforest import TagTree, TreeNode, validate_tree

from conftest import chain_tree, make_tree, random_tree, star_tree
from list_scan_validation import validate_tree as validate_by_list_scan


class TestTagTree:
    def test_basic_accessors(self, tiny_tree):
        assert tiny_tree.root_id == 0
        assert tiny_tree.n_nodes == 3
        assert tiny_tree.n_leaves == 2
        np.testing.assert_array_equal(tiny_tree.leaf_ids, [1, 2])
        assert tiny_tree.leaf_pos == {1: 0, 2: 1}
        assert tiny_tree.max_depth() == 1
        assert tiny_tree.node(1).name == "l1"

    def test_leaf_ids_sorted_ascending(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            leaf_ids = tree.leaf_ids
            assert np.all(np.diff(leaf_ids) > 0)
            for nid in leaf_ids:
                assert tree.node(int(nid)).is_leaf()

    def test_equality_covers_embeddings(self, tiny_tree):
        other = make_tree([None, 0, 0], names=["root", "l1", "l2"])
        assert tiny_tree == other
        other.nodes[1].embedding = np.array([1.0, 0.0])
        assert tiny_tree != other


class TestValidateTree:
    def test_valid_trees_pass(self, tiny_tree):
        assert validate_tree(tiny_tree).ok
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert validate_tree(random_tree(rng, max_nodes=100)).ok

    def test_empty_tree(self):
        report = validate_tree(TagTree(nodes=[]))
        assert not report.ok

    def test_duplicate_ids(self):
        nodes = [
            TreeNode(id=0, name="r", parent=None, children=[0], depth=0),
            TreeNode(id=0, name="x", parent=0, children=[], depth=1),
        ]
        report = validate_tree(TagTree(nodes=nodes))
        assert any("duplicate" in msg for _, _, msg in report.errors)

    def test_non_dense_ids(self):
        nodes = [
            TreeNode(id=0, name="r", parent=None, children=[5], depth=0),
            TreeNode(id=5, name="x", parent=0, children=[], depth=1),
        ]
        report = validate_tree(TagTree(nodes=nodes))
        assert any("dense" in msg for _, _, msg in report.errors)

    def test_multiple_roots(self):
        nodes = [
            TreeNode(id=0, name="r", parent=None, children=[], depth=0),
            TreeNode(id=1, name="s", parent=None, children=[], depth=0),
        ]
        report = validate_tree(TagTree(nodes=nodes))
        assert any("multiple roots" in msg for _, _, msg in report.errors)

    def test_parent_child_mismatch(self):
        nodes = [
            TreeNode(id=0, name="r", parent=None, children=[], depth=0),
            TreeNode(id=1, name="x", parent=0, children=[], depth=1),
        ]
        report = validate_tree(TagTree(nodes=nodes))
        assert any("children" in msg for _, _, msg in report.errors)

    def test_bad_depth_label(self):
        tree = make_tree([None, 0, 0])
        tree.nodes[2].depth = 7
        report = validate_tree(tree)
        assert any("depth" in msg for _, _, msg in report.errors)

    def test_unreachable_cycle(self):
        nodes = [
            TreeNode(id=0, name="r", parent=None, children=[], depth=0),
            TreeNode(id=1, name="a", parent=2, children=[2], depth=1),
            TreeNode(id=2, name="b", parent=1, children=[1], depth=2),
        ]
        report = validate_tree(TagTree(nodes=nodes))
        assert any("unreachable" in msg for _, _, msg in report.errors)

    def test_nonfinite_embedding(self, tiny_tree):
        tiny_tree.nodes[1].embedding = np.array([np.nan, 1.0])
        report = validate_tree(tiny_tree)
        assert any("non-finite" in msg for _, _, msg in report.errors)

    @pytest.mark.parametrize(
        "embedding, message",
        [
            (np.array([[1.0, 0.0]]), "embedding must be a flat, non-empty array"),
            (np.array(7.0), "embedding must be a flat, non-empty array"),
            (np.array([]), "embedding must be a flat, non-empty array"),
            (np.array([1.0, 0.0, 0.0]), "embedding has dimension 3, expected 2"),
        ],
    )
    def test_embedding_shape(self, tiny_tree, embedding, message):
        tiny_tree.nodes[1].embedding = np.array([1.0, 0.0])
        tiny_tree.nodes[2].embedding = embedding
        assert validate_tree(tiny_tree).entries == [("error", "node 2", message)]

    def test_depth_limit(self):
        # the builder bounds depth; a limit is checked against max_depth()
        tree = chain_tree(4)
        assert validate_tree(tree).ok
        assert tree.max_depth() == 4

    def test_report_collects_all_violations(self):
        # two independent defects must both be reported, not just the first
        tree = make_tree([None, 0, 0])
        tree.nodes[1].embedding = np.array([np.nan])
        tree.nodes[2].embedding = np.array([np.inf])
        report = validate_tree(tree)
        assert len(report.errors) == 2


_BREAKS = (
    "duplicate id",
    "sparse id",
    "swap order",
    "parent",
    "no root",
    "drop child",
    "add child",
    "duplicate child",
    "depth",
    "cycle",
    "embedding",
)


def _broken_tree(data) -> TagTree:
    """A random tree with up to three breaks of the checked kinds."""
    n = data.draw(st.integers(1, 12))
    parents = [None] + [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    tree = make_tree(parents)
    nodes = tree.nodes

    def node() -> TreeNode:
        return nodes[data.draw(st.integers(0, n - 1))]

    def some_id() -> int:
        return data.draw(st.integers(-1, n + 1))

    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(_BREAKS))
        if kind == "duplicate id":
            for _ in range(data.draw(st.integers(1, 4))):
                node().id = data.draw(st.integers(0, n - 1))
        elif kind == "sparse id":
            node().id = n + data.draw(st.integers(0, 3))
        elif kind == "swap order":
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            nodes[i], nodes[j] = nodes[j], nodes[i]
        elif kind == "parent":
            node().parent = data.draw(st.none() | st.integers(-1, n + 1))
        elif kind == "no root":
            nodes[0].parent = some_id()
        elif kind == "drop child":
            victim = node()
            if victim.children:
                victim.children.pop(data.draw(st.integers(0, len(victim.children) - 1)))
        elif kind == "add child":
            node().children.append(some_id())
        elif kind == "duplicate child":
            victim = node()
            if victim.children:
                victim.children.append(data.draw(st.sampled_from(victim.children)))
        elif kind == "depth":
            node().depth += data.draw(st.sampled_from([-2, -1, 1, 3]))
        elif kind == "cycle" and n > 2:
            # hang a non-root node a under one of its own descendants (or itself):
            # both links stay consistent, and a's subtree is cut off from the root
            a = data.draw(st.integers(1, n - 1))
            below = [a]
            for i in range(a + 1, n):  # parents[i] < i: one pass finds a's subtree
                if parents[i] in below:
                    below.append(i)
            b = data.draw(st.sampled_from(below))
            if a in nodes[parents[a]].children:
                nodes[parents[a]].children.remove(a)
            nodes[a].parent = b
            nodes[b].children.append(a)
        elif kind == "embedding":
            value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 0.5]))
            node().embedding = np.array([1.0, value])
    return TagTree(nodes=nodes)


class TestLinearValidation:
    @given(st.data())
    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    def test_matches_list_scan(self, data):
        tree = _broken_tree(data)
        assert validate_tree(tree).entries == validate_by_list_scan(tree).entries

    def test_wide_trees_are_fast(self):
        # the list-scanning validator took about 70 s on the 100,000-leaf star
        tree = star_tree(100_000)
        started = time.monotonic()
        assert validate_tree(tree).ok
        tree.nodes[-1].id = 7
        assert validate_tree(tree).entries == [("error", "tree", "duplicate node ids: [7]")]
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"validating a 100,000-leaf star took {elapsed:.1f}s"
