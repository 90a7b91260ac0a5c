"""Ancestry and propagation matrix tests: worked values plus invariants."""
from __future__ import annotations

import numpy as np
import pytest

from tagforest import (
    InvalidTreeError,
    TagTree,
    TreeNode,
    build_ancestry_matrix,
    build_propagation_matrix,
)
from tagforest.oracle import dense_ancestry, dense_propagation

from conftest import (
    ancestry_dense,
    chain_tree,
    make_tree,
    propagation_dense,
    random_tree,
    star_tree,
)
from node_walk_matrices import (
    ancestry_csc,
    ancestry_matrix,
    propagation_csr,
    propagation_matrix,
)


def relabeled(tree: TagTree, new_id: np.ndarray) -> TagTree:
    """The same tree with node i renamed ``new_id[i]``, listed in id order."""
    nodes = [None] * tree.n_nodes
    for n in tree.nodes:
        nodes[new_id[n.id]] = TreeNode(
            id=int(new_id[n.id]),
            name=n.name,
            parent=None if n.parent is None else int(new_id[n.parent]),
            children=[int(new_id[c]) for c in n.children],
            depth=n.depth,
        )
    return TagTree(nodes=nodes)


def _reference_trees() -> list[TagTree]:
    # 1,000 random recursive trees (leaves at mixed depths), every other one
    # with its ids shuffled, and one tree in which every parent has a larger
    # id than its children
    rng = np.random.default_rng(1000)
    trees = []
    for i in range(1000):
        tree = random_tree(rng, max_nodes=200)
        trees.append(relabeled(tree, rng.permutation(tree.n_nodes)) if i % 2 else tree)
    tree = make_tree([None, 0, 0, 1, 1, 1, 2, 3, 3, 6, 9])
    trees.append(relabeled(tree, np.arange(tree.n_nodes)[::-1]))
    assert all(n.parent is None or n.parent > n.id for n in trees[-1].nodes)
    return trees


def _vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixed signs, +-0.0 and magnitudes from 1e-300 to 1e300; mostly zeros half the time."""
    v = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300.0, 300.0, size=n)
    v[rng.random(n) < rng.choice([0.1, 0.9])] = 0.0
    v[rng.random(n) < 0.05] = -0.0
    return v


def test_builders_match_node_walk_reference():
    for tree in _reference_trees():
        anc, want_anc = build_ancestry_matrix(tree), ancestry_matrix(tree)
        for part in ("order", "nodes", "offsets", "slot"):
            a, b = getattr(anc, part), getattr(want_anc, part)
            assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes(), part
        assert len(anc.nodes) == ancestry_csc(tree).nnz  # one entry per one
        assert anc.leaf_ids.tobytes() == want_anc.leaf_ids.tobytes()
        assert anc.n_nodes == want_anc.n_nodes
        assert ancestry_dense(anc).tobytes() == ancestry_csc(tree).toarray().tobytes()
        prop, want_prop = build_propagation_matrix(tree), propagation_matrix(tree)
        for part in ("indptr", "indices", "weight", "rows"):
            a, b = getattr(prop, part), getattr(want_prop, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
        want = propagation_csr(tree).toarray()
        assert propagation_dense(prop).tobytes() == want.tobytes()


def test_products_give_the_bits_of_scipy():
    # every numpy product against scipy's kernels on the reference matrices
    rng = np.random.default_rng(1001)
    for tree in _reference_trees():
        anc, prop = build_ancestry_matrix(tree), build_propagation_matrix(tree)
        paths, a = ancestry_csc(tree), propagation_csr(tree)
        n, n_leaves = anc.shape
        for _ in range(2):
            v = _vector(rng, n)
            assert prop.rmatvec(v).tobytes() == (a.T.tocsr() @ v).tobytes()
            assert prop.matvec(v).tobytes() == (a @ v).tobytes()
            assert anc.leaf_sums(v).tobytes() == (paths.T @ v).tobytes()
            h = rng.integers(-(2**40), 2**40, size=n_leaves) * (rng.random(n_leaves) < 0.5)
            counts = anc.tree_counts(h)
            assert counts.dtype == np.int64 and counts.tobytes() == (paths @ h).tobytes()
            columns = np.flatnonzero(h)
            counts = anc.path_counts(columns)
            want = paths @ (h != 0).astype(np.int64)
            assert counts.dtype == np.int64 and counts.tobytes() == want.tobytes()


class TestAncestryMatrix:
    def test_worked_example(self, tiny_tree):
        # root + two leaves: each leaf column marks itself and the root
        anc = build_ancestry_matrix(tiny_tree)
        np.testing.assert_array_equal(ancestry_dense(anc), [[1, 1], [1, 0], [0, 1]])
        np.testing.assert_array_equal(anc.leaf_ids, [1, 2])

    def test_column_sums_are_depth_plus_one(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            tree = random_tree(rng, max_nodes=80)
            anc = build_ancestry_matrix(tree)
            col_sums = ancestry_dense(anc).sum(axis=0)
            expected = [tree.node(int(l)).depth + 1 for l in anc.leaf_ids]
            np.testing.assert_array_equal(col_sums, expected)

    def test_entries_binary_and_root_row_all_ones(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            dense = ancestry_dense(build_ancestry_matrix(tree))
            assert set(np.unique(dense)) <= {0, 1}
            np.testing.assert_array_equal(dense[tree.root_id], 1)

    def test_leaf_rows_form_identity(self):
        # the submatrix of leaf rows, in leaf order, is the identity
        rng = np.random.default_rng(23)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            anc = build_ancestry_matrix(tree)
            sub = ancestry_dense(anc)[anc.leaf_ids, :]
            np.testing.assert_array_equal(sub, np.eye(len(anc.leaf_ids), dtype=np.int64))

    def test_one_deep_branch_costs_its_own_entries_only(self):
        # a 300-deep chain beside 2,000 leaves under the root: one stored
        # node per one of the matrix, not (deepest path) x leaves
        tree = make_tree([None] + [0] * 2000 + [0] + list(range(2001, 2300)))
        anc, paths = build_ancestry_matrix(tree), ancestry_csc(tree)
        assert len(anc.nodes) == paths.nnz == 2000 * 2 + 301
        g = np.arange(tree.n_nodes, dtype=np.float64)
        assert anc.leaf_sums(g).tobytes() == (paths.T @ g).tobytes()

    def test_tree_counts_integer_exact(self, tiny_tree):
        anc = build_ancestry_matrix(tiny_tree)
        h = np.array([1, 1])
        counts = anc.tree_counts(h)
        np.testing.assert_array_equal(counts, [2, 1, 1])
        assert counts.dtype == np.int64

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=50)
            anc = build_ancestry_matrix(tree)
            dense, leaf_ids = dense_ancestry(tree)
            np.testing.assert_array_equal(ancestry_dense(anc), dense)
            np.testing.assert_array_equal(anc.leaf_ids, leaf_ids)

    def test_rejects_invalid_tree(self):
        nodes = [
            TreeNode(id=0, name="r", parent=None, children=[], depth=0),
            TreeNode(id=1, name="x", parent=0, children=[], depth=1),
        ]
        with pytest.raises(InvalidTreeError):
            build_ancestry_matrix(TagTree(nodes=nodes))


class TestPropagationMatrix:
    def test_worked_example(self, tiny_tree):
        prop = build_propagation_matrix(tiny_tree)
        np.testing.assert_allclose(
            propagation_dense(prop),
            [
                [1 / 3, 1 / 3, 1 / 3],
                [1 / 2, 1 / 2, 0.0],
                [1 / 2, 0.0, 1 / 2],
            ],
        )

    def test_rows_stochastic(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            tree = random_tree(rng, max_nodes=80)
            prop = build_propagation_matrix(tree)
            row_sums = propagation_dense(prop).sum(axis=1)
            np.testing.assert_allclose(row_sums, 1.0, rtol=0, atol=1e-12)

    def test_transpose_product_is_bitwise_row_product(self):
        # scipy's A^T product and gradient_vector's numpy product must both
        # give the bits of v @ A
        rng = np.random.default_rng(34)
        for _ in range(30):
            tree = random_tree(rng, max_nodes=120)
            prop, a = build_propagation_matrix(tree), propagation_csr(tree)
            for _ in range(10):
                v = rng.uniform(0.0, 50.0, size=tree.n_nodes) ** rng.uniform(-3.0, 3.0)
                expected = np.asarray(v @ a)
                assert (a.T.tocsr() @ v).tobytes() == expected.tobytes()
                assert prop.rmatvec(v).tobytes() == expected.tobytes()

    def test_diagonal_is_inverse_degree_plus_one(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            prop = build_propagation_matrix(tree)
            diag = np.diagonal(propagation_dense(prop))
            for node in tree.nodes:
                deg = len(node.children) + (node.parent is not None)
                np.testing.assert_allclose(diag[node.id], 1.0 / (1.0 + deg))

    def test_support_is_closed_neighborhood(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            dense = propagation_dense(build_propagation_matrix(tree))
            for node in tree.nodes:
                expected = {node.id} | set(node.children)
                if node.parent is not None:
                    expected.add(node.parent)
                assert set(np.nonzero(dense[node.id])[0]) == expected

    def test_symmetric_support(self):
        # undirected adjacency: entry (p,q) nonzero iff (q,p) nonzero
        rng = np.random.default_rng(34)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            dense = propagation_dense(build_propagation_matrix(tree))
            np.testing.assert_array_equal(dense > 0, dense.T > 0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=50)
            sparse = propagation_dense(build_propagation_matrix(tree))
            np.testing.assert_allclose(sparse, dense_propagation(tree), rtol=0, atol=0)

    def test_star_and_chain_shapes(self):
        star = propagation_dense(build_propagation_matrix(star_tree(5)))
        np.testing.assert_allclose(star[0], np.full(6, 1 / 6))
        chain = propagation_dense(build_propagation_matrix(chain_tree(3)))
        np.testing.assert_allclose(chain[1], [1 / 3, 1 / 3, 1 / 3, 0.0])
        np.testing.assert_allclose(chain[3], [0.0, 0.0, 1 / 2, 1 / 2])

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(36)
        tree = random_tree(rng, max_nodes=100)
        for build, parts in (
            (build_propagation_matrix, ("indptr", "indices", "weight", "rows")),
            (build_ancestry_matrix, ("order", "nodes", "offsets", "slot", "leaf_ids")),
        ):
            a, b = build(tree), build(tree)
            for part in parts:
                assert getattr(a, part).tobytes() == getattr(b, part).tobytes(), part
