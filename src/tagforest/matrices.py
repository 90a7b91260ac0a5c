"""Structural matrices derived from a tag tree.

Two sparse operators drive everything downstream:

* the ancestry matrix maps a leaf activation vector to whole-path counts
  (entry [i, j] is 1 when node i is the leaf in column j or one of its
  ancestors), and
* the propagation matrix spreads per-node mass to immediate neighbors,
  row-normalized with an implicit self-loop so every row sums to 1 and
  the diagonal entry is 1/(1+degree).

Both are deterministic functions of the tree, built with numpy from its
parent array (``TagTree.parents``), and the public builders reject
invalid input. The private ``_ancestry_matrix`` and
``_propagation_matrix`` skip that check, for a caller that has already
validated the tree once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .tree import InvalidTreeError, TagTree, validate_tree

__all__ = [
    "AncestryMatrix",
    "PropagationMatrix",
    "build_ancestry_matrix",
    "build_propagation_matrix",
]


@dataclass
class AncestryMatrix:
    """Binary |V| x |V_leaf| matrix in CSC form, integer entries.

    ``leaf_ids[j]`` is the node id behind column j; columns are ordered by
    ascending leaf node id. Column j has exactly depth(leaf)+1 ones: the
    leaf itself plus every ancestor up to the root.
    """

    matrix: sp.csc_matrix
    leaf_ids: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    # nothing in src/ calls it, but perfbench/tracing.py looks it up by name for --trace 1
    def tree_counts(self, leaf_vector: np.ndarray) -> np.ndarray:
        """Dense node-count vector M @ h_leaf (exact integer arithmetic)."""
        return np.asarray(self.matrix @ leaf_vector.astype(np.int64))


@dataclass
class PropagationMatrix:
    """Row-stochastic |V| x |V| neighbor-averaging matrix in CSR form.

    Row p holds 1/(1+deg(p)) at p itself and at each tree neighbor of p
    (parent and children, treated as undirected adjacency). ``transpose``
    is A^T in CSR form, built once: ``transpose @ v`` gives the same bits
    as ``v @ matrix``, which would rebuild the transpose on every call.
    """

    matrix: sp.csr_matrix
    transpose: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.transpose = self.matrix.T.tocsr()

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _require_valid(tree: TagTree) -> None:
    report = validate_tree(tree)
    if not report.ok:
        raise InvalidTreeError(report)


def build_ancestry_matrix(tree: TagTree) -> AncestryMatrix:
    """Build the ancestor-or-self indicator matrix for a valid tree."""
    _require_valid(tree)
    return _ancestry_matrix(tree)


def build_propagation_matrix(tree: TagTree) -> PropagationMatrix:
    """Build the neighbor-averaging operator for a valid tree."""
    _require_valid(tree)
    return _propagation_matrix(tree)


def _ancestry_matrix(tree: TagTree) -> AncestryMatrix:
    leaf_ids = tree.leaf_ids
    parents = tree.parents
    n_nodes, n_leaves = tree.n_nodes, len(leaf_ids)
    # walk every leaf's path up one level per step; a key col * n_nodes + row
    # sorts the entries into CSC order, each column's rows ascending
    keys = []
    node, col = leaf_ids, np.arange(n_leaves, dtype=np.int64)
    while len(node):
        keys.append(col * n_nodes + node)
        node = parents[node]
        above = node >= 0
        node, col = node[above], col[above]
    keys = np.sort(np.concatenate(keys))
    indptr = np.zeros(n_leaves + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n_nodes, minlength=n_leaves), out=indptr[1:])
    matrix = sp.csc_matrix(
        (np.ones(len(keys), dtype=np.int64), keys % n_nodes, indptr),
        shape=(n_nodes, n_leaves),
    )
    return AncestryMatrix(matrix=matrix, leaf_ids=leaf_ids)


def _propagation_matrix(tree: TagTree) -> PropagationMatrix:
    parents = tree.parents
    n = tree.n_nodes
    child = np.flatnonzero(parents >= 0)
    parent = parents[child]
    # row p holds p, its children and its parent; a key row * n + col sorts
    # the entries into CSR order, each row's columns ascending
    nodes = np.arange(n, dtype=np.int64)
    keys = np.sort(np.concatenate([nodes * (n + 1), child * n + parent, parent * n + child]))
    counts = np.bincount(keys // n, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    weight = 1.0 / counts  # 1 / (1 + degree)
    matrix = sp.csr_matrix(
        (np.repeat(weight, counts), keys % n, indptr),
        shape=(n, n),
    )
    return PropagationMatrix(matrix=matrix)
