"""Structural matrices derived from a tag tree.

Two sparse operators drive everything downstream:

* the ancestry matrix maps a leaf activation vector to whole-path counts
  (entry [i, j] is 1 when node i is the leaf in column j or one of its
  ancestors), and
* the propagation matrix spreads per-node mass to immediate neighbors,
  row-normalized with an implicit self-loop so every row sums to 1 and
  the diagonal entry is 1/(1+degree).

Both are deterministic functions of the tree, and the public builders
reject invalid input. The private ``_ancestry_matrix`` and
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
    rows: list[int] = []
    cols: list[int] = []
    for j, leaf in enumerate(leaf_ids):
        for node_id in tree.ancestors_and_self(int(leaf)):
            rows.append(node_id)
            cols.append(j)
    data = np.ones(len(rows), dtype=np.int64)
    matrix = sp.csc_matrix(
        (data, (np.array(rows), np.array(cols))),
        shape=(tree.n_nodes, len(leaf_ids)),
    )
    return AncestryMatrix(matrix=matrix, leaf_ids=leaf_ids)


def _propagation_matrix(tree: TagTree) -> PropagationMatrix:
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for node in tree.nodes:
        neighbors = list(node.children)
        if node.parent is not None:
            neighbors.append(node.parent)
        weight = 1.0 / (1.0 + len(neighbors))
        rows.append(node.id)
        cols.append(node.id)
        data.append(weight)
        for q in neighbors:
            rows.append(node.id)
            cols.append(q)
            data.append(weight)
    matrix = sp.csr_matrix(
        (np.array(data), (np.array(rows), np.array(cols))),
        shape=(tree.n_nodes, tree.n_nodes),
    )
    return PropagationMatrix(matrix=matrix)
