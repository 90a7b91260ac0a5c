"""Reference builders for the structural matrices: walk the node objects.

``tagforest.matrices`` builds both operators with numpy from the tree's
parent array. These builders walk ``TreeNode`` objects instead, collect
coordinate lists and let scipy convert them, so they share no logic with
the package's; the tests require the two to give identical ``indptr``,
``indices``, ``data``, dtypes and transposes. Both expect a valid tree.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from tagforest import TagTree
from tagforest.matrices import AncestryMatrix, PropagationMatrix


def ancestry_matrix(tree: TagTree) -> AncestryMatrix:
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


def propagation_matrix(tree: TagTree) -> PropagationMatrix:
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
