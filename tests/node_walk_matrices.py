"""Reference builders for the structural matrices: walk the node objects.

``tagforest.matrices`` builds both operators with numpy from the tree's
parent array. These builders walk ``TreeNode`` objects instead and share
no logic with the package's: ``ancestors_and_self`` follows parent
pointers from a node to the root; the ancestry arrays list the leaves'
sorted ancestor lists rank by rank, longest lists first; the scipy
matrices come from coordinate lists that scipy converts itself, and the
propagation arrays are read off the converted matrix. The tests require
the package's arrays to equal these, and its products to give the bytes
and dtypes of scipy's kernels on these matrices. All expect a valid tree.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from tagforest import TagTree
from tagforest.matrices import AncestryMatrix, PropagationMatrix


def ancestors_and_self(tree: TagTree, node_id: int) -> list[int]:
    """Path of node ids from ``node_id`` up to the root, inclusive."""
    path = [node_id]
    while tree.nodes[path[-1]].parent is not None:
        path.append(tree.nodes[path[-1]].parent)
    return path


def _paths(tree: TagTree) -> list[list[int]]:
    return [sorted(ancestors_and_self(tree, int(leaf))) for leaf in tree.leaf_ids]


def ancestry_matrix(tree: TagTree) -> AncestryMatrix:
    paths = _paths(tree)
    order = sorted(range(len(paths)), key=lambda j: (-len(paths[j]), j))
    nodes: list[int] = []
    offsets = [0]
    for rank in range(len(paths[order[0]])):
        nodes.extend(paths[j][rank] for j in order if len(paths[j]) > rank)
        offsets.append(len(nodes))
    return AncestryMatrix(
        order=np.array(order, dtype=np.int64),
        nodes=np.array(nodes, dtype=np.int64),
        offsets=np.array(offsets, dtype=np.int64),
        leaf_ids=tree.leaf_ids,
        n_nodes=tree.n_nodes,
    )


def ancestry_csc(tree: TagTree) -> sp.csc_matrix:
    rows: list[int] = []
    cols: list[int] = []
    for j, path in enumerate(_paths(tree)):
        rows.extend(path)
        cols.extend([j] * len(path))
    data = np.ones(len(rows), dtype=np.int64)
    return sp.csc_matrix(
        (data, (np.array(rows), np.array(cols))),
        shape=(tree.n_nodes, len(tree.leaf_ids)),
    )


def propagation_csr(tree: TagTree) -> sp.csr_matrix:
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
    return sp.csr_matrix(
        (np.array(data), (np.array(rows), np.array(cols))),
        shape=(tree.n_nodes, tree.n_nodes),
    )


def propagation_matrix(tree: TagTree) -> PropagationMatrix:
    matrix = propagation_csr(tree)
    return PropagationMatrix(
        indptr=matrix.indptr.astype(np.int64),
        indices=matrix.indices.astype(np.int64),
        weight=matrix.diagonal(),
    )
