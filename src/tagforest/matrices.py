"""Structural matrices derived from a tag tree.

Two sparse operators drive everything downstream:

* the ancestry matrix maps a leaf activation vector to whole-path counts
  (entry [i, j] is 1 when node i is the leaf in column j or one of its
  ancestors), and
* the propagation matrix spreads per-node mass to immediate neighbors,
  row-normalized with an implicit self-loop so every row sums to 1 and
  the diagonal entry is 1/(1+degree).

Both are deterministic functions of the tree, built with numpy from its
parent array (``TagTree.parents``) and held as numpy index arrays, and
their products are numpy calls that give the bits scipy's sparse kernels
give: each output entry is its terms added onto 0.0 in the order of the
matrix's compressed form. The builders read the parent array first, and
its first read validates the tree: an invalid one raises InvalidTreeError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import TagTree

__all__ = [
    "AncestryMatrix",
    "PropagationMatrix",
    "build_ancestry_matrix",
    "build_propagation_matrix",
]


@dataclass
class AncestryMatrix:
    """Binary |V| x |V_leaf| matrix, held in jagged-diagonal form.

    ``leaf_ids[j]`` is the node id behind column j; columns are ordered by
    ascending leaf node id. Column j has exactly depth(leaf)+1 ones: the
    leaf itself plus every ancestor up to the root, and its r-th one in
    ascending node id (its r-th entry in CSC order) has rank r. ``order``
    lists the columns by descending number of ones, ties by column, so
    the columns with an entry of rank r are ``order[:m_r]``; the entries
    of rank r are ``nodes[offsets[r]:offsets[r + 1]]``, in that column
    order, with m_r = ``offsets[r + 1] - offsets[r]``. That is one int64
    per entry: memory follows the number of ones, not the deepest leaf.
    ``slot`` is the inverse of ``order``.
    """

    order: np.ndarray
    nodes: np.ndarray
    offsets: np.ndarray
    leaf_ids: np.ndarray
    n_nodes: int
    slot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.slot = np.argsort(self.order)
        # (start, stop) of each rank's run in nodes, as Python ints
        self._runs = list(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()))

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_nodes, len(self.leaf_ids)

    # nothing in src/ calls it, but perfbench/tracing.py looks it up by name for --trace 1
    def tree_counts(self, leaf_vector: np.ndarray) -> np.ndarray:
        """Dense node-count vector M @ h_leaf (exact integer arithmetic)."""
        h = np.asarray(leaf_vector).astype(np.int64)
        if h.shape != (len(self.leaf_ids),):
            raise ValueError(f"leaf vector of shape {h.shape}, expected ({len(self.leaf_ids)},)")
        counts = np.zeros(self.n_nodes, dtype=np.int64)
        h = h[self.order]
        for start, stop in self._runs:
            np.add.at(counts, self.nodes[start:stop], h[: stop - start])
        return counts

    def path_counts(self, columns: np.ndarray) -> np.ndarray:
        """M @ h for the 0/1 leaf vector h that is 1 at the distinct ``columns``.

        Entry i counts the given leaves at or below node i, in int64.
        """
        # rank r of the column in slot p is entry offsets[r] + p, if it is in run r
        entries = self.offsets[:-1, None] + self.slot[columns]
        entries = entries[entries < self.offsets[1:, None]]
        return np.bincount(self.nodes[entries], minlength=self.n_nodes)

    def leaf_sums(self, g: np.ndarray) -> np.ndarray:
        """M^T g: each leaf's path entries of ``g``, added onto 0.0 in ascending node id.

        The bits of scipy's ``M.T @ g`` for M in CSC form and a float64
        ``g`` (csr_matvec over the transpose): rank by rank, each column's
        sum grows by its next entry.
        """
        terms = g[self.nodes]
        start, stop = self._runs[0]
        sums = terms[start:stop] + 0.0
        for start, stop in self._runs[1:]:
            sums[: stop - start] += terms[start:stop]
        return sums[self.slot]


@dataclass
class PropagationMatrix:
    """Row-stochastic |V| x |V| neighbor-averaging matrix, held as index arrays.

    Row p holds ``weight[p]`` = 1/(1+deg(p)) at p itself and at each tree
    neighbor of p (parent and children, treated as undirected adjacency).
    The pattern is symmetric, so ``indptr`` and ``indices`` (node p's
    closed neighborhood, ascending, is ``indices[indptr[p]:indptr[p + 1]]``)
    are the index arrays of A in CSR form, of A in CSC form and of A^T in
    CSR form at once; ``rows`` names the row of each entry.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weight: np.ndarray
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.weight)
        self.rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.weight), len(self.weight)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """A^T v (the row vector v @ A) in the bits of scipy's ``A.T.tocsr() @ v``.

        Row i of A^T holds weight[p] at each p in i's closed neighborhood,
        so its terms are (weight * v)[p], which ``bincount`` adds onto 0.0
        in ascending p, as csr_matvec does.
        """
        terms = (self.weight * v)[self.indices]
        return np.bincount(self.rows, terms, minlength=len(self.weight))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x in the bits of scipy's CSR ``A @ x``, over the non-zero entries of x only.

        Read through the symmetric pattern, entry k is A's entry at row
        ``indices[k]`` and column ``rows[k]``, and the entries run column
        by column, rows ascending. Those in the columns where x is non-zero
        are kept in that order, so ``bincount`` adds each row's terms
        weight[row] * x[col] onto 0.0 in ascending column, as csr_matvec
        does. A zero term left out changes no sum that starts at 0.0.
        """
        kept = (x != 0.0)[self.rows].nonzero()[0]
        rows = self.indices[kept]
        terms = self.weight[rows] * x[self.rows[kept]]
        return np.bincount(rows, terms, minlength=len(self.weight))


def build_ancestry_matrix(tree: TagTree) -> AncestryMatrix:
    """Build the ancestor-or-self indicator matrix; reads ``tree.parents`` first."""
    parents = tree.parents
    leaf_ids = tree.leaf_ids
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
    col = keys // n_nodes
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    lengths = np.diff(starts, append=len(keys))
    rank = np.arange(len(keys)) - np.repeat(starts, lengths)
    order = np.argsort(-lengths, kind="stable")
    slot = np.argsort(order)
    jagged = np.lexsort((slot[col], rank))  # by rank, then the column's slot
    return AncestryMatrix(
        order=order,
        nodes=keys[jagged] - col[jagged] * n_nodes,
        offsets=np.concatenate(([0], np.cumsum(np.bincount(rank)))),
        leaf_ids=leaf_ids,
        n_nodes=n_nodes,
    )


def build_propagation_matrix(tree: TagTree) -> PropagationMatrix:
    """Build the neighbor-averaging operator; reads ``tree.parents`` first."""
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
    return PropagationMatrix(
        indptr=indptr,
        indices=keys % n,
        weight=1.0 / counts,  # 1 / (1 + degree)
    )
