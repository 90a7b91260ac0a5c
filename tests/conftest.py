"""Shared fixtures and generators for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from tagforest import AnchoredRecord, TagTree, TreeNode


def make_tree(parents: list[int | None], names: list[str] | None = None) -> TagTree:
    """Build a TagTree from a parent array (parents[i] is node i's parent).

    Node 0 must be the root (parent None) and every parent index must be
    smaller than its child's, which keeps depths computable in one pass.
    """
    n = len(parents)
    names = names or [f"n{i}" for i in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    depths = [0] * n
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
            depths[i] = depths[p] + 1
    nodes = [
        TreeNode(id=i, name=names[i], parent=parents[i], children=children[i], depth=depths[i])
        for i in range(n)
    ]
    return TagTree(nodes=nodes)


def random_tree(rng: np.random.Generator, max_nodes: int = 200) -> TagTree:
    """Random recursive tree: node i attaches to a uniform parent in [0, i)."""
    n = int(rng.integers(2, max_nodes + 1))
    parents: list[int | None] = [None]
    for i in range(1, n):
        parents.append(int(rng.integers(0, i)))
    return make_tree(parents)


def star_tree(n_leaves: int) -> TagTree:
    """Root plus n_leaves direct children (ids 1..n_leaves)."""
    return make_tree([None] + [0] * n_leaves)


def chain_tree(depth: int) -> TagTree:
    """A path of depth+1 nodes; the single leaf sits at the given depth."""
    return make_tree([None] + list(range(depth)))


def ancestry_dense(anc) -> np.ndarray:
    """The ancestry operator's matrix, filled in from its jagged-diagonal arrays.

    Each stored entry adds 1, so a repeated entry would show as a 2.
    """
    dense = np.zeros(anc.shape, dtype=np.int64)
    for start, stop in zip(anc.offsets[:-1], anc.offsets[1:]):
        np.add.at(dense, (anc.nodes[start:stop], anc.order[: stop - start]), 1)
    return dense


def propagation_dense(prop) -> np.ndarray:
    """The propagation operator's matrix, filled in from its CSR index arrays.

    Each stored entry adds its row's weight, so a repeated entry would
    show as a doubled value.
    """
    dense = np.zeros(prop.shape, dtype=np.float64)
    np.add.at(dense, (prop.rows, prop.indices), prop.weight[prop.rows])
    return dense


def random_pool(
    rng: np.random.Generator,
    tree: TagTree,
    size: int,
    max_leaves_per_record: int = 3,
    prefix: str = "r",
) -> list[AnchoredRecord]:
    """Anchored records with random leaf subsets and scores in [0, 1]."""
    leaf_ids = [int(x) for x in tree.leaf_ids]
    records = []
    for i in range(size):
        k = int(rng.integers(1, min(max_leaves_per_record, len(leaf_ids)) + 1))
        picked = rng.choice(len(leaf_ids), size=k, replace=False)
        leaves = tuple(sorted(leaf_ids[j] for j in picked))
        records.append(
            AnchoredRecord(
                id=f"{prefix}{i:05d}",
                leaves=leaves,
                dropped=(),
                quality=float(rng.uniform()),
                complexity=float(rng.uniform()),
            )
        )
    return records


@pytest.fixture
def tiny_tree() -> TagTree:
    """Root with two leaf children: the smallest interesting topology."""
    return make_tree([None, 0, 0], names=["root", "l1", "l2"])


@pytest.fixture
def worked_pool() -> list[AnchoredRecord]:
    """Three copies on leaf 1 at composite score 0.9, one on leaf 2 at 0.5."""
    return [
        AnchoredRecord(id="a", leaves=(1,), dropped=(), quality=0.9, complexity=0.9),
        AnchoredRecord(id="b", leaves=(1,), dropped=(), quality=0.9, complexity=0.9),
        AnchoredRecord(id="c", leaves=(1,), dropped=(), quality=0.9, complexity=0.9),
        AnchoredRecord(id="d", leaves=(2,), dropped=(), quality=0.5, complexity=0.5),
    ]
