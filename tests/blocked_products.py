"""Blocked products against one product over every row, bit for bit.

Usage, from the repository root:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python tests/blocked_products.py {assign,similarity}

With more than one BLAS thread, where BLAS splits one product over all
rows changes that product's own bits, so the checks hold for one thread
only; ``test_treebuild`` runs them in a child process with one thread.
Each check raises ``AssertionError`` on the first block that differs.

``assign``: for 500, 501, 13 and 2,003 centers, the expanded-form
distances of every block of ``io._row_blocks`` equal the rows of one
product, and ``treebuild._assign`` returns that product's argmin.
``similarity``: for 5,000 and 2,003 leaf vectors, each block of
tag x leaf similarities equals the rows of one product, and
``anchoring._resolve_tags`` keeps that product's argmax and drops by its
maximum, with the threshold at one tag's exact maximum.
"""
from __future__ import annotations

import sys

import numpy as np

from tagforest import EmbeddingTable, anchoring
from tagforest.io import _BLOCK_ELEMENTS, _row_blocks, _unit_rows
from tagforest.treebuild import _assign

from conftest import make_tree


def row_counts(width: int) -> list[int]:
    """1-8, 63-65, a block minus and plus one, a block plus 64 and two
    blocks plus a tail under 64."""
    step = _row_blocks(2 * _BLOCK_ELEMENTS, width)[0].stop
    return [*range(1, 9), 63, 64, 65, step - 1, step + 1, step + 64, 2 * step + 30]


def same_bits(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def check_assign() -> None:
    rng = np.random.default_rng(0)
    for k, dim in [(500, 64), (501, 16), (13, 32), (2003, 32)]:
        centers = _unit_rows(rng.normal(size=(k, dim)))
        c_sq = np.sum(centers**2, axis=1)
        for n in row_counts(k):
            points = _unit_rows(rng.normal(size=(n, dim)))
            full = points @ centers.T
            full *= -2.0
            full += c_sq
            for rows in _row_blocks(n, k):
                block = points[rows] @ centers.T
                block *= -2.0
                block += c_sq
                same_bits(block, full[rows], f"k={k} n={n} rows={rows}")
            same_bits(_assign(points, centers), np.argmin(full, axis=1), f"k={k} n={n}")


def check_similarity() -> None:
    rng = np.random.default_rng(1)
    for n_leaves, dim in [(5000, 64), (2003, 32)]:
        tree = make_tree([None] + [0] * n_leaves)
        table = EmbeddingTable(dimension=dim)
        for nid in tree.leaf_ids.tolist():
            table.entries[tree.node(nid).name] = rng.normal(size=dim)
        leaf_matrix = anchoring._leaf_vectors(tree, table)
        for n in row_counts(n_leaves):
            distinct = [f"tag{n}-{i}" for i in range(n)]
            for tag in distinct:
                table.entries[tag] = rng.normal(size=dim)
            mat = np.vstack([anchoring._tag_vector(t, table, dim) for t in distinct])
            full = mat @ leaf_matrix.T
            for rows in _row_blocks(n, n_leaves):
                same_bits(mat[rows] @ leaf_matrix.T, full[rows], f"leaves={n_leaves} n={n}")
            best = np.argmax(full, axis=1)
            top = full[np.arange(n), best]
            threshold = float(np.sort(top)[n // 2])  # one tag's exact maximum
            leaf, kind = anchoring._resolve_tags(distinct, tree, table, threshold)
            drop = top < threshold
            same_bits(leaf, np.where(drop, -1, tree.leaf_ids[best]), f"leaves={n_leaves} n={n}")
            same_bits(
                kind,
                np.where(drop, anchoring._DROPPED, anchoring._NEAREST),
                f"leaves={n_leaves} n={n}",
            )


CHECKS = {"assign": check_assign, "similarity": check_similarity}

if __name__ == "__main__":
    CHECKS[sys.argv[1]]()
