"""Reference distance passes of the tree builder, without pruning.

These are the k-means++ seeding, Lloyd assignment and refinement
reassignment that ``tagforest.treebuild`` ran before its passes skipped
centers ruled out by the triangle inequality, kept fixed so the pruned
passes can be compared against them bit for bit. The one difference from
that code: ``plus_plus_init`` also returns its final ``d2``.
"""
from __future__ import annotations

import numpy as np

from tagforest.io import _unit_rows
from tagforest.treebuild import ClusterLevel, _canonical


def plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator):
    """D^2-weighted seeding with a full distance pass per new center."""
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    chosen: list[int] = [int(rng.integers(n))]
    taken = set(chosen)
    centers[0] = points[chosen[0]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = next(j for j in range(n) if j not in taken)
        chosen.append(idx)
        taken.add(idx)
        centers[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers, d2


def assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x-c||^2 expanded; argmin takes the first (lowest) index on ties.
    dots = points @ centers.T
    d2 = np.sum(centers**2, axis=1)[None, :] - 2.0 * dots
    return np.argmin(d2, axis=1)


def refine_clusters(
    level: ClusterLevel, names: list[str], embeddings: np.ndarray
) -> ClusterLevel:
    """Merge same-named clusters, then reassign every node against every
    merged centroid."""
    if len(names) != len(embeddings):
        raise ValueError("names and embeddings must align")
    unit = _unit_rows(np.asarray(embeddings, dtype=np.float64))

    first: dict[str, int] = {}
    merged: dict[int, list[int]] = {}
    for ci, (name, m) in enumerate(zip(level.names, level.members)):
        target = first.setdefault(_canonical(name), ci)
        merged.setdefault(target, []).extend(m)
    order = list(merged)  # ascending: first-seen key order is cluster order
    centroids = np.vstack([np.mean(unit[sorted(merged[ci])], axis=0) for ci in order])

    d2 = np.column_stack([np.sum((unit - c) ** 2, axis=1) for c in centroids])
    labels = np.argmin(d2, axis=1)
    keep = np.unique(labels)
    return ClusterLevel(
        members=[np.nonzero(labels == c)[0].tolist() for c in keep],
        centroids=centroids[keep],
        names=[level.names[order[c]] for c in keep],
    )
