"""The k-means of ``tagforest.treebuild`` before its restarts were seeded
in lock-step and its cluster sums became a sparse product, kept fixed so
the batched code can be compared against it bit for bit.

Each restart seeds on its own, one ``_rows_within`` product per step,
and ``_centroids`` and ``_cluster_sse`` sum with ``np.add.at``. The
functions are copied verbatim.
"""
from __future__ import annotations

import numpy as np

from tagforest.io import _unit_rows
from tagforest.treebuild import TreeBuildConfig, _assign, _rows_within, _weighted_draw


def _plus_plus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Standard D^2-weighted seeding; falls back to the lowest unused index
    when every remaining point coincides with a chosen center.

    Returns the centers and each point's squared distance to the nearest.
    A new center's distance is computed only for the rows
    :func:`_rows_within` keeps; elsewhere ``np.minimum`` would have kept
    the old distance, so the distances, draws and centers are those of a
    full pass.
    """
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    taken = {first}
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    sq = np.sum(points**2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = _weighted_draw(d2, total, rng)
        else:
            idx = next(j for j in range(n) if j not in taken)
        taken.add(idx)
        centers[i] = points[idx]
        rows = _rows_within(points, sq, centers[i], d2)
        near = np.sum((points[rows] - centers[i]) ** 2, axis=1)
        d2[rows] = np.minimum(d2[rows], near)
    return centers, d2


def _centroids(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    dim = points.shape[1]
    sums = np.zeros((k, dim), dtype=np.float64)
    np.add.at(sums, labels, points)  # fixed input order, worker-independent
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    safe = np.where(counts == 0.0, 1.0, counts)
    return sums / safe[:, None]


def _cluster_sse(points: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int):
    d2 = np.sum((points - centers[labels]) ** 2, axis=1)
    sse = np.zeros(k, dtype=np.float64)
    np.add.at(sse, labels, d2)
    return sse, d2


def _lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator, iters: int
) -> tuple[np.ndarray, np.ndarray, float]:
    centers, _ = _plus_plus_init(points, k, rng)
    labels = np.full(len(points), -1, dtype=np.int64)
    for _ in range(iters):
        new_labels = _assign(points, centers)
        # Repair empties: move the farthest member of the worst cluster.
        counts = np.bincount(new_labels, minlength=k)
        while np.any(counts == 0):
            empty = int(np.argmin(counts))  # lowest empty index
            sse, d2 = _cluster_sse(points, new_labels, _centroids(points, new_labels, k), k)
            sse[counts < 2] = -1.0  # never steal a singleton's only member
            donor = int(np.argmax(sse))
            if sse[donor] <= 0.0:
                break  # duplicates: nothing left to split
            members = np.nonzero(new_labels == donor)[0]
            farthest = members[int(np.argmax(d2[members]))]
            new_labels[farthest] = empty
            counts = np.bincount(new_labels, minlength=k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = _centroids(points, labels, k)
    sse, _ = _cluster_sse(points, labels, centers, k)
    return labels, centers, float(sse.sum())


def kmeans(
    points: np.ndarray,
    k: int,
    seed,
    iters: int = TreeBuildConfig.kmeans_iters,
    restarts: int = TreeBuildConfig.kmeans_restarts,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded k-means++ plus Lloyd iterations on unit-normalized rows.

    Runs ``restarts`` independent initializations drawn sequentially from
    one seeded generator and keeps the lowest-SSE run (strictly-better
    comparison: the earliest best run wins ties), so a single unlucky
    D^2 draw cannot strand the result in a poor local optimum. Empty
    clusters are repaired by splitting the cluster with the highest SSE
    at its farthest member; when duplicates make that impossible the
    empty cluster is left for the caller to drop. Returns (labels,
    centroids, total SSE).
    """
    points = _unit_rows(np.asarray(points, dtype=np.float64))
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(restarts):
        labels, centers, sse = _lloyd(points, k, rng, iters)
        if best is None or sse < best[2]:
            best = (labels, centers, sse)
    assert best is not None
    return best
