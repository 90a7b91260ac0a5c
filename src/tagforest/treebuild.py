"""Bottom-up tag taxonomy construction.

Leaves are the input tags. Each level clusters the current nodes'
embeddings with seeded K-Means (unit-normalized vectors, so Euclidean
ordering matches cosine) and names each cluster after its medoid member.
One refinement pass then merges clusters whose names collide
(case/whitespace-folded), reassigns every node to its nearest merged
centroid and drops clusters left empty; the clusters become the next
level's nodes. A synthetic root caps whatever remains when the depth
limit stops the recursion.

Each level is held as arrays: its node names, an (n, dim) embedding
matrix and, above the leaves, the member lists that index the level
below. Node ids come from those member lists: walking the levels top
down, a level's breadth-first order is the member lists of the level
above, concatenated, so each node's children take consecutive ids.

Everything is deterministic given (tags, embeddings, config): K-Means
draws from a generator seeded by (seed, level), assignment ties take the
lowest cluster index, and centroid sums reduce in fixed input order (one
``np.bincount`` over (cluster, column) bins, which adds each cluster's
members onto 0.0 in input order).

K-Means++ seeding and the refinement's reassignment are pruned: a point's
direct distance to a center is computed only where a dot-product estimate
with a rounding margin says it could reach the point's best distance so
far, so every distance, draw and assignment is the one a full pass gives.
A level's restarts are seeded in lock-step, a batch at a time: each
restart draws from its own copy of the generator, replayed to the state
that restart would start from, and one product scores every restart's
new center per step. A restart that draws less than the replay assumed
has its successors in the batch seeded again from its real end state,
so every restart draws what it would have drawn alone. Lloyd's
assignment scores all centers in the expanded form, a block of rows at a
time, and seeding computes the direct distances of the pairs it keeps a
block of pairs at a time (:func:`io._row_blocks`), so memory is O(n·dim)
plus one block, with no n × k array. With one BLAS thread the blocks give
the bits of one product over all rows.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .io import FALLBACK_DIMENSION, EmbeddingTable, _row_blocks, _unit_rows, fallback_embedding
from .tree import TagTree, TreeNode, ValidationReport

__all__ = [
    "TreeBuildConfig",
    "ClusterLevel",
    "kmeans",
    "cluster_level",
    "refine_clusters",
    "build_tree",
]

ROOT_NAME = "root"


# Far above any useful restart count: a mistyped one fails at once rather
# than running until it is killed.
MAX_KMEANS_RESTARTS = 10_000


@dataclass
class TreeBuildConfig:
    """Knobs for taxonomy construction.

    ``branching`` is the per-level contraction ratio: level k+1 gets
    ceil(n_k / branching) clusters. ``depth_limit`` bounds the depth of
    the finished tree (root depth 0).
    """

    depth_limit: int = 10
    branching: float = 10.0
    seed: int = 0
    kmeans_iters: int = 50
    kmeans_restarts: int = 8

    def __post_init__(self):
        # every rule is written so that NaN fails it
        if not self.depth_limit >= 1:
            raise ValueError(f"depth_limit must be >= 1, got {self.depth_limit}")
        if not self.branching > 1.0:
            raise ValueError(f"branching must be > 1, got {self.branching}")
        if not math.isfinite(self.branching):
            raise ValueError(f"branching must be finite, got {self.branching}")
        if not self.kmeans_iters >= 1:
            raise ValueError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")
        if not 1 <= self.kmeans_restarts <= MAX_KMEANS_RESTARTS:
            raise ValueError(
                f"kmeans_restarts must be in [1, {MAX_KMEANS_RESTARTS}], "
                f"got {self.kmeans_restarts}"
            )
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ClusterLevel:
    """One level's partition: member index lists, centroids, topic names."""

    members: list[list[int]]
    centroids: np.ndarray
    names: list[str]


# A pruned pass computes the direct sum((x - c)**2) only for the points
# that could come out at or below their best squared distance so far, d2.
# The estimate |x|^2 + |c|^2 - 2 x.c, from one matrix product, is off the
# real value by at most (2 * dim + 6) * 2**-53 * (|x|^2 + |c|^2), in
# whatever order BLAS sums, and the direct sum by a relative
# dim * 2**-53. So where the estimate exceeds d2 by the margin below, the
# direct sum comes out strictly above d2 (for dim up to a million) and the
# unpruned pass's np.minimum or argmin could not have taken c.
# _PRUNE_FLOOR covers products and squares that underflow. A larger slack
# only costs distances computed in vain.
_PRUNE_SLACK = 1e-9
_PRUNE_FLOOR = 1e-300

# K-means++ restarts seeded together. Bounds the (restarts, points) blocks
# of distances and estimates that one seeding step works on.
_SEED_BATCH = 8


def _within(
    points: np.ndarray, sq: np.ndarray, c: np.ndarray, c_sq, d2: np.ndarray
) -> np.ndarray:
    """Mask of the rows of ``points`` (squared norms ``sq``) whose direct
    squared distance to ``c`` (squared norm ``c_sq``) can come out at or
    below ``d2``. ``c`` is one center with ``d2`` of shape (n,), or a block
    of centers (B, dim) with ``c_sq`` (B, 1) and ``d2`` (B, n)."""
    est = c @ points.T
    est *= -2.0
    est += sq
    est += c_sq
    margin = d2 + sq
    margin += c_sq
    margin *= _PRUNE_SLACK
    margin += _PRUNE_FLOOR
    margin += d2
    return est <= margin


def _rows_within(
    points: np.ndarray, sq: np.ndarray, c: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Indices of the rows of ``points`` (squared norms ``sq``) whose
    direct squared distance to the one center ``c`` can come out at or
    below ``d2``."""
    return np.flatnonzero(_within(points, sq, c, float(c @ c), d2))


def _weighted_draw(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """``rng.choice(len(weights), p=weights / total)``: the same index and
    generator state, without the checks and the extra sum that ``choice``
    spends on ``p``. This is ``choice``'s own arithmetic for one draw with
    replacement."""
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _plus_plus_init(
    points: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D^2-weighted seeding of ``len(rngs)`` restarts in lock-step.

    Restart b draws from ``rngs[b]``, which it advances as a restart of its
    own would: one ``integers(n)``, then one ``random()`` per step whose
    total is positive. Once every point coincides with one of its centers,
    a step takes the lowest unused index instead. Each step scores the new
    centers of every restart in one product; a new center's direct
    distance is computed only for the points :func:`_within` keeps, a
    block of (restart, point) pairs at a time, and elsewhere
    ``np.minimum`` would have kept the old distance, so the distances,
    draws and centers are those of a full pass per restart.

    Returns each restart's chosen point indices, shape (B, k), each
    point's squared distance to its restart's nearest center, (B, n), and
    the number of ``random()`` calls each restart made, (B,).
    """
    n = len(points)
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    draws = np.zeros(len(rngs), dtype=np.intp)
    d2 = np.vstack([np.sum((points - points[first]) ** 2, axis=1) for first in chosen[:, 0]])
    flat = d2.reshape(-1)
    sq = np.sum(points**2, axis=1)
    for i in range(1, k):
        for b, rng in enumerate(rngs):
            total = float(d2[b].sum())
            if total > 0.0:
                chosen[b, i] = _weighted_draw(d2[b], total, rng)
                draws[b] += 1
            else:  # the lowest index not yet a center
                chosen[b, i] = np.setdiff1d(np.arange(n), chosen[b, :i])[0]
        new = chosen[:, i]
        c = points[new]
        kept = np.flatnonzero(_within(points, sq, c, sq[new, None], d2))
        for pairs in _row_blocks(len(kept), points.shape[1]):
            block = kept[pairs]
            rows, cols = np.divmod(block, n)
            near = np.sum((points[cols] - c[rows]) ** 2, axis=1)
            flat[block] = np.minimum(flat[block], near)
    return chosen, d2, draws


def _replay(
    rng: np.random.Generator, n: int, draws: int, count: int
) -> list[np.random.Generator]:
    """Copies of ``rng`` at the start of each of the next ``count``
    restarts, if each restart makes ``draws`` ``random()`` calls."""
    rngs = [copy.deepcopy(rng)]
    for _ in range(count - 1):
        ahead = copy.deepcopy(rngs[-1])
        ahead.integers(n)
        ahead.random(draws)
        rngs.append(ahead)
    return rngs


def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||c||^2 - 2 x.c built in place, a block of rows at a time: scaling by
    # -2 is exact and addition commutes, so the values are bitwise those of
    # csq - 2.0 * dots over all rows at once (see io._row_blocks).
    # argmin takes the first (lowest) index on ties.
    c_sq = np.sum(centers**2, axis=1)
    labels = np.empty(len(points), dtype=np.intp)
    for rows in _row_blocks(len(points), len(centers)):
        d2 = points[rows] @ centers.T
        d2 *= -2.0
        d2 += c_sq
        labels[rows] = np.argmin(d2, axis=1)
        del d2  # else it lives on through the next block's product
    return labels


def _centroids(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    # One bincount per column: it adds a cluster's members onto 0.0 in
    # input order, the sums np.add.at gives, with no n x dim temporary.
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, points.shape[1]))
    for j, column in enumerate(points.T):
        sums[:, j] = np.bincount(labels, column, minlength=k)
    safe = np.where(counts == 0, 1.0, counts)
    return sums / safe[:, None]


def _cluster_sse(points: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int):
    d2 = np.sum((points - centers[labels]) ** 2, axis=1)
    return np.bincount(labels, weights=d2, minlength=k), d2


def _lloyd(
    points: np.ndarray, centers: np.ndarray, iters: int
) -> tuple[np.ndarray, np.ndarray, float]:
    k = len(centers)
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

    Runs ``restarts`` initializations drawn one after another from one
    seeded generator and keeps the lowest-SSE run (strictly-better
    comparison: the earliest best run wins ties), so a single unlucky
    D^2 draw cannot strand the result in a poor local optimum. Empty
    clusters are repaired by splitting the cluster with the highest SSE
    at its farthest member; when duplicates make that impossible the
    empty cluster is left for the caller to drop. Returns (labels,
    centroids, total SSE).

    Only seeding draws, so the generator state at the start of each
    restart is replayed on copies of the generator, and up to
    ``_SEED_BATCH`` restarts are seeded in lock-step. The replay assumes
    each restart draws at every seeding step. A restart stops drawing
    once every point coincides with one of its centers (fewer distinct
    points than k); it then ends short of the next restart's replayed
    start, so the restarts after it in its batch are thrown away and
    seeded again from its real end state, replayed with its number of
    draws. Lloyd then runs once per restart, in restart order, so the
    draws, centers and result are those of seeding each restart on its
    own. Cluster sums are one ``np.bincount``, added in input order.
    Assignment and seeding distances are computed a block of rows or of
    (restart, point) pairs at a time, so one call holds O(n·dim) plus one
    block of about 2 MB, not n × k distances.
    """
    points = _unit_rows(np.asarray(points, dtype=np.float64))
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    draws = k - 1  # a restart's random() calls when it draws at every step
    pending = restarts  # a plain int: a range longer than sys.maxsize has no len
    while pending:
        rngs = _replay(rng, n, draws, min(_SEED_BATCH, pending))
        chosen, _, made = _plus_plus_init(points, k, rngs)
        # restart b + 1 started where restart b ended only if b drew as replayed
        seeded = next((b + 1 for b in range(len(rngs) - 1) if made[b] != draws), len(rngs))
        for b in range(seeded):
            labels, centers, sse = _lloyd(points, points[chosen[b]], iters)
            if best is None or sse < best[2]:
                best = (labels, centers, sse)
        rng.bit_generator.state = rngs[seeded - 1].bit_generator.state
        draws = int(made[seeded - 1])
        pending -= seeded
    assert best is not None
    return best


def cluster_level(
    names: list[str],
    embeddings: np.ndarray,
    k: int,
    seed,
    iters: int = TreeBuildConfig.kmeans_iters,
    restarts: int = TreeBuildConfig.kmeans_restarts,
) -> ClusterLevel:
    """Partition one level's nodes into k clusters.

    ``names`` and ``embeddings`` describe the nodes in index order.
    Clusters with no members (possible only with duplicate inputs) are
    dropped, so the result has between 1 and k non-empty clusters.
    Each cluster is named after its medoid member (nearest the centroid,
    lowest index on ties).
    """
    if len(names) != len(embeddings):
        raise ValueError("names and embeddings must align")
    if len(names) == 0:
        raise ValueError("cannot cluster an empty level")
    if embeddings.ndim != 2 or embeddings.shape[1] == 0:
        raise ValueError("embeddings must be a non-empty 2-D matrix")
    if k >= len(names):
        raise ValueError(f"k must be < number of nodes ({len(names)}), got {k}")
    labels, centroids, _ = kmeans(embeddings, k, seed, iters, restarts)
    members: list[list[int]] = []
    kept: list[int] = []
    for c in range(k):
        idx = np.nonzero(labels == c)[0]
        if len(idx) == 0:
            continue
        members.append([int(i) for i in idx])
        kept.append(c)
    unit = _unit_rows(np.asarray(embeddings, dtype=np.float64))
    return ClusterLevel(
        members=members,
        centroids=centroids[kept],
        names=[_medoid_name(names, unit, m, centroids[c]) for m, c in zip(members, kept)],
    )


def _medoid_name(
    names: list[str], unit_vectors: np.ndarray, member_idx: list[int], centroid: np.ndarray
) -> str:
    d2 = np.sum((unit_vectors[member_idx] - centroid) ** 2, axis=1)
    return names[member_idx[int(np.argmin(d2))]]


def _canonical(name: str) -> str:
    return " ".join(name.lower().split())


def refine_clusters(
    level: ClusterLevel, names: list[str], embeddings: np.ndarray
) -> ClusterLevel:
    """Merge same-named clusters, then reassign every node once.

    Clusters whose names in ``level.names`` canonicalize (case- and
    whitespace-folded) to the same key fold into the first of them. Every
    node then moves to its nearest merged centroid (lowest index on
    ties) and clusters left empty are dropped. The result is still a
    partition of the same node indices; each kept cluster keeps its name
    and the centroid its members were assigned to. ``names`` are the
    node names, used only to check alignment.
    """
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

    # Direct (c - x)^2 sums, not _assign's expanded form: the two round
    # differently and tie-heavy inputs would change which centroid wins.
    # Each node starts at its own merged centroid; another centroid's sum
    # is computed only where _rows_within keeps the node, and the lowest
    # index wins ties, as argmin over every column would.
    ref = np.zeros(len(unit), dtype=np.intp)
    for pos, ci in enumerate(order):
        ref[merged[ci]] = pos
    best = np.sum((unit - centroids[ref]) ** 2, axis=1)
    labels = ref.copy()
    sq = np.sum(unit**2, axis=1)
    for j, c in enumerate(centroids):
        rows = _rows_within(unit, sq, c, best)
        d2 = np.sum((unit[rows] - c) ** 2, axis=1)
        wins = (d2 < best[rows]) | ((d2 == best[rows]) & (j < labels[rows]))
        rows = rows[wins]
        best[rows] = d2[wins]
        labels[rows] = j
    keep = np.unique(labels)
    return ClusterLevel(
        members=[np.nonzero(labels == c)[0].tolist() for c in keep],
        centroids=centroids[keep],
        names=[level.names[order[c]] for c in keep],
    )


def build_tree(
    tags: list[str],
    embeddings: EmbeddingTable | None,
    config: TreeBuildConfig | None = None,
    report: ValidationReport | None = None,
) -> TagTree:
    """Build a tag tree whose leaf set is exactly the (deduplicated) tags.

    Tags missing from the embedding table get a deterministic hashed
    vector (warning recorded when a report is passed). Internal node
    embeddings are the means of their members'. Node ids are assigned in
    breadth-first order on the finished shape.
    """
    config = config or TreeBuildConfig()
    tags = list(dict.fromkeys(tags))
    if not tags:
        raise ValueError("cannot build a tree from an empty tag list")
    dim = embeddings.dimension if embeddings is not None else FALLBACK_DIMENSION

    rows = []
    for tag in tags:
        vec = embeddings.get(tag) if embeddings is not None else None
        norm = 0.0 if vec is None else float(np.linalg.norm(vec))
        if norm == 0.0:
            if report is not None:
                report.warning(f"tag '{tag}'", "no embedding; using hashed fallback")
            vec = fallback_embedding(tag, dim)
            norm = float(np.linalg.norm(vec))
        rows.append(np.asarray(vec, dtype=np.float64) / norm)
    names = tags
    embedding = vectors = np.vstack(rows)

    # One (names, embeddings, members) layer per level, leaves first; a
    # layer's member lists index the layer below it.
    layers = [(names, embedding, [()] * len(names))]
    while len(names) > 1 and len(layers) < config.depth_limit:
        k = max(1, math.ceil(len(names) / config.branching))
        k = min(k, len(names) - 1)
        level = cluster_level(
            names,
            vectors,
            k,
            seed=[config.seed, len(layers) - 1],
            iters=config.kmeans_iters,
            restarts=config.kmeans_restarts,
        )
        level = refine_clusters(level, names, vectors)
        names = level.names
        embedding = np.vstack([np.mean(embedding[m], axis=0) for m in level.members])
        vectors = _unit_rows(embedding)
        layers.append((names, embedding, level.members))
    if len(names) > 1:
        layers.append(([ROOT_NAME], np.mean(embedding, axis=0)[None, :], [range(len(names))]))

    # Breadth-first ids, top layer down: each node's members take the next
    # consecutive ids below it.
    nodes: list[TreeNode] = []
    order = [0]
    for depth, (names, embedding, members) in enumerate(reversed(layers)):
        child_id = len(nodes) + len(order)
        for i in order:
            nodes.append(
                TreeNode(
                    id=len(nodes),
                    name=names[i],
                    parent=None,
                    children=list(range(child_id, child_id + len(members[i]))),
                    depth=depth,
                    embedding=embedding[i].copy(),
                )
            )
            child_id += len(members[i])
        order = [j for i in order for j in members[i]]
    for node in nodes:
        for c in node.children:
            nodes[c].parent = node.id
    return TagTree(nodes=nodes)
