"""Bottom-up tag taxonomy construction.

Leaves are the input tags. Each level clusters the current nodes'
embeddings with seeded K-Means (unit-normalized vectors, so Euclidean
ordering matches cosine), refines the clustering in four steps —
summarize each cluster into a name, merge duplicate names, reassign
members to their nearest surviving centroid, finalize names — and the
clusters become the next level's nodes. A synthetic root caps whatever
remains when the depth limit stops the recursion.

Everything is deterministic given (tags, embeddings, config): K-Means
draws from a generator seeded by (seed, level), assignment ties take the
lowest cluster index, and centroid sums reduce in fixed input order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .io import EmbeddingTable, _unit_rows, fallback_embedding
from .tree import TagTree, TreeNode, ValidationReport

__all__ = [
    "TreeBuildConfig",
    "ClusterLevel",
    "MedoidRefiner",
    "kmeans",
    "cluster_level",
    "refine_clusters",
    "build_tree",
]

ROOT_NAME = "root"


@dataclass
class TreeBuildConfig:
    """Knobs for taxonomy construction.

    ``branching`` is the per-level contraction ratio: level k+1 gets
    ceil(n_k / branching) clusters. ``depth_limit`` bounds the depth of
    the finished tree (root depth 0). ``refiner`` defaults to
    :class:`MedoidRefiner` with all steps enabled.
    """

    depth_limit: int = 10
    branching: float = 10.0
    seed: int = 0
    kmeans_iters: int = 50
    kmeans_restarts: int = 8
    refiner: "MedoidRefiner | None" = None

    def __post_init__(self):
        if self.depth_limit < 1:
            raise ValueError(f"depth_limit must be >= 1, got {self.depth_limit}")
        if self.branching <= 1.0:
            raise ValueError(f"branching must be > 1, got {self.branching}")
        if self.kmeans_iters < 1:
            raise ValueError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")
        if self.kmeans_restarts < 1:
            raise ValueError(f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}")


@dataclass
class ClusterLevel:
    """One level's partition: member index lists, centroids, topic names."""

    members: list[list[int]]
    centroids: np.ndarray
    names: list[str]


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard D^2-weighted seeding; falls back to the lowest unused index
    when every remaining point coincides with a chosen center."""
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    chosen: list[int] = [int(rng.integers(n))]
    centers[0] = points[chosen[0]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = next(j for j in range(n) if j not in set(chosen))
        chosen.append(idx)
        centers[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x-c||^2 expanded; argmin takes the first (lowest) index on ties.
    dots = points @ centers.T
    d2 = np.sum(centers**2, axis=1)[None, :] - 2.0 * dots
    return np.argmin(d2, axis=1)


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
    centers = _plus_plus_init(points, k, rng)
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
    points: np.ndarray, k: int, seed, iters: int = 50, restarts: int = 8
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


def cluster_level(
    names: list[str],
    embeddings: np.ndarray,
    k: int,
    seed,
    iters: int = 50,
    restarts: int = 8,
) -> ClusterLevel:
    """Partition one level's nodes into k clusters.

    ``names`` and ``embeddings`` describe the nodes in index order.
    Clusters with no members (possible only with duplicate inputs) are
    dropped, so the result has between 1 and k non-empty clusters.
    Provisional names are the medoid member's name until a refiner runs.
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
    kept_centroids: list[np.ndarray] = []
    for c in range(k):
        idx = np.nonzero(labels == c)[0]
        if len(idx) == 0:
            continue
        members.append([int(i) for i in idx])
        kept_centroids.append(centroids[c])
    level = ClusterLevel(
        members=members,
        centroids=np.vstack(kept_centroids),
        names=[""] * len(members),
    )
    unit = _unit_rows(np.asarray(embeddings, dtype=np.float64))
    level.names = [
        _medoid_name(names, unit, m, level.centroids[i]) for i, m in enumerate(level.members)
    ]
    return level


def _medoid_name(
    names: list[str], unit_vectors: np.ndarray, member_idx: list[int], centroid: np.ndarray
) -> str:
    d2 = np.sum((unit_vectors[member_idx] - centroid) ** 2, axis=1)
    return names[member_idx[int(np.argmin(d2))]]


class MedoidRefiner:
    """Offline four-step refiner.

    summarize: name a cluster after its medoid member. deduplicate: merge
    clusters whose canonicalized names (case/whitespace-folded) collide.
    reassign: move each member to its nearest surviving centroid.
    rename: keep the summarized name. The merge and reassign steps can be
    switched off to get an identity ("no-op") refiner.
    """

    def __init__(self, merge_duplicates: bool = True, move_members: bool = True):
        self.merge_duplicates = merge_duplicates
        self.move_members = move_members

    def summarize(self, member_names, member_vectors, centroid) -> str:
        d2 = np.sum((member_vectors - centroid) ** 2, axis=1)
        return member_names[int(np.argmin(d2))]

    @staticmethod
    def _canonical(name: str) -> str:
        return " ".join(name.lower().split())

    def deduplicate(self, names: list[str]) -> list[int]:
        """Merge map: cluster i folds into merge[i] (first same-name cluster)."""
        if not self.merge_duplicates:
            return list(range(len(names)))
        first: dict[str, int] = {}
        merge = []
        for i, name in enumerate(names):
            key = self._canonical(name)
            merge.append(first.setdefault(key, i))
        return merge

    def reassign(self, member_vector: np.ndarray, centroids: np.ndarray) -> int:
        d2 = np.sum((centroids - member_vector) ** 2, axis=1)
        return int(np.argmin(d2))

    def rename(self, name: str, member_names: list[str]) -> str:
        return name


def refine_clusters(
    level: ClusterLevel,
    names: list[str],
    embeddings: np.ndarray,
    refiner: MedoidRefiner,
) -> ClusterLevel:
    """Run the four refinement steps over one clustered level.

    The result is still a partition of the same node indices; clusters
    emptied by reassignment are dropped.
    """
    unit = _unit_rows(np.asarray(embeddings, dtype=np.float64))

    cluster_names = [
        refiner.summarize([names[i] for i in m], unit[m], level.centroids[ci])
        for ci, m in enumerate(level.members)
    ]

    merge = refiner.deduplicate(cluster_names)
    merged_members: dict[int, list[int]] = {}
    for ci, m in enumerate(level.members):
        merged_members.setdefault(merge[ci], []).extend(m)
    order = sorted(merged_members)
    members = [sorted(merged_members[ci]) for ci in order]
    kept_names = [cluster_names[ci] for ci in order]
    centroids = np.vstack([np.mean(unit[m], axis=0) for m in members])

    if refiner.move_members:
        moved: list[list[int]] = [[] for _ in members]
        for idx in range(len(names)):
            moved[refiner.reassign(unit[idx], centroids)].append(idx)
        keep = [ci for ci, m in enumerate(moved) if m]
        members = [moved[ci] for ci in keep]
        kept_names = [kept_names[ci] for ci in keep]
        centroids = np.vstack([np.mean(unit[m], axis=0) for m in members])

    final_names = [
        refiner.rename(kept_names[ci], [names[i] for i in m])
        for ci, m in enumerate(members)
    ]
    return ClusterLevel(members=members, centroids=centroids, names=final_names)


@dataclass
class _Draft:
    """Node-in-progress during bottom-up construction."""

    name: str
    vector: np.ndarray
    embedding: np.ndarray
    children: list["_Draft"] = field(default_factory=list)


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
    refiner = config.refiner or MedoidRefiner()
    tags = list(dict.fromkeys(tags))
    if not tags:
        raise ValueError("cannot build a tree from an empty tag list")
    dim = embeddings.dimension if embeddings is not None else 32

    current: list[_Draft] = []
    for tag in tags:
        vec = embeddings.get(tag) if embeddings is not None else None
        if vec is None or float(np.linalg.norm(vec)) == 0.0:
            if report is not None:
                report.warning(f"tag '{tag}'", "no embedding; using hashed fallback")
            vec = fallback_embedding(tag, dim)
        unit = np.asarray(vec, dtype=np.float64)
        unit = unit / float(np.linalg.norm(unit))
        current.append(_Draft(name=tag, vector=unit, embedding=unit))

    levels_built = 0
    while len(current) > 1 and levels_built + 1 < config.depth_limit:
        k = max(1, math.ceil(len(current) / config.branching))
        k = min(k, len(current) - 1)
        level = cluster_level(
            [d.name for d in current],
            np.vstack([d.vector for d in current]),
            k,
            seed=[config.seed, levels_built],
            iters=config.kmeans_iters,
            restarts=config.kmeans_restarts,
        )
        level = refine_clusters(
            level, [d.name for d in current], np.vstack([d.vector for d in current]), refiner
        )
        next_level: list[_Draft] = []
        for ci, member_idx in enumerate(level.members):
            children = [current[i] for i in member_idx]
            emb = np.mean(np.vstack([c.embedding for c in children]), axis=0)
            next_level.append(
                _Draft(
                    name=level.names[ci],
                    vector=_unit_rows(emb[None, :])[0],
                    embedding=emb,
                    children=children,
                )
            )
        current = next_level
        levels_built += 1

    if len(current) > 1:
        emb = np.mean(np.vstack([d.embedding for d in current]), axis=0)
        root = _Draft(name=ROOT_NAME, vector=emb, embedding=emb, children=current)
    else:
        root = current[0]

    # Breadth-first id assignment over the finished shape.
    nodes: list[TreeNode] = []
    queue: list[tuple[_Draft, int | None, int]] = [(root, None, 0)]
    drafts_in_order: list[tuple[_Draft, TreeNode]] = []
    while queue:
        draft, parent_id, depth = queue.pop(0)
        node = TreeNode(
            id=len(nodes),
            name=draft.name,
            parent=parent_id,
            children=[],
            depth=depth,
            embedding=draft.embedding.copy(),
        )
        nodes.append(node)
        drafts_in_order.append((draft, node))
        for child in draft.children:
            queue.append((child, node.id, depth + 1))

    # Wire children ids; BFS order guarantees children got larger ids.
    node_of_draft = {id(d): n for d, n in drafts_in_order}
    for draft, node in drafts_in_order:
        node.children = [node_of_draft[id(c)].id for c in draft.children]
    return TagTree(nodes=nodes)
