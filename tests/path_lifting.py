"""Per-instance path-count lifting and first-order gain helpers, kept for tests.

``anchor_instance`` anchors one instance exactly as ``anchor_pool`` does and
lifts its leaves, through the ancestry matrix, to integer path counts over
all nodes (an :class:`ActivationProfile`). ``raw_info_vector``,
``subset_information`` and ``marginal_gain_approx`` are the first-order
objective helpers that work on those counts, and ``from_contributions``
rebuilds an :class:`InfoState` from scratch. The pipeline runs none of
them; the tests use them to check the engine's sparse arithmetic against
the dense oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from record_pool import DEFAULT_MIN_SIMILARITY, _resolve_tags
from tagforest.io import EmbeddingTable, Instance
from tagforest.matrices import AncestryMatrix, PropagationMatrix, build_ancestry_matrix
from tagforest.objective import InfoState
from tagforest.tree import TagTree


@dataclass
class ActivationProfile:
    """Where one instance lands on the tree.

    ``leaf_ids`` is the sorted tuple of activated leaf node ids (binary
    activation: duplicates collapse). ``node_ids``/``node_counts`` are the
    support and integer values of the lifted path-count vector.
    ``matched`` maps each kept tag to its (leaf id, similarity); dropped
    tags fell below the threshold.
    """

    instance_id: str
    leaf_ids: tuple[int, ...]
    node_ids: np.ndarray
    node_counts: np.ndarray
    matched: dict[str, tuple[int, float]]
    dropped: tuple[str, ...]

    @property
    def unanchorable(self) -> bool:
        return not self.leaf_ids


def _profile_from_leaves(
    instance_id: str,
    kept: dict[str, tuple[int, float]],
    dropped: list[str],
    ancestry: AncestryMatrix,
    leaf_pos: dict[int, int],
) -> ActivationProfile:
    leaf_ids = tuple(sorted({leaf for leaf, _ in kept.values()}))
    if leaf_ids:
        h_leaf = np.zeros(ancestry.shape[1], dtype=np.int64)
        for leaf in leaf_ids:
            h_leaf[leaf_pos[leaf]] = 1
        counts = ancestry.tree_counts(h_leaf)
        support = np.nonzero(counts)[0].astype(np.int64)
        values = counts[support]
    else:
        support = np.zeros(0, dtype=np.int64)
        values = np.zeros(0, dtype=np.int64)
    return ActivationProfile(
        instance_id=instance_id,
        leaf_ids=leaf_ids,
        node_ids=support,
        node_counts=values,
        matched=kept,
        dropped=tuple(dropped),
    )


def anchor_instance(
    instance: Instance,
    tree: TagTree,
    embeddings: EmbeddingTable | None,
    min_similarity: float = DEFAULT_MIN_SIMILARITY,
    *,
    ancestry: AncestryMatrix | None = None,
) -> ActivationProfile:
    """Anchor a single instance and lift its leaves to path counts.

    Tags resolve exactly as in :func:`anchor_pool`. ``ancestry`` can be
    passed to reuse the matrix across calls.
    """
    if ancestry is None:
        ancestry = build_ancestry_matrix(tree)
    [(kept, dropped, _)] = _resolve_tags([instance], tree, embeddings, min_similarity)
    return _profile_from_leaves(instance.id, kept, dropped, ancestry, tree.leaf_pos)


def raw_info_vector(score: float, node_counts: np.ndarray) -> np.ndarray:
    """Per-node information contribution e = score * path counts."""
    if score < 0.0:
        raise ValueError(f"composite score must be >= 0, got {score}")
    return score * np.asarray(node_counts, dtype=np.float64)


def subset_information(profiles, scores, prop: PropagationMatrix, gamma: float) -> float:
    """I(D) for an explicit subset of activation profiles and scores.

    ``profiles`` supply node_ids/node_counts; phi(0) = 0 exactly, so only
    touched coordinates contribute and the empty subset scores 0.
    """
    if len(profiles) != len(scores):
        raise ValueError("profiles and scores must align")
    total_e = np.zeros(prop.shape[0], dtype=np.float64)
    for profile, score in zip(profiles, scores):
        np.add.at(total_e, profile.node_ids, score * profile.node_counts.astype(np.float64))
    v = prop.matvec(total_e)
    return float(np.sum(np.power(v, gamma)))


def marginal_gain_approx(gradient: np.ndarray, info_vec: np.ndarray) -> float:
    """First-order gain of a candidate: G . e_d (G already includes A)."""
    return float(np.dot(gradient, info_vec))


def from_contributions(
    prop: PropagationMatrix,
    info_vecs: list[np.ndarray],
    leaf_position_lists: list[np.ndarray],
    n_leaves: int,
) -> InfoState:
    """Rebuild a state from scratch (reference path for equivalence tests)."""
    n_nodes = prop.shape[0]
    total_e = np.zeros(n_nodes, dtype=np.float64)
    for vec in info_vecs:
        total_e += vec
    state = InfoState.empty(n_nodes, n_leaves)
    state.accumulated = prop.matvec(total_e)
    for positions in leaf_position_lists:
        state.leaf_counts[positions] += 1
        state.total_leaf_mass += int(len(positions))
    state.size = len(info_vecs)
    return state
