"""Greedy budget-constrained selection over a tag tree.

Each iteration refreshes the gradient of the information functional from
the current state, takes every remaining candidate's first-order gain
(minus a weighted KL alignment penalty in aligned mode), and picks the
argmax under a fixed total order: joint score descending, composite score
descending, instance id ascending. The run is aligned exactly when a target
leaf distribution is given, and general otherwise.

Aligned mode scores every candidate with one sparse matrix-vector product
per iteration. General mode does that at iterations 1 and 2 only; after
that it runs Minoux's accelerated ("lazy") greedy, which is exact here:
phi is concave and the accumulated mass only grows, so a candidate's gain
can only fall. A heap keyed on (last gain, candidate position) is re-scored
at the top until the top entry is fresh, and that entry is the argmax. An
iteration where some node's mass lies strictly between 0 and
GRADIENT_FLOOR, where phi' is not monotone, scores every candidate
instead. Everything runs on one thread.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .anchoring import AnchoredRecord
from .io import Instance, TargetDistribution, dumps_canonical
from .matrices import build_ancestry_matrix, build_propagation_matrix
from .objective import (
    GRADIENT_FLOOR,
    InfoState,
    ObjectiveConfig,
    composite_score,
    gradient_vector,
    kl_penalty,
    state_information,
)
from .tree import TagTree

__all__ = [
    "SamplerConfig",
    "Pick",
    "SelectionTrace",
    "sample",
    "derive_target",
    "export_subset",
    "write_trace",
]


@dataclass
class SamplerConfig:
    """How much to select and under which objective.

    The mode is not set here: :func:`sample` runs aligned (gain minus
    kl_weight * KL against a target) exactly when it is given a target,
    and kl_weight > 0 without one is an error. ``workers`` is validated and
    recorded but does not change how scoring runs: it is single-threaded,
    so output is the same for any worker count.
    """

    budget: int
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    workers: int = 1

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class Pick:
    """One selection step: enough to replay the argmax decision."""

    iteration: int
    instance_id: str
    gain: float
    kl: float | None
    joint: float


@dataclass
class SelectionTrace:
    """Pick-by-pick record of a run plus final objective values.

    ``full_rescores`` counts iterations that scored every candidate and
    ``rescored`` the single-candidate re-scores of lazy iterations. They
    describe the work done, not the result, so the trace file omits them.
    """

    picks: list[Pick]
    final_information: float
    final_kl: float | None
    budget_requested: int
    pool_size: int
    unanchorable: int
    mode: str
    full_rescores: int = 0
    rescored: int = 0


def _distinct_leaves(record: AnchoredRecord, leaf_pos: dict[int, int]) -> set[int]:
    """A record's leaf ids without duplicates; each must be a tree leaf."""
    leaves = set(record.leaves)
    for leaf in leaves:
        if leaf not in leaf_pos:
            raise ValueError(f"record '{record.id}' references non-leaf node {leaf}")
    return leaves


def _rank_candidates(
    usable: list[AnchoredRecord], alpha: float
) -> tuple[list[AnchoredRecord], np.ndarray]:
    """Candidates in tie-break order plus their composite scores.

    The order is composite score descending, then id ascending, so a
    first-occurrence argmax (or the smallest position on a heap) picks
    the documented winner on exact joint ties.
    """
    scores = composite_score(
        np.array([r.quality for r in usable], dtype=np.float64),
        np.array([r.complexity for r in usable], dtype=np.float64),
        alpha,
    )
    by_rec = scores.tolist()
    order = sorted(range(len(usable)), key=lambda i: (-by_rec[i], usable[i].id))
    return [usable[i] for i in order], scores[order]


def _leaf_matrix(
    cand: list[AnchoredRecord], leaf_pos: dict[int, int], n_leaves: int
) -> sp.csr_matrix:
    """Candidate x leaf indicator matrix; each row's positions ascend."""
    indptr = array("q", [0])
    indices = array("q")
    for record in cand:
        leaves = _distinct_leaves(record, leaf_pos)
        indices.extend(sorted(leaf_pos[leaf] for leaf in leaves))
        indptr.append(len(indices))
    return sp.csr_matrix(
        (
            np.ones(len(indices), dtype=np.float64),
            np.frombuffer(indices, dtype=np.int64),
            np.frombuffer(indptr, dtype=np.int64),
        ),
        shape=(len(cand), n_leaves),
    )


def sample(
    records: list[AnchoredRecord],
    tree: TagTree,
    config: SamplerConfig,
    target: TargetDistribution | None = None,
) -> tuple[list[AnchoredRecord], SelectionTrace]:
    """Select up to ``config.budget`` records greedily.

    A ``target`` makes the run aligned; without one it is general, and a
    positive ``kl_weight`` raises. Unanchorable records (no leaves) are
    excluded up front and counted in the trace. A budget larger than the
    usable pool selects everything. Returns the picked records in pick
    order plus the full trace.

    Aligned mode, and general mode at iterations 1 and 2 or while some
    node's accumulated mass lies strictly between 0 and GRADIENT_FLOOR,
    score every candidate. Other general-mode iterations are lazy: a heap
    holds each unselected candidate's last gain, an upper bound on its
    gain now, and only the top is re-scored until it is fresh. Both paths
    give the same picks, gains and joints bit for bit.
    """
    obj = config.objective
    aligned = target is not None
    if obj.kl_weight > 0.0 and not aligned:
        raise ValueError("kl_weight > 0 requires a target distribution")

    usable = [r for r in records if r.leaves]
    n_unanchorable = len(records) - len(usable)
    budget = min(config.budget, len(usable))

    ancestry = build_ancestry_matrix(tree)
    prop = build_propagation_matrix(tree)
    n_nodes, n_leaves = ancestry.shape
    to_leaves = ancestry.matrix.T

    cand, s = _rank_candidates(usable, obj.alpha)
    h_matrix = _leaf_matrix(cand, tree.leaf_pos, n_leaves)
    indptr, indices = h_matrix.indptr, h_matrix.indices
    t_d = np.diff(indptr).astype(np.float64)
    n = len(cand)

    if aligned:
        q_dense = target.dense(ancestry.leaf_ids)
        q_support = np.nonzero(q_dense > 0.0)[0]
        q_vals = q_dense[q_support]
        q_entropy_term = float(np.sum(q_vals * np.log(q_vals)))
        eps_total = obj.epsilon * n_leaves

    state = InfoState.empty(n_nodes, n_leaves)
    selected = np.zeros(n, dtype=bool)
    picks: list[Pick] = []
    chosen: list[AnchoredRecord] = []
    # Lazy general mode: (-gain, position) entries, built from the gains of
    # the last full scoring when first needed; scored_at[p] is the
    # iteration at which p's entry was last re-scored. The memoryviews
    # index to Python numbers, far cheaper than numpy scalars per row.
    heap: list[tuple[float, int]] | None = None
    scored_at = [0] * n
    row_start, row_leaves, s_of = memoryview(indptr), memoryview(indices), memoryview(s)
    full_rescores = rescored = 0

    for iteration in range(1, budget + 1):
        gradient = gradient_vector(state, prop, obj.gamma)
        g_leaf = np.asarray(to_leaves @ gradient)
        acc = state.accumulated
        # phi' falls as mass grows, so gains never rise after iteration 2,
        # except where a node leaves 0 for a value under the floor.
        if aligned or iteration <= 2 or np.any((acc > 0.0) & (acc < GRADIENT_FLOOR)):
            full_rescores += 1
            heap = None
            gains = s * (h_matrix @ g_leaf)
            if aligned:
                counts_supp = state.leaf_counts[q_support].astype(np.float64)
                base = float(np.sum(q_vals * np.log(counts_supp + obj.epsilon)))
                w_vec = np.zeros(n_leaves, dtype=np.float64)
                w_vec[q_support] = q_vals * (
                    np.log(counts_supp + 1.0 + obj.epsilon)
                    - np.log(counts_supp + obj.epsilon)
                )
                log_args = float(state.total_leaf_mass) + eps_total
                kl = (
                    q_entropy_term
                    - base
                    - (h_matrix @ w_vec)
                    + np.log(log_args + t_d)
                )
                joint = gains - obj.kl_weight * kl
            else:
                kl = None
                joint = gains
            joint = np.where(selected, -np.inf, joint)
            idx = int(np.argmax(joint))  # ties: first occurrence in candidate order
            gain = float(gains[idx])
            pick_kl = None if kl is None else float(kl[idx])
            pick_joint = float(joint[idx])
        else:
            if heap is None:  # gains still holds the last full scoring
                free = np.flatnonzero(~selected)
                heap = list(zip((-gains[free]).tolist(), free.tolist()))
                heapq.heapify(heap)
            g = g_leaf.tolist()
            while scored_at[heap[0][1]] != iteration:
                p = heap[0][1]
                # csr_matvec's order and start value, so gains match bitwise
                total = 0.0
                for j in row_leaves[row_start[p] : row_start[p + 1]]:
                    total += g[j]
                heapq.heapreplace(heap, (-(s_of[p] * total), p))
                scored_at[p] = iteration
                rescored += 1
            neg_gain, idx = heapq.heappop(heap)
            gain = pick_joint = -neg_gain
            pick_kl = None
        if not math.isfinite(pick_joint):
            break

        selected[idx] = True
        chosen.append(cand[idx])
        picks.append(
            Pick(
                iteration=iteration,
                instance_id=cand[idx].id,
                gain=gain,
                kl=pick_kl,
                joint=pick_joint,
            )
        )

        positions = indices[indptr[idx] : indptr[idx + 1]]
        leaf_vec = np.zeros(n_leaves, dtype=np.float64)
        leaf_vec[positions] = 1.0
        info_vec = s[idx] * np.asarray(ancestry.matrix @ leaf_vec)
        state.add_contribution(prop, info_vec, positions)

    final_info = state_information(state, obj.gamma)
    final_kl = (
        kl_penalty(q_dense, state, np.zeros(0, dtype=np.int64), obj.epsilon)
        if aligned
        else None
    )
    trace = SelectionTrace(
        picks=picks,
        final_information=final_info,
        final_kl=final_kl,
        budget_requested=config.budget,
        pool_size=len(records),
        unanchorable=n_unanchorable,
        mode="aligned" if aligned else "general",
        full_rescores=full_rescores,
        rescored=rescored,
    )
    return chosen, trace


def derive_target(records: list[AnchoredRecord], tree: TagTree) -> TargetDistribution:
    """Empirical leaf distribution of a reference set: counts, normalized."""
    counts: dict[int, int] = {}
    total = 0
    for record in records:
        for leaf in _distinct_leaves(record, tree.leaf_pos):
            counts[leaf] = counts.get(leaf, 0) + 1
            total += 1
    if total == 0:
        raise ValueError("reference set has no anchored leaves")
    return TargetDistribution(
        weights={leaf: c / total for leaf, c in sorted(counts.items())}
    )


def export_subset(
    selected: list[AnchoredRecord],
    trace: SelectionTrace,
    pool: list[Instance] | None,
    path,
) -> None:
    """Write selected rows in pick order.

    With ``pool`` given, rows carry the original instance fields (so
    re-loading the file yields identical instances) plus the pick's
    annotations; without it, rows echo the anchored fields. Per-pick KL
    values live in the trace file only, keeping this file identical
    between general mode and aligned mode at kl_weight 0.
    """
    if len(selected) != len(trace.picks):
        raise ValueError("selected records and trace picks must align")
    by_id = {inst.id: inst for inst in pool} if pool is not None else None
    with open(path, "w", encoding="utf-8") as f:
        for record, pick in zip(selected, trace.picks):
            if record.id != pick.instance_id:
                raise ValueError("selected order does not match trace order")
            if by_id is not None:
                inst = by_id.get(record.id)
                if inst is None:
                    raise ValueError(f"id '{record.id}' missing from original pool")
                row = {
                    "id": inst.id,
                    "query": inst.query,
                    "response": inst.response,
                    "tags": list(inst.tags),
                    "quality": inst.quality,
                    "complexity": inst.complexity,
                }
            else:
                row = {
                    "id": record.id,
                    "quality": record.quality,
                    "complexity": record.complexity,
                }
            row["leaves"] = list(record.leaves)
            row["iteration"] = pick.iteration
            row["gain"] = pick.gain
            row["joint"] = pick.joint
            f.write(dumps_canonical(row))
            f.write("\n")


def write_trace(trace: SelectionTrace, path) -> None:
    """Write the full trace, including per-pick KL values when present."""
    payload = {
        "mode": trace.mode,
        "budget_requested": trace.budget_requested,
        "pool_size": trace.pool_size,
        "unanchorable": trace.unanchorable,
        "selected": len(trace.picks),
        "final_information": trace.final_information,
        "final_kl": trace.final_kl,
        "picks": [
            {
                "iteration": p.iteration,
                "id": p.instance_id,
                "gain": p.gain,
                "kl": p.kl,
                "joint": p.joint,
            }
            for p in trace.picks
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_canonical(payload))
        f.write("\n")
