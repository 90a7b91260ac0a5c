"""Greedy budget-constrained selection over a tag tree.

Each iteration refreshes the gradient of the information functional from
the current state, scores every remaining candidate with its first-order
gain (minus a weighted KL alignment penalty in aligned mode), and picks
the argmax under a fixed total order: joint score descending, composite
score descending, instance id ascending. Scoring is one sparse
matrix-vector product over all candidates per iteration, on one thread.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .anchoring import AnchoredRecord
from .io import Instance, TargetDistribution, dumps_canonical
from .matrices import build_ancestry_matrix, build_propagation_matrix
from .objective import (
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

    ``mode`` is "general" (pure information gain) or "aligned" (gain minus
    kl_weight * KL against a target); aligned mode requires a target and
    general mode requires kl_weight == 0. ``workers`` is validated and
    recorded but does not change how scoring runs: it is single-threaded,
    so output is the same for any worker count.
    """

    budget: int
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    mode: str = "general"
    workers: int = 1

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.mode not in ("general", "aligned"):
            raise ValueError(f"mode must be 'general' or 'aligned', got {self.mode!r}")
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
    """Pick-by-pick record of a run plus final objective values."""

    picks: list[Pick]
    final_information: float
    final_kl: float | None
    budget_requested: int
    pool_size: int
    unanchorable: int
    mode: str


def _distinct_leaves(record: AnchoredRecord, leaf_pos: dict[int, int]) -> set[int]:
    """A record's leaf ids without duplicates; each must be a tree leaf."""
    leaves = set(record.leaves)
    for leaf in leaves:
        if leaf not in leaf_pos:
            raise ValueError(f"record '{record.id}' references non-leaf node {leaf}")
    return leaves


def sample(
    records: list[AnchoredRecord],
    tree: TagTree,
    config: SamplerConfig,
    target: TargetDistribution | None = None,
) -> tuple[list[AnchoredRecord], SelectionTrace]:
    """Select up to ``config.budget`` records greedily.

    Unanchorable records (no leaves) are excluded up front and counted in
    the trace. A budget larger than the usable pool selects everything.
    Returns the picked records in pick order plus the full trace.
    """
    obj = config.objective
    if config.mode == "aligned":
        if target is None:
            raise ValueError("aligned mode requires a target distribution")
    else:
        if obj.kl_weight != 0.0:
            raise ValueError("kl_weight > 0 requires aligned mode and a target")
        if target is not None:
            raise ValueError("target provided but mode is 'general'")

    usable = [r for r in records if r.leaves]
    n_unanchorable = len(records) - len(usable)
    budget = min(config.budget, len(usable))

    ancestry = build_ancestry_matrix(tree)
    prop = build_propagation_matrix(tree)
    n_nodes, n_leaves = ancestry.shape
    leaf_pos = tree.leaf_pos

    # Fixed candidate order realizes the documented tie-break: composite
    # score descending, then id ascending. First-occurrence argmax over
    # arrays in this order picks the right winner on exact joint ties.
    scores_by_rec = composite_score(
        np.array([r.quality for r in usable], dtype=np.float64),
        np.array([r.complexity for r in usable], dtype=np.float64),
        obj.alpha,
    ).tolist()
    order = sorted(
        range(len(usable)), key=lambda i: (-scores_by_rec[i], usable[i].id)
    )
    cand = [usable[i] for i in order]
    s = np.array([scores_by_rec[i] for i in order], dtype=np.float64)
    ids = [r.id for r in cand]
    leaf_lists = [
        np.array(
            sorted(leaf_pos[leaf] for leaf in _distinct_leaves(r, leaf_pos)),
            dtype=np.int64,
        )
        for r in cand
    ]

    n = len(cand)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, ll in enumerate(leaf_lists):
        indptr[i + 1] = indptr[i] + len(ll)
    indices = (
        np.concatenate(leaf_lists) if n else np.zeros(0, dtype=np.int64)
    )
    h_matrix = sp.csr_matrix(
        (np.ones(len(indices), dtype=np.float64), indices, indptr),
        shape=(n, n_leaves),
    )
    t_d = np.diff(indptr).astype(np.float64)

    q_dense = target.dense(ancestry.leaf_ids) if target is not None else None
    aligned = config.mode == "aligned"
    if aligned:
        q_support = np.nonzero(q_dense > 0.0)[0]
        q_vals = q_dense[q_support]
        q_entropy_term = float(np.sum(q_vals * np.log(q_vals)))
        eps_total = obj.epsilon * n_leaves

    state = InfoState.empty(n_nodes, n_leaves)
    selected = np.zeros(n, dtype=bool)
    picks: list[Pick] = []
    chosen: list[AnchoredRecord] = []

    for iteration in range(1, budget + 1):
        gradient = gradient_vector(state, prop, obj.gamma)
        g_leaf = np.asarray(ancestry.matrix.T @ gradient)
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
        if not np.isfinite(joint[idx]):
            break

        selected[idx] = True
        chosen.append(cand[idx])
        picks.append(
            Pick(
                iteration=iteration,
                instance_id=ids[idx],
                gain=float(gains[idx]),
                kl=None if kl is None else float(kl[idx]),
                joint=float(joint[idx]),
            )
        )

        leaf_vec = np.zeros(n_leaves, dtype=np.float64)
        leaf_vec[leaf_lists[idx]] = 1.0
        info_vec = s[idx] * np.asarray(ancestry.matrix @ leaf_vec)
        state.add_contribution(prop, info_vec, leaf_lists[idx])

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
        mode=config.mode,
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
