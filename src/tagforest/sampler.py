"""Greedy budget-constrained selection over a tag tree.

Each iteration refreshes the gradient of the information functional from
the current state, takes every remaining candidate's first-order gain
(minus a weighted KL alignment penalty in aligned mode), and picks the
argmax under a fixed total order: joint score descending, composite score
descending, instance id ascending. The run is aligned exactly when a target
leaf distribution is given, and general otherwise.

Set-up reads the anchored pool's columns (see
:class:`tagforest.anchoring.AnchoredPool`): one composite-score call over
the usable rows, a sort into the tie-break order, and the candidate x leaf
indicator matrix in CSR form, built from a node id -> leaf position lookup.

Iterations 1 and 2 score every candidate with one sparse matrix-vector
product. After that both modes run Minoux's accelerated ("lazy") greedy,
which is exact here. In aligned mode the joint is
gain_d - lambda * ((c - (H w)_d) + log(L + eps*L + t_d)), where c is the
same for every candidate and t_d is the candidate's leaf count, so among
candidates with one t_d the argmax is that of the key
gain_d + lambda * (H w)_d. The key never rises: phi is concave and the
accumulated mass only grows, so the gain can only fall, and w_j, the KL
drop of one more count on leaf j, falls as that count grows. Heaps hold
(last key, candidate position): one per distinct t_d in aligned mode, and
one in general mode, which is the lambda = 0 case. The tops whose bound
could still reach the best exact joint of the iteration are re-scored;
the best wins and the others go back with fresh keys. An iteration where
some node's mass lies strictly between 0 and GRADIENT_FLOOR, where phi'
is not monotone, scores every candidate instead. Everything runs on one
thread.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .anchoring import AnchoredPool, AnchoredRecord
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
    ``rescored`` the single-candidate re-scores of lazy iterations, in
    either mode. They describe the work done, not the result, so the
    trace file omits them.
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


def _candidate_setup(
    pool: AnchoredPool, tree: TagTree, alpha: float
) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
    """Rows of the usable candidates in tie-break order, their scores and leaves.

    Usable rows hold at least one leaf. The order is composite score
    descending, then id ascending, so a first-occurrence argmax (or the
    smallest position on a heap) picks the documented winner on exact
    joint ties: a stable sort by score after a sort by id gives it, as
    -0.0 == 0.0 in both. The candidate x leaf indicator matrix holds each
    row's distinct leaf positions, ascending.
    """
    counts = np.diff(pool.leaf_ptr)
    by_id = np.array(
        sorted(np.flatnonzero(counts).tolist(), key=pool.ids.__getitem__),
        dtype=np.int64,
    )
    scores = composite_score(pool.quality[by_id], pool.complexity[by_id], alpha)
    order = np.argsort(-scores, kind="stable")
    rows, s = by_id[order], scores[order]

    leaf_ids = tree.leaf_ids
    n, n_leaves = len(rows), len(leaf_ids)
    lookup = np.full(int(leaf_ids[-1]) + 1, -1, dtype=np.int64)
    lookup[leaf_ids] = np.arange(n_leaves)
    known = (pool.leaf_ids >= 0) & (pool.leaf_ids < len(lookup))
    pos = np.full(len(pool.leaf_ids), -1, dtype=np.int64)
    pos[known] = lookup[pool.leaf_ids[known]]
    if np.any(pos < 0):
        for row in rows.tolist():  # names the first offender in candidate order
            _distinct_leaves(pool[row], tree.leaf_pos)
    rank = np.empty(len(pool), dtype=np.int64)
    rank[rows] = np.arange(n)
    # every leaf belongs to a usable row; sorted keys ascend by rank, then
    # position, and as keys are >= 0 the -1 keeps the first of each run.
    # (np.unique gives the same, but hashes first and is far slower here.)
    keys = np.sort(np.repeat(rank, counts) * n_leaves + pos)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rank_of_key = keys // n_leaves
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rank_of_key, minlength=n), out=indptr[1:])
    indices = keys - rank_of_key * n_leaves
    h_matrix = sp.csr_matrix(
        (np.ones(len(indices), dtype=np.float64), indices, indptr),
        shape=(n, n_leaves),
    )
    return rows, s, h_matrix


# Rounding slack of a lazy bound, relative to the magnitudes it is built
# from. A float key or joint is off its real value, and a float key can
# rise between iterations, by a few ulps of those magnitudes; 1e-9 is far
# above that, and a larger slack only costs re-scores of near-ties.
_LAZY_SLACK = 1e-9


def _lazy_argmax(heaps, g, w, c, log_t, lam, row_start, row_leaves, s_of):
    """Exact argmax of the joint over the candidates held in ``heaps``.

    ``heaps[t]`` holds (-key, position) for the candidates whose leaf
    count has index t. A key from an earlier iteration bounds the joint
    now, since joint = key - lam * (c + log_t[t]) up to rounding. Tops are
    popped in order of that bound plus the slack and re-scored with the
    full-scoring arithmetic (row sums in csr_matvec order from 0.0, then
    kl = (c - H w) + log_t and joint = gain - lam * kl) while a bound
    reaches the best joint found; exact ties go to the smallest position,
    as np.argmax does. General mode passes ``w`` None, lam 0 and one heap.
    Re-scored candidates other than the winner go back with fresh keys: at
    once when their bound falls short of the best joint, at the end if not.
    Returns (position, gain, kl, joint, number re-scored).
    """
    up = 1.0 + _LAZY_SLACK
    lift = [
        _LAZY_SLACK * lam * (abs(c) + abs(lt) + 1.0) - lam * (c + lt) for lt in log_t
    ]
    best_joint = -math.inf
    idx = -1
    best_gain = best_kl = None
    held = []
    rescored = 0
    while True:
        top, reach = -1, -math.inf
        for group, heap in enumerate(heaps):
            if heap:
                bound = -heap[0][0] * up + lift[group]
                if bound > reach:
                    top, reach = group, bound
        if top < 0 or reach < best_joint:
            break
        p = heapq.heappop(heaps[top])[1]
        total = 0.0
        if w is None:
            for j in row_leaves[row_start[p] : row_start[p + 1]]:
                total += g[j]
            gain = joint = key = s_of[p] * total
            kl = None
        else:
            total_w = 0.0
            for j in row_leaves[row_start[p] : row_start[p + 1]]:
                total += g[j]
                total_w += w[j]
            gain = s_of[p] * total
            kl = (c - total_w) + log_t[top]
            joint = gain - lam * kl
            key = gain + lam * total_w
        rescored += 1
        if joint > best_joint or (joint == best_joint and p < idx):
            best_joint, idx, best_gain, best_kl = joint, p, gain, kl
        if p != idx and key * up + lift[top] < best_joint:
            # it cannot reach the best again, and neither can what lies below it
            heapq.heappush(heaps[top], (-key, p))
        else:
            held.append((top, key, p))
    for group, key, p in held:
        if p != idx:
            heapq.heappush(heaps[group], (-key, p))
    return idx, best_gain, best_kl, best_joint, rescored


def sample(
    records: Sequence[AnchoredRecord],
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

    ``records`` is used as it is when it is an :class:`AnchoredPool`, as
    :func:`load_anchored` returns it; any other sequence of records is
    converted to one first. The set-up works on the pool's columns, and
    records are rebuilt only for the picks.

    Iterations 1 and 2, and any iteration where some node's accumulated
    mass lies strictly between 0 and GRADIENT_FLOOR, score every
    candidate. The others are lazy: heaps (one per distinct leaf count in
    aligned mode, one in general mode) hold each unselected candidate's
    last key gain + kl_weight * (H w), which never rises, and tops are
    popped and re-scored while their bound could still reach the best
    exact joint of the iteration. Both paths give the same picks, gains,
    KL values and joints bit for bit.
    """
    obj = config.objective
    lam = obj.kl_weight
    aligned = target is not None
    if lam > 0.0 and not aligned:
        raise ValueError("kl_weight > 0 requires a target distribution")

    pool = records
    if not isinstance(pool, AnchoredPool):
        pool = AnchoredPool.from_records(records)

    ancestry = build_ancestry_matrix(tree)
    prop = build_propagation_matrix(tree)
    n_nodes, n_leaves = ancestry.shape
    to_leaves = ancestry.matrix.T

    cand, s, h_matrix = _candidate_setup(pool, tree, obj.alpha)
    indptr, indices = h_matrix.indptr, h_matrix.indices
    n = len(cand)
    budget = min(config.budget, n)

    if aligned:
        q_dense = target.dense(ancestry.leaf_ids)
        q_support = np.nonzero(q_dense > 0.0)[0]
        q_vals = q_dense[q_support]
        q_entropy_term = float(np.sum(q_vals * np.log(q_vals)))
        eps_total = obj.epsilon * n_leaves
        # candidates sharing a leaf count t share log(L + eps*L + t): one
        # lazy heap per distinct t, and log evaluated once per t
        t_values, t_group = np.unique(
            np.diff(indptr).astype(np.float64), return_inverse=True
        )
    else:
        c = 0.0
        t_group = np.zeros(n, dtype=np.int64)
        log_t = np.zeros(1, dtype=np.float64)

    state = InfoState.empty(n_nodes, n_leaves)
    selected = np.zeros(n, dtype=bool)
    picks: list[Pick] = []
    chosen: list[AnchoredRecord] = []
    # Lazy iterations: heaps[t] holds (-key, position) entries, built from
    # the keys of the last full scoring when first needed. The memoryviews
    # index to Python numbers, far cheaper than numpy scalars per row.
    heaps: list[list[tuple[float, int]]] | None = None
    row_start, row_leaves, s_of = memoryview(indptr), memoryview(indices), memoryview(s)
    full_rescores = rescored = 0

    for iteration in range(1, budget + 1):
        gradient = gradient_vector(state, prop, obj.gamma)
        g_leaf = np.asarray(to_leaves @ gradient)
        if aligned:
            # kl_d = (c - (H w)_d) + log_t: c is common to all candidates and
            # w_j, the KL drop of one more count on leaf j, falls as it grows
            counts_supp = state.leaf_counts[q_support].astype(np.float64)
            base = float(np.sum(q_vals * np.log(counts_supp + obj.epsilon)))
            w_vec = np.zeros(n_leaves, dtype=np.float64)
            w_vec[q_support] = q_vals * (
                np.log(counts_supp + 1.0 + obj.epsilon)
                - np.log(counts_supp + obj.epsilon)
            )
            c = q_entropy_term - base
            log_t = np.log((float(state.total_leaf_mass) + eps_total) + t_values)
        acc = state.accumulated
        # phi' falls as mass grows, so gains never rise after iteration 2,
        # except where a node leaves 0 for a value under the floor.
        if iteration <= 2 or np.any((acc > 0.0) & (acc < GRADIENT_FLOOR)):
            full_rescores += 1
            heaps = None
            gains = s * (h_matrix @ g_leaf)
            if aligned:
                hw = h_matrix @ w_vec
                kl = (c - hw) + log_t[t_group]
                joint = gains - lam * kl
                keys = gains + lam * hw
            else:
                hw = kl = None
                joint = keys = gains
            joint = np.where(selected, -np.inf, joint)
            idx = int(np.argmax(joint))  # ties: first occurrence in candidate order
            gain = float(gains[idx])
            pick_kl = None if kl is None else float(kl[idx])
            pick_joint = float(joint[idx])
            del gains, hw, kl, joint  # only keys outlives a full scoring
        else:
            if heaps is None:  # keys still holds the last full scoring's
                free = np.flatnonzero(~selected)
                heaps = [[] for _ in range(len(log_t))]
                for group, neg_key, p in zip(
                    t_group[free].tolist(), (-keys[free]).tolist(), free.tolist()
                ):
                    heaps[group].append((neg_key, p))
                for heap in heaps:
                    heapq.heapify(heap)
                del keys, free
            idx, gain, pick_kl, pick_joint, n_rescored = _lazy_argmax(
                heaps,
                memoryview(g_leaf),
                memoryview(w_vec) if aligned else None,
                c,
                log_t.tolist(),
                lam,
                row_start,
                row_leaves,
                s_of,
            )
            rescored += n_rescored
        if not math.isfinite(pick_joint):
            break

        selected[idx] = True
        record = pool[int(cand[idx])]
        chosen.append(record)
        picks.append(
            Pick(
                iteration=iteration,
                instance_id=record.id,
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
        pool_size=len(pool),
        unanchorable=len(pool) - n,
        mode="aligned" if aligned else "general",
        full_rescores=full_rescores,
        rescored=rescored,
    )
    return chosen, trace


def derive_target(records: Sequence[AnchoredRecord], tree: TagTree) -> TargetDistribution:
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
