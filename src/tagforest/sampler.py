"""Greedy budget-constrained selection over a tag tree.

Each iteration refreshes the gradient of the information functional from
the current state, takes every remaining candidate's first-order gain
(minus a weighted KL alignment penalty in aligned mode), and picks the
argmax under a fixed total order: joint score descending, composite score
descending, instance id ascending. The run is aligned exactly when a target
leaf distribution is given, and general otherwise.

Set-up reads the anchored pool's columns (see
:class:`tagforest.anchoring.AnchoredPool`): one composite-score call over
the usable rows, a stable numpy sort by that score into the tie-break
order (ids are compared only inside runs of equal score), and each
candidate's distinct leaf positions in CSR form, built from a node id ->
leaf position lookup.

Both modes run Minoux's accelerated ("lazy") greedy, which is exact here.
In aligned mode the joint is
gain_d - lambda * ((c - (H w)_d) + log(L + eps*L + t_d)), where c is the
same for every candidate and t_d is the candidate's leaf count, so among
candidates with one t_d the argmax is that of the key
gain_d + lambda * (H w)_d. The key never rises: phi is concave and the
accumulated mass only grows, so the gain can only fall, and w_j, the KL
drop of one more count on leaf j, falls as that count grows. General mode
is the lambda = 0 case. Each candidate's last key is kept in one array,
grouped by leaf count and cut into blocks of _BLOCK candidates, next to
the maximum of each block. An iteration visits the blocks whose bound
could still reach the best exact joint found, highest bound first, and
re-scores with numpy those of a block's candidates whose own bound
reaches it. Where no earlier key bounds the joint, every unpicked key is
marked stale (+inf) first, so the same argmax re-scores every candidate:
at iterations 1 and 2, and wherever some node's mass lies strictly between
0 and GRADIENT_FLOOR, where phi' is not monotone. Everything runs on one
thread.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .anchoring import AnchoredPool, AnchoredRecord, _first_in_runs
from .io import Instance, InstancePool, TargetDistribution, dumps_canonical
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

    ``full_rescores`` counts iterations that began with every key stale,
    so that they re-scored every candidate; ``rescored`` counts the
    candidates re-scored in the other iterations and ``blocks_visited``
    the blocks those re-scores came from, in either mode. They describe
    the work done, not the result, so the trace file omits them.
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
    blocks_visited: int = 0


def _leaf_counts(rows, tree: TagTree) -> np.ndarray:
    """Per leaf column, the number of rows holding that leaf (int64).

    ``rows`` are ``(id, leaf ids)`` pairs, or ``(line number, leaf ids)`` for
    a row without an id; a leaf repeated within a row counts once. The
    first row holding a non-leaf raises ``ValueError`` naming it (the first
    in ``set`` order within the row).
    """
    leaf_pos = tree.leaf_pos
    counts = [0] * len(leaf_pos)
    for rid, leaves in rows:
        for leaf in set(leaves):
            j = leaf_pos.get(leaf)
            if j is None:
                row = f"record on line {rid}" if type(rid) is int else f"record '{rid}'"
                raise ValueError(f"{row} references non-leaf node {leaf}")
            counts[j] += 1
    return np.array(counts, dtype=np.int64)


def _candidate_setup(
    pool: AnchoredPool, tree: TagTree, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the usable candidates in tie-break order, their scores and leaves.

    Usable rows hold at least one leaf. The order is composite score
    descending, then id ascending, so a first-occurrence argmax (or the
    smallest position among lazy re-scores) picks the documented winner on
    exact joint ties: a stable numpy sort by score (-0.0 == 0.0) and then,
    inside each run of equal scores, a sort by id, so ids are compared only
    where scores tie. The leaves are the index arrays ``indptr`` and
    ``indices`` of the candidate x leaf indicator matrix in CSR form: each
    row's distinct leaf positions, ascending.
    """
    counts = np.diff(pool.leaf_ptr)
    usable = np.flatnonzero(counts)
    scores = composite_score(pool.quality[usable], pool.complexity[usable], alpha)
    order = np.argsort(-scores, kind="stable")
    starts = np.flatnonzero(_first_in_runs(scores[order]))  # runs of equal score
    stops = np.append(starts[1:], len(order))
    tied = stops - starts > 1
    for lo, hi in zip(starts[tied].tolist(), stops[tied].tolist()):
        order[lo:hi] = sorted(order[lo:hi].tolist(), key=lambda k: pool.ids[usable.item(k)])
    rows, s = usable[order], scores[order]
    del usable, scores, order  # freed before the larger leaf-length arrays below

    leaf_ids = tree.leaf_ids
    n, n_leaves = len(rows), len(leaf_ids)
    # node id -> leaf position; the last entry, -1, is every other id's
    lookup = np.full(int(leaf_ids[-1]) + 2, -1, dtype=np.int64)
    lookup[leaf_ids] = np.arange(n_leaves)
    pos = lookup[np.clip(pool.leaf_ids, -1, len(lookup) - 1)]
    if np.any(pos < 0):  # names the first offender in candidate order
        _leaf_counts(((pool.ids[row], pool[row].leaves) for row in rows.tolist()), tree)
    rank = np.empty(len(pool), dtype=np.int64)
    rank[rows] = np.arange(n)
    # every leaf belongs to a usable row; sorted keys ascend by rank, then
    # position, and the first of each run is kept. (np.unique gives the
    # same, but hashes first and is far slower here.) The keys are built
    # and sorted in place, so one array of them is alive at a time.
    keys = np.repeat(rank, counts)
    del rank, counts
    keys *= n_leaves
    keys += pos
    del pos
    keys.sort()
    keys = keys[_first_in_runs(keys)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n_leaves, minlength=n), out=indptr[1:])
    keys %= n_leaves  # each key's leaf position
    return rows, s, indptr, keys


# Rounding slack of a lazy bound, relative to the magnitudes it is built
# from. A float key or joint is off its real value, and a float key can
# rise between iterations, by a few ulps of those magnitudes; 1e-9 is far
# above that, and a larger slack only costs re-scores of near-ties.
_LAZY_SLACK = 1e-9

# Candidates per block of the lazy argmax. A visit re-scores a block with a
# fixed number of numpy calls, so larger blocks pay less per visit but
# re-score more candidates that could not have won.
_BLOCK = 512

# The lowest finite float: every unpicked candidate's bound reaches it, and
# a picked candidate's key, -inf, does not.
_LOWEST = -sys.float_info.max


class _BlockMaxima:
    """Last keys of the unpicked candidates, in blocks that share a leaf count.

    Candidate positions are grouped by leaf count t, ascending, and the
    distinct counts are ``t_values``; positions ascend within a group, and
    each group is cut into blocks of up to _BLOCK positions. A block keeps
    views of its candidates' positions, scores, keys and leaf positions;
    the leaves form a dense (rows x t) matrix, each row in CSR order.
    ``bmax`` holds each block's largest key. A picked candidate's key is
    -inf; every other key starts stale, at +inf.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, s: np.ndarray):
        counts = np.diff(indptr)
        perm = np.argsort(counts, kind="stable")
        t_sorted = counts[perm]
        s_sorted = s[perm]
        self.keys = np.full(len(perm), np.inf)
        self.blocks = []
        groups = []
        edges = np.flatnonzero(np.diff(t_sorted, prepend=-1)).tolist() + [len(perm)]
        self.t_values = t_sorted[edges[:-1]].astype(np.float64)
        for group, (g0, g1) in enumerate(zip(edges, edges[1:])):
            t = int(t_sorted[g0])
            leaves = indices[indptr[perm[g0:g1]][:, None] + np.arange(t)]
            for lo in range(g0, g1, _BLOCK):
                hi = min(lo + _BLOCK, g1)
                groups.append(group)
                self.blocks.append((
                    perm[lo:hi], s_sorted[lo:hi], self.keys[lo:hi],
                    leaves[lo - g0 : hi - g0], group, t,
                ))
        self.group = np.array(groups, dtype=np.int64)
        self.bmax = np.full(len(groups), np.inf)
        self.no_lift = np.zeros(len(edges) - 1, dtype=np.float64)

    def stale(self) -> None:
        """Mark every unpicked key, and every block holding one, stale (+inf)."""
        self.keys[self.keys != -np.inf] = np.inf
        self.bmax[self.bmax != -np.inf] = np.inf

    def argmax(self, g, w=None, c=0.0, log_t=None, lam=0.0):
        """Exact argmax of the joint over the unpicked candidates.

        A key from an earlier iteration bounds the joint now, since
        joint = key - lam * (c + log_t[t]) up to rounding; a stale key is
        +inf and bounds anything. Blocks are visited in order of their
        bound (largest key plus the slack) while it reaches the best joint
        found. A visit re-scores the block's candidates whose own bound
        reaches it: leaf columns summed onto 0.0 in CSR order, as
        csr_matvec adds them, then kl = (c - H w) + log_t and
        joint = gain - lam * kl. Exact ties go to the smallest position, as
        np.argmax does. General mode passes ``w`` None and lam 0. The
        winner's key becomes -inf, and the visited blocks' maxima are
        recomputed. Returns (position, gain, kl, joint, number re-scored,
        blocks visited); the joint is NaN where a bound is not finite, and
        -inf where no joint is above -inf, with no winner.
        """
        up = 1.0 + _LAZY_SLACK
        if w is None:
            lift = self.no_lift
        else:
            lift = _LAZY_SLACK * lam * (abs(c) + np.abs(log_t) + 1.0) - lam * (c + log_t)
            if not np.isfinite(lift).all():
                return -1, math.nan, None, math.nan, 0, 0
        bounds = self.bmax * up + lift[self.group]
        lift = lift.tolist()
        best_joint = -math.inf
        best_pos = -1
        best_gain = best_kl = winner = None
        visited = []
        rescored = 0
        while True:
            b = int(bounds.argmax())
            reach = max(best_joint, _LOWEST)
            if bounds.item(b) < reach:
                break
            bounds[b] = -math.inf
            visited.append(b)
            perm, s, keys, leaves, group, t = self.blocks[b]
            live = (keys * up + lift[group] >= reach).nonzero()[0]
            cols = leaves[live]
            vals = g[cols]
            total = 0.0 + vals[:, 0]
            for k in range(1, t):
                total += vals[:, k]
            gain = s[live] * total
            if w is None:
                kl = None
                joint = key = gain
            else:
                vals = w[cols]
                total_w = 0.0 + vals[:, 0]
                for k in range(1, t):
                    total_w += vals[:, k]
                kl = (c - total_w) + log_t[group]
                joint = gain - lam * kl
                key = gain + lam * total_w
            keys[live] = key
            rescored += len(live)
            j = int(joint.argmax())  # ties: the smallest position in the block
            p, top = perm.item(live.item(j)), joint.item(j)
            if top > best_joint or (top == best_joint and p < best_pos):
                best_joint, best_pos = top, p
                best_gain = gain.item(j)
                best_kl = None if kl is None else kl.item(j)
                winner = (keys, live.item(j))
        if winner is not None:
            winner[0][winner[1]] = -math.inf
        for b in visited:
            self.bmax[b] = self.blocks[b][2].max()
        return best_pos, best_gain, best_kl, best_joint, rescored, len(visited)


class _KLTerms:
    """The aligned-mode terms that follow the leaf counts n, over the target's support.

    On the support S of the target q, ``terms[k]`` is q_j log(n_j + eps)
    for the k-th leaf j of S, and ``w[j]`` is
    q_j (log(n_j + 1 + eps) - log(n_j + eps)), the KL drop of one more
    count on leaf j, or 0 off S. A pick changes the counts of its own
    leaves only, so :meth:`refresh` recomputes those entries only; every
    entry holds the bits the whole-support formula gives it, and ``base``
    sums the same array that formula sums.
    """

    def __init__(self, q_dense: np.ndarray, counts: np.ndarray, epsilon: float):
        self.support = np.flatnonzero(q_dense > 0.0)
        self.q = q_dense[self.support]
        self.epsilon = epsilon
        self.slot = np.full(len(q_dense), -1, dtype=np.int64)  # leaf -> k, or -1
        self.slot[self.support] = np.arange(len(self.support))
        self.terms = np.empty(len(self.support), dtype=np.float64)
        self.w = np.zeros(len(q_dense), dtype=np.float64)
        self._set(np.arange(len(self.support)), counts)

    def _set(self, k: np.ndarray, counts: np.ndarray) -> None:
        leaves = self.support[k]
        n = counts[leaves].astype(np.float64)
        log_n = np.log(n + self.epsilon)
        self.terms[k] = self.q[k] * log_n
        self.w[leaves] = self.q[k] * (np.log(n + 1.0 + self.epsilon) - log_n)

    def refresh(self, counts: np.ndarray, leaves: np.ndarray) -> None:
        """Recompute the entries of ``leaves`` (leaf positions) from ``counts``."""
        k = self.slot[leaves]
        self._set(k[k >= 0], counts)

    @property
    def base(self) -> float:
        """sum over S of q_j log(n_j + eps)."""
        return float(np.sum(self.terms))


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
    converted to one first. The set-up works on the pool's columns, the
    loop keeps each pick as its pool row, and the picked records are
    built once, after the loop, from those rows only.

    Both operators are built from the tree by the public builders, as numpy
    index arrays (:mod:`tagforest.matrices`).
    Per pick, the leaf gradient sums the node gradient along each leaf's
    path, and the pick's information vector is its exact path counts times
    its score; :meth:`InfoState.add_contribution` runs over the pick's
    paths and their neighbors only. Every sum adds the terms scipy's
    sparse kernels add, in their order. A budget of 0 builds no block
    maxima.
    Every iteration runs one lazy argmax: each unselected candidate's last
    key gain + kl_weight * (H w), which never rises, is kept in blocks of
    one leaf count with their maxima, and the blocks whose bound could
    still reach the best exact joint of the iteration are re-scored.
    Iterations 1 and 2, and any iteration where some node's accumulated
    mass lies strictly between 0 and GRADIENT_FLOOR, first mark every key
    stale, so they re-score every candidate. An iteration whose bounds or
    best joint are not finite, as a huge ``kl_weight`` makes them, raises
    ``ValueError``.
    """
    obj = config.objective
    lam = obj.kl_weight
    aligned = target is not None
    if lam > 0.0 and not aligned:
        raise ValueError("kl_weight > 0 requires a target distribution")

    pool = AnchoredPool.from_records(records)

    ancestry = build_ancestry_matrix(tree)
    prop = build_propagation_matrix(tree)
    n_nodes, n_leaves = ancestry.shape

    cand, s, indptr, indices = _candidate_setup(pool, tree, obj.alpha)
    n = len(cand)
    budget = min(config.budget, n)
    if budget:
        blocks = _BlockMaxima(indptr, indices, s)

    state = InfoState.empty(n_nodes, n_leaves)
    if aligned:
        q_dense = target.dense(ancestry.leaf_ids)
        kl_terms = _KLTerms(q_dense, state.leaf_counts, obj.epsilon)
        q_entropy_term = float(np.sum(kl_terms.q * np.log(kl_terms.q)))
        eps_total = obj.epsilon * n_leaves

    picks: list[Pick] = []
    picked_rows: list[int] = []
    full_rescores = rescored = blocks_visited = 0

    for iteration in range(1, budget + 1):
        gradient = gradient_vector(state, prop, obj.gamma)
        g_leaf = ancestry.leaf_sums(gradient)
        acc = state.accumulated
        # phi' falls as mass grows, so gains never rise after iteration 2,
        # except where a node leaves 0 for a value under the floor. Once
        # every mass has reached the floor (most picks), the minimum shows it
        # in a quarter of the scan's time.
        full = iteration <= 2 or (
            not acc.min() >= GRADIENT_FLOOR
            and ((acc > 0.0) & (acc < GRADIENT_FLOOR)).any()
        )
        if full:
            blocks.stale()
            full_rescores += 1
        if aligned:
            # kl_d = (c - (H w)_d) + log_t: c is common to all candidates and
            # w_j, the KL drop of one more count on leaf j, falls as it grows;
            # candidates sharing a leaf count t share log(L + eps*L + t), and
            # each block holds one t
            c = q_entropy_term - kl_terms.base
            log_t = np.log((float(state.total_leaf_mass) + eps_total) + blocks.t_values)
            # a huge lam overflows the bounds and joints; the check below
            # refuses a joint that is not finite, so numpy need not warn
            with np.errstate(over="ignore", invalid="ignore"):
                result = blocks.argmax(g_leaf, kl_terms.w, c, log_t, lam)
        else:
            result = blocks.argmax(g_leaf)
        idx, gain, pick_kl, pick_joint, n_rescored, n_visited = result
        if not math.isfinite(pick_joint):
            raise ValueError(
                f"iteration {iteration}: the joint is not finite at kl_weight {lam!r}"
            )
        if not full:
            rescored += n_rescored
            blocks_visited += n_visited

        row = cand.item(idx)
        picked_rows.append(row)
        picks.append(
            Pick(
                iteration=iteration,
                instance_id=pool.ids[row],
                gain=gain,
                kl=pick_kl,
                joint=pick_joint,
            )
        )

        positions = indices[indptr[idx] : indptr[idx + 1]]
        info_vec = s[idx] * ancestry.path_counts(positions)
        state.add_contribution(prop, info_vec, positions)
        if aligned:
            kl_terms.refresh(state.leaf_counts, positions)

    final_info = state_information(state, obj.gamma)
    final_kl = kl_penalty(q_dense, state.leaf_counts, obj.epsilon) if aligned else None
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
        blocks_visited=blocks_visited,
    )
    return list(pool.take(picked_rows)), trace


def derive_target(records: Sequence[AnchoredRecord], tree: TagTree) -> TargetDistribution:
    """Empirical leaf distribution of a reference set: counts, normalized."""
    counts = _leaf_counts(((r.id, r.leaves) for r in records), tree).tolist()
    total = sum(counts)
    if total == 0:
        raise ValueError("reference set has no anchored leaves")
    return TargetDistribution(
        weights={leaf: c / total for leaf, c in zip(tree.leaf_ids.tolist(), counts) if c}
    )


def _json_list(values) -> str:
    return ",".join(map(dumps_canonical, values))


# Rows of subset.jsonl, without and with the pool's fields, and one pick of
# trace.json in the bytes dumps_canonical writes for them: every value is
# formatted by dumps_canonical beforehand.
_SUBSET_ROW = (
    '{"id":%s,"quality":%s,"complexity":%s,'
    '"leaves":[%s],"iteration":%s,"gain":%s,"joint":%s}\n'
)
_POOL_ROW = (
    '{"id":%s,"query":%s,"response":%s,"tags":[%s],"quality":%s,"complexity":%s,'
    '"leaves":[%s],"iteration":%s,"gain":%s,"joint":%s}\n'
)
_TRACE_PICK = '{"iteration":%s,"id":%s,"gain":%s,"kl":%s,"joint":%s}'
_TRACE = (
    '{"mode":%s,"budget_requested":%s,"pool_size":%s,"unanchorable":%s,'
    '"selected":%s,"final_information":%s,"final_kl":%s,"picks":[%s]}\n'
)


def export_subset(
    selected: list[AnchoredRecord],
    trace: SelectionTrace,
    pool: Sequence[Instance] | None,
    path,
) -> None:
    """Write selected rows in pick order.

    With ``pool`` given, rows carry the original instance fields (so
    re-loading the file yields identical instances) plus the pick's
    annotations; without it, rows echo the anchored fields. Per-pick KL
    values live in the trace file only, keeping this file identical
    between general mode and aligned mode at kl_weight 0.

    Each row is formatted with one format string, in the bytes
    :func:`io.dumps_canonical` would write for it. Every row is formatted
    before the file is opened, so a refused row (an id out of order or
    missing from ``pool``, a non-finite number) leaves no file.
    """
    if len(selected) != len(trace.picks):
        raise ValueError("selected records and trace picks must align")
    if pool is not None:
        ids = pool.ids if isinstance(pool, InstancePool) else (inst.id for inst in pool)
        row_of = {rid: i for i, rid in enumerate(ids)}  # the last duplicate wins
    lines = []
    for record, pick in zip(selected, trace.picks):
        if record.id != pick.instance_id:
            raise ValueError("selected order does not match trace order")
        if pool is None:
            row = _SUBSET_ROW
            fields = (
                dumps_canonical(record.id), dumps_canonical(record.quality),
                dumps_canonical(record.complexity),
            )
        else:
            i = row_of.get(record.id)
            if i is None:
                raise ValueError(f"id '{record.id}' missing from original pool")
            inst = pool[i]
            row = _POOL_ROW
            fields = (
                dumps_canonical(inst.id), dumps_canonical(inst.query),
                dumps_canonical(inst.response), _json_list(inst.tags),
                dumps_canonical(inst.quality), dumps_canonical(inst.complexity),
            )
        lines.append(row % (
            *fields, _json_list(record.leaves), dumps_canonical(pick.iteration),
            dumps_canonical(pick.gain), dumps_canonical(pick.joint),
        ))
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def write_trace(trace: SelectionTrace, path) -> None:
    """Write the full trace, including per-pick KL values when present.

    Each pick is formatted with one format string, in the bytes
    :func:`io.dumps_canonical` would write for the payload, before the file
    is opened.
    """
    head = (
        dumps_canonical(trace.mode), dumps_canonical(trace.budget_requested),
        dumps_canonical(trace.pool_size), dumps_canonical(trace.unanchorable),
        dumps_canonical(len(trace.picks)), dumps_canonical(trace.final_information),
        dumps_canonical(trace.final_kl),
    )
    picks = ",".join(
        _TRACE_PICK % (
            dumps_canonical(p.iteration), dumps_canonical(p.instance_id),
            dumps_canonical(p.gain), dumps_canonical(p.kl), dumps_canonical(p.joint),
        )
        for p in trace.picks
    )
    text = _TRACE % (*head, picks)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
