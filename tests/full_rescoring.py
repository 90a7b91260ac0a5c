"""Reference greedy selection that scores every candidate at every step.

This is the selection loop ``tagforest.sampler.sample`` ran before its
lazy greedy covered aligned mode, kept fixed so the lazy path can be
compared against it bit for bit: the same ranking, leaf matrix, gradient
and KL arithmetic, with one sparse matrix-vector product per iteration and
a first-occurrence ``np.argmax``. Its leaf products run through scipy's
kernels on the node-walk ancestry matrix.
"""
from __future__ import annotations

import math

import numpy as np

from tagforest import (
    InfoState,
    SelectionTrace,
    build_ancestry_matrix,
    build_propagation_matrix,
    gradient_vector,
    kl_penalty,
    state_information,
)
from tagforest.sampler import Pick

from node_walk_matrices import ancestry_csc
from record_setup import _leaf_matrix, _rank_candidates


def sample_full_rescoring(records, tree, config, target=None):
    """Same contract as ``sample``; every iteration scores every candidate."""
    obj = config.objective
    aligned = target is not None
    if obj.kl_weight > 0.0 and not aligned:
        raise ValueError("kl_weight > 0 requires a target distribution")

    usable = [r for r in records if r.leaves]
    budget = min(config.budget, len(usable))

    ancestry = build_ancestry_matrix(tree)
    prop = build_propagation_matrix(tree)
    n_nodes, n_leaves = ancestry.shape
    paths = ancestry_csc(tree)
    to_leaves = paths.T

    cand, s = _rank_candidates(usable, obj.alpha)
    h_matrix = _leaf_matrix(cand, tree.leaf_pos, n_leaves)
    indptr, indices = h_matrix.indptr, h_matrix.indices
    t_d = np.diff(indptr).astype(np.float64)

    if aligned:
        q_dense = target.dense(ancestry.leaf_ids)
        q_support = np.nonzero(q_dense > 0.0)[0]
        q_vals = q_dense[q_support]
        q_entropy_term = float(np.sum(q_vals * np.log(q_vals)))
        eps_total = obj.epsilon * n_leaves

    state = InfoState.empty(n_nodes, n_leaves)
    selected = np.zeros(len(cand), dtype=bool)
    picks: list[Pick] = []
    chosen = []
    for iteration in range(1, budget + 1):
        gradient = gradient_vector(state, prop, obj.gamma)
        g_leaf = np.asarray(to_leaves @ gradient)
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
            kl = q_entropy_term - base - (h_matrix @ w_vec) + np.log(log_args + t_d)
            joint = gains - obj.kl_weight * kl
        else:
            kl = None
            joint = gains
        joint = np.where(selected, -np.inf, joint)
        idx = int(np.argmax(joint))
        pick_joint = float(joint[idx])
        if not math.isfinite(pick_joint):
            break

        selected[idx] = True
        chosen.append(cand[idx])
        picks.append(
            Pick(
                iteration=iteration,
                instance_id=cand[idx].id,
                gain=float(gains[idx]),
                kl=None if kl is None else float(kl[idx]),
                joint=pick_joint,
            )
        )
        positions = indices[indptr[idx] : indptr[idx + 1]]
        leaf_vec = np.zeros(n_leaves, dtype=np.float64)
        leaf_vec[positions] = 1.0
        info_vec = s[idx] * np.asarray(paths @ leaf_vec)
        state.add_contribution(prop, info_vec, positions)

    final_kl = kl_penalty(q_dense, state.leaf_counts, obj.epsilon) if aligned else None
    trace = SelectionTrace(
        picks=picks,
        final_information=state_information(state, obj.gamma),
        final_kl=final_kl,
        budget_requested=config.budget,
        pool_size=len(records),
        unanchorable=len(records) - len(usable),
        mode="aligned" if aligned else "general",
        full_rescores=len(picks),
    )
    return chosen, trace
