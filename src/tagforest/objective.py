"""Composite scoring, tree information functional, greedy gain, KL penalty.

The selection objective values a subset D through the tree: each instance
contributes its composite score spread over the nodes its leaves activate
(raw info vector e = s * path counts), contributions accumulate, the
propagation matrix A smooths the total over tree neighborhoods, and a
concave power bends the result so repeated mass on one branch saturates:

    I(D) = sum_j phi((A * sum_{k in D} e_k)_j),    phi(x) = x**gamma

Greedy selection uses the first-order gain of adding a candidate, built
from the gradient row vector G = phi'(accumulated)^T A: the approximate
gain of candidate d is the dot product G . e_d. Since phi is concave, that
first-order value dominates the exact gain wherever the accumulated mass
is positive, which is what makes greedy-with-Taylor-gain faithful.

Aligned selection subtracts a weighted KL divergence between a target
leaf distribution Q and the empirical leaf distribution of the selection
with the candidate included, epsilon-smoothed so it is always finite.

Both products with A are numpy calls on the index arrays of
:class:`~tagforest.matrices.PropagationMatrix`, in the bits of scipy's
sparse kernels; adding a contribution runs over its non-zero entries only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import PropagationMatrix

__all__ = [
    "GRADIENT_FLOOR",
    "ObjectiveConfig",
    "InfoState",
    "composite_score",
    "state_information",
    "gradient_vector",
    "kl_penalty",
]

# phi'(x) = gamma * x**(gamma-1) diverges at 0. A node with exactly zero
# accumulated mass uses phi' evaluated at this floor instead, keeping the
# incentive to cover untouched nodes large but finite. Iteration 1 (empty
# state) is special-cased to a zero gradient; see gradient_vector.
GRADIENT_FLOOR = 1e-6


@dataclass
class ObjectiveConfig:
    """Hyperparameters of the selection objective.

    alpha weighs quality against complexity in the composite score;
    gamma is the concavity exponent of phi; kl_weight scales the
    alignment penalty (0 disables it); epsilon smooths empirical leaf
    distributions inside the KL term.
    """

    alpha: float = 0.8
    gamma: float = 0.85
    kl_weight: float = 0.0
    epsilon: float = 1e-9

    def __post_init__(self):
        # every rule is written so that NaN fails it
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not self.kl_weight >= 0.0:
            raise ValueError(f"kl_weight must be >= 0, got {self.kl_weight}")
        if not math.isfinite(self.kl_weight):
            raise ValueError(f"kl_weight must be finite, got {self.kl_weight}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")


def composite_score(quality, complexity, alpha: float = ObjectiveConfig.alpha):
    """Blend normalized quality and complexity: alpha*q + (1-alpha)*c.

    Accepts scalars or aligned arrays; inputs must already be in [0, 1]
    (NaN is rejected too: every comparison with it is False).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    q = np.asarray(quality, dtype=np.float64)
    c = np.asarray(complexity, dtype=np.float64)
    if not (np.all(q >= 0.0) and np.all(q <= 1.0)):
        raise ValueError("quality outside [0, 1]; normalize scores first")
    if not (np.all(c >= 0.0) and np.all(c <= 1.0)):
        raise ValueError("complexity outside [0, 1]; normalize scores first")
    out = alpha * q + (1.0 - alpha) * c
    return float(out) if out.ndim == 0 else out


@dataclass
class InfoState:
    """Running selection state.

    ``accumulated`` is the propagated mass A * sum(e_k) over all nodes;
    ``leaf_counts`` are raw integer leaf activations of the selection;
    ``total_leaf_mass`` is their sum and ``size`` the number of picks.
    Mutation is confined to the selection step that owns the state.
    """

    accumulated: np.ndarray
    leaf_counts: np.ndarray
    total_leaf_mass: int = 0
    size: int = 0

    @classmethod
    def empty(cls, n_nodes: int, n_leaves: int) -> "InfoState":
        return cls(
            accumulated=np.zeros(n_nodes, dtype=np.float64),
            leaf_counts=np.zeros(n_leaves, dtype=np.int64),
        )

    def add_contribution(
        self,
        prop: PropagationMatrix,
        info_vec: np.ndarray,
        leaf_positions: np.ndarray,
    ) -> None:
        """Fold one selected instance in: accumulated += A @ e, counts += 1.

        The product runs over the non-zero entries of e only
        (:meth:`PropagationMatrix.matvec`), so a pick touches the rows of
        its paths and their neighbors.
        """
        self.accumulated += prop.matvec(info_vec)
        self.leaf_counts[leaf_positions] += 1
        self.total_leaf_mass += int(len(leaf_positions))
        self.size += 1


def state_information(state: InfoState, gamma: float) -> float:
    """I of the current state: sum of phi over the accumulated vector."""
    return float(np.sum(np.power(state.accumulated, gamma)))


def gradient_vector(state: InfoState, prop: PropagationMatrix, gamma: float) -> np.ndarray:
    """Gradient row vector G = phi'(accumulated)^T A.

    The empty state returns the zero vector: iteration 1 carries no
    curvature information, so all first-order gains tie at 0 and the
    selection falls back to its documented score/id tie-break. For a
    non-empty state, coordinates with exactly zero accumulated mass use
    phi'(GRADIENT_FLOOR) — a large finite pull toward untouched regions.

    The product is :meth:`PropagationMatrix.rmatvec`.
    """
    if state.size == 0:
        return np.zeros(prop.shape[0], dtype=np.float64)
    v = state.accumulated
    phi_prime = np.empty_like(v)
    zero = v == 0.0
    nonzero = ~zero
    phi_prime[nonzero] = gamma * np.power(v[nonzero], gamma - 1.0)
    phi_prime[zero] = gamma * GRADIENT_FLOOR ** (gamma - 1.0)
    return prop.rmatvec(phi_prime)


def kl_penalty(
    target: np.ndarray,
    state: InfoState,
    candidate_leaf_positions,
    epsilon: float = ObjectiveConfig.epsilon,
) -> float:
    """KL(Q || P) with the candidate folded into the selection counts.

    ``target`` is the dense Q over leaf positions. P puts
    (count_j + candidate_j + epsilon) / (total + t_d + epsilon * L) on
    leaf j, where t_d is the candidate's number of active leaves. Only
    coordinates with Q_j > 0 contribute; pass an empty candidate to score
    the bare selection. Always finite thanks to the smoothing.
    """
    target = np.asarray(target, dtype=np.float64)
    n_leaves = len(state.leaf_counts)
    if len(target) != n_leaves:
        raise ValueError("target length does not match leaf count")
    candidate = np.asarray(candidate_leaf_positions, dtype=np.int64)
    t_d = int(len(candidate))
    denom = float(state.total_leaf_mass + t_d) + epsilon * n_leaves
    support = np.nonzero(target > 0.0)[0]
    counts = state.leaf_counts[support].astype(np.float64)
    if t_d:
        bump = np.zeros(n_leaves, dtype=np.float64)
        bump[candidate] = 1.0
        counts = counts + bump[support]
    p = (counts + epsilon) / denom
    q = target[support]
    return float(np.sum(q * np.log(q / p)))
