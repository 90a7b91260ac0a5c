"""Objective tests: composite score, information functional, gradient, KL."""
from __future__ import annotations

import math

import numpy as np
import pytest

from tagforest import (
    GRADIENT_FLOOR,
    AnchoredRecord,
    InfoState,
    ObjectiveConfig,
    build_ancestry_matrix,
    build_propagation_matrix,
    composite_score,
    gradient_vector,
    kl_penalty,
    state_information,
)
from tagforest.io import Instance
from tagforest.oracle import dense_propagation, exact_information

from conftest import random_pool, random_tree
from node_walk_matrices import propagation_csr
from path_lifting import (
    anchor_instance,
    from_contributions,
    marginal_gain_approx,
    raw_info_vector,
    subset_information,
)


def _info_vec_and_positions(tree, anc, prop, leaves, score):
    """e = s * M h_leaf for an explicit leaf set, plus dense leaf positions."""
    h = np.zeros(len(anc.leaf_ids), dtype=np.int64)
    positions = np.array(sorted(tree.leaf_pos[l] for l in set(leaves)), dtype=np.int64)
    h[positions] = 1
    counts = anc.tree_counts(h)
    return raw_info_vector(score, counts), positions


class TestCompositeScore:
    def test_worked_example(self):
        np.testing.assert_allclose(composite_score(0.9, 0.4, 0.8), 0.80)

    def test_default_alpha(self):
        np.testing.assert_allclose(composite_score(1.0, 0.0), 0.8)
        np.testing.assert_allclose(composite_score(0.0, 1.0), 0.2)

    def test_array_form(self):
        q = np.array([0.0, 0.5, 1.0])
        c = np.array([1.0, 0.5, 0.0])
        np.testing.assert_allclose(composite_score(q, c, 0.8), [0.2, 0.5, 0.8])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            composite_score(1.5, 0.5)
        with pytest.raises(ValueError):
            composite_score(0.5, -0.1)
        with pytest.raises(ValueError):
            composite_score(0.5, 0.5, alpha=2.0)
        with pytest.raises(ValueError, match="quality"):
            composite_score(float("nan"), 0.5)
        with pytest.raises(ValueError, match="complexity"):
            composite_score(np.array([0.5, 0.5]), np.array([0.5, np.nan]))


class TestObjectiveConfig:
    def test_defaults(self):
        cfg = ObjectiveConfig()
        assert cfg.alpha == 0.8 and cfg.gamma == 0.85
        assert cfg.kl_weight == 0.0 and cfg.epsilon == 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(gamma=1.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(gamma=0.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(kl_weight=-1.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="kl_weight must be finite, got inf"):
            ObjectiveConfig(kl_weight=float("inf"))
        with pytest.raises(ValueError, match="epsilon must be finite, got inf"):
            ObjectiveConfig(epsilon=float("inf"))


class TestInformation:
    def test_singleton_worked_example(self, tiny_tree):
        # one unit-score instance on leaf 1: Ae = [2/3, 1, 1/2],
        # I = (2/3)^.85 + 1 + (1/2)^.85 — oracle value frozen at full precision
        inst = Instance(id="x", query="q", response="r", tags=("l1",), quality=1.0, complexity=1.0)
        profile = anchor_instance(inst, tiny_tree, None)
        prop = build_propagation_matrix(tiny_tree)
        value = subset_information([profile], [1.0], prop, 0.85)
        np.testing.assert_allclose(value, 2.2632563101384577, rtol=0, atol=1e-12)
        by_hand = (2 / 3) ** 0.85 + 1.0 + 0.5**0.85
        np.testing.assert_allclose(value, by_hand, rtol=0, atol=1e-12)

    def test_empty_subset_scores_zero(self, tiny_tree):
        prop = build_propagation_matrix(tiny_tree)
        assert subset_information([], [], prop, 0.85) == 0.0

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            tree = random_tree(rng, max_nodes=40)
            pool = random_pool(rng, tree, size=8)
            prop = build_propagation_matrix(tree)
            anc = build_ancestry_matrix(tree)
            profiles = []
            scores = []
            for rec in pool:
                inst = Instance(
                    id=rec.id,
                    query="q",
                    response="r",
                    tags=tuple(tree.node(l).name for l in rec.leaves),
                    quality=rec.quality,
                    complexity=rec.complexity,
                )
                profiles.append(anchor_instance(inst, tree, None, ancestry=anc))
                scores.append(composite_score(rec.quality, rec.complexity))
            mine = subset_information(profiles, scores, prop, 0.85)
            ref = exact_information(pool, scores, tree, 0.85)
            np.testing.assert_allclose(mine, ref, rtol=1e-9)

    def test_gamma_homogeneity(self, tiny_tree):
        # phi(t*x) = t^gamma phi(x): doubling every score scales I by 2^gamma
        recs = [
            AnchoredRecord(id="a", leaves=(1,), dropped=(), quality=0.4, complexity=0.4),
            AnchoredRecord(id="b", leaves=(2,), dropped=(), quality=0.3, complexity=0.3),
        ]
        base = exact_information(recs, [0.4, 0.3], tiny_tree, 0.85)
        doubled = exact_information(recs, [0.8, 0.6], tiny_tree, 0.85)
        np.testing.assert_allclose(doubled, 2**0.85 * base, rtol=1e-12)


class TestInfoState:
    def test_incremental_matches_scratch(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            tree = random_tree(rng, max_nodes=50)
            anc = build_ancestry_matrix(tree)
            prop = build_propagation_matrix(tree)
            pool = random_pool(rng, tree, size=12)
            vecs, pos_lists = [], []
            state = InfoState.empty(tree.n_nodes, len(anc.leaf_ids))
            for rec in pool:
                s = composite_score(rec.quality, rec.complexity)
                vec, positions = _info_vec_and_positions(tree, anc, prop, rec.leaves, s)
                state.add_contribution(prop, vec, positions)
                vecs.append(vec)
                pos_lists.append(positions)
            scratch = from_contributions(prop, vecs, pos_lists, len(anc.leaf_ids))
            np.testing.assert_allclose(
                state.accumulated, scratch.accumulated, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_array_equal(state.leaf_counts, scratch.leaf_counts)
            assert state.total_leaf_mass == scratch.total_leaf_mass
            assert state.size == scratch.size

    def test_state_information_consistency(self, tiny_tree):
        anc = build_ancestry_matrix(tiny_tree)
        prop = build_propagation_matrix(tiny_tree)
        state = InfoState.empty(3, 2)
        vec, positions = _info_vec_and_positions(tiny_tree, anc, prop, (1,), 1.0)
        state.add_contribution(prop, vec, positions)
        np.testing.assert_allclose(
            state_information(state, 0.85), 2.2632563101384577, rtol=0, atol=1e-12
        )


class TestGradient:
    def test_empty_state_is_zero_vector(self, tiny_tree):
        prop = build_propagation_matrix(tiny_tree)
        state = InfoState.empty(3, 2)
        np.testing.assert_array_equal(gradient_vector(state, prop, 0.85), np.zeros(3))

    def test_all_ones_worked_example(self, tiny_tree):
        # accumulated = 1 everywhere: phi' = 0.85, G = 0.85 * column sums of A;
        # root column sums to 1/3 + 1/2 + 1/2 = 4/3
        prop = build_propagation_matrix(tiny_tree)
        state = InfoState.empty(3, 2)
        state.accumulated = np.ones(3)
        state.size = 1
        G = gradient_vector(state, prop, 0.85)
        np.testing.assert_allclose(
            G,
            [1.1333333333333333, 0.7083333333333333, 0.7083333333333333],
            rtol=0,
            atol=1e-15,
        )

    def test_zero_coordinates_use_floor(self, tiny_tree):
        prop = build_propagation_matrix(tiny_tree)
        state = InfoState.empty(3, 2)
        state.accumulated = np.array([1.0, 0.0, 1.0])
        state.size = 1
        phi_prime = np.array([0.85, 0.85 * GRADIENT_FLOOR ** (0.85 - 1.0), 0.85])
        expected = phi_prime @ dense_propagation(tiny_tree)
        np.testing.assert_allclose(
            gradient_vector(state, prop, 0.85), expected, rtol=1e-15
        )

    def test_gradient_finite_and_positive_on_random_states(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=60)
            prop = build_propagation_matrix(tree)
            state = InfoState.empty(tree.n_nodes, len(tree.leaf_ids))
            state.accumulated = np.abs(rng.normal(size=tree.n_nodes))
            state.accumulated[rng.integers(0, tree.n_nodes)] = 0.0
            state.size = 3
            G = gradient_vector(state, prop, 0.85)
            assert np.all(np.isfinite(G)) and np.all(G > 0.0)

    def test_gradient_gives_the_bits_of_the_scipy_product(self):
        # states built by add_contribution, some masses set to 0 or under
        # the floor, two gammas: each gradient must be the formula's phi'
        # multiplied through scipy's A^T
        rng = np.random.default_rng(66)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=80)
            anc, prop = build_ancestry_matrix(tree), build_propagation_matrix(tree)
            a_t = propagation_csr(tree).T.tocsr()
            state = InfoState.empty(tree.n_nodes, len(anc.leaf_ids))
            for rec in random_pool(rng, tree, size=12):
                s = composite_score(rec.quality, rec.complexity)
                vec, positions = _info_vec_and_positions(tree, anc, prop, rec.leaves, s)
                state.add_contribution(prop, vec, positions)
                if rng.random() < 0.3:
                    state.accumulated[rng.integers(tree.n_nodes)] = rng.choice([0.0, 1e-8, 3.0])
                gamma = float(rng.choice([0.85, 0.5]))
                v = state.accumulated
                phi_prime = np.empty_like(v)
                zero = v == 0.0
                phi_prime[~zero] = gamma * np.power(v[~zero], gamma - 1.0)
                phi_prime[zero] = gamma * GRADIENT_FLOOR ** (gamma - 1.0)
                want = a_t @ phi_prime
                assert gradient_vector(state, prop, gamma).tobytes() == want.tobytes()


class TestMarginalGain:
    def test_singleton_self_gain_identity(self):
        # G(e) . e = gamma * I({e}): exact for phi(x) = x^gamma since zero
        # coordinates of Ae contribute nothing to the dot product
        rng = np.random.default_rng(64)
        for _ in range(15):
            tree = random_tree(rng, max_nodes=50)
            anc = build_ancestry_matrix(tree)
            prop = build_propagation_matrix(tree)
            rec = random_pool(rng, tree, size=1)[0]
            s = composite_score(rec.quality, rec.complexity)
            vec, positions = _info_vec_and_positions(tree, anc, prop, rec.leaves, s)
            state = InfoState.empty(tree.n_nodes, len(anc.leaf_ids))
            state.add_contribution(prop, vec, positions)
            G = gradient_vector(state, prop, 0.85)
            approx = marginal_gain_approx(G, vec)
            np.testing.assert_allclose(
                approx, 0.85 * state_information(state, 0.85), rtol=1e-12
            )

    def test_taylor_dominates_exact_gain(self):
        # first-order gain >= exact gain on nonempty states (concavity)
        rng = np.random.default_rng(65)
        for _ in range(40):
            tree = random_tree(rng, max_nodes=40)
            anc = build_ancestry_matrix(tree)
            prop = build_propagation_matrix(tree)
            pool = random_pool(rng, tree, size=6)
            held = pool[:4]
            scores = [composite_score(r.quality, r.complexity) for r in held]
            state = InfoState.empty(tree.n_nodes, len(anc.leaf_ids))
            for rec, s in zip(held, scores):
                vec, positions = _info_vec_and_positions(tree, anc, prop, rec.leaves, s)
                state.add_contribution(prop, vec, positions)
            G = gradient_vector(state, prop, 0.85)
            base = exact_information(held, scores, tree, 0.85)
            for cand in pool[4:]:
                s = composite_score(cand.quality, cand.complexity)
                vec, _ = _info_vec_and_positions(tree, anc, prop, cand.leaves, s)
                approx = marginal_gain_approx(G, vec)
                exact = exact_information(held + [cand], scores + [s], tree, 0.85) - base
                assert approx >= exact - 1e-9

    def test_submodularity_of_exact_gains(self):
        # gain(D, d) >= gain(D', d) whenever D subset of D'
        rng = np.random.default_rng(66)
        for _ in range(40):
            tree = random_tree(rng, max_nodes=40)
            pool = random_pool(rng, tree, size=7)
            small, big, cand = pool[:2], pool[:5], pool[6]

            def gain(base):
                scores = [composite_score(r.quality, r.complexity) for r in base]
                s = composite_score(cand.quality, cand.complexity)
                with_c = exact_information(base + [cand], scores + [s], tree, 0.85)
                without = exact_information(base, scores, tree, 0.85)
                return with_c - without

            assert gain(small) >= gain(big) - 1e-9


class TestKlPenalty:
    def test_point_mass_worked_example(self, tiny_tree):
        # selection: one instance on each leaf; Q = point mass on leaf 1.
        # P(leaf 1) ~= 1/2 so KL ~= ln 2 (up to epsilon smoothing)
        state = InfoState.empty(3, 2)
        state.leaf_counts = np.array([1, 1], dtype=np.int64)
        state.total_leaf_mass = 2
        state.size = 2
        kl = kl_penalty(np.array([1.0, 0.0]), state, np.zeros(0, dtype=np.int64))
        np.testing.assert_allclose(kl, math.log(2.0), rtol=1e-6)

    def test_perfect_match_is_zero(self):
        state = InfoState.empty(3, 2)
        state.leaf_counts = np.array([5, 5], dtype=np.int64)
        state.total_leaf_mass = 10
        state.size = 10
        kl = kl_penalty(np.array([0.5, 0.5]), state, np.zeros(0, dtype=np.int64))
        np.testing.assert_allclose(kl, 0.0, rtol=0, atol=1e-9)

    def test_candidate_bump_included(self):
        # adding a candidate on the target leaf must lower the penalty
        state = InfoState.empty(3, 2)
        state.leaf_counts = np.array([1, 3], dtype=np.int64)
        state.total_leaf_mass = 4
        state.size = 4
        q = np.array([0.9, 0.1])
        without = kl_penalty(q, state, np.zeros(0, dtype=np.int64))
        with_hit = kl_penalty(q, state, np.array([0], dtype=np.int64))
        with_miss = kl_penalty(q, state, np.array([1], dtype=np.int64))
        assert with_hit < without < with_miss

    def test_always_finite_on_empty_selection(self):
        state = InfoState.empty(3, 2)
        kl = kl_penalty(np.array([1.0, 0.0]), state, np.zeros(0, dtype=np.int64))
        assert math.isfinite(kl) and kl > 0.0

    def test_matches_dict_oracle(self):
        from tagforest.oracle import _leaf_distribution_kl

        rng = np.random.default_rng(67)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=30)
            anc = build_ancestry_matrix(tree)
            pool = random_pool(rng, tree, size=6)
            q_raw = rng.uniform(0.1, 1.0, size=len(anc.leaf_ids))
            q_raw[rng.uniform(size=len(q_raw)) < 0.5] = 0.0
            if q_raw.sum() == 0.0:
                q_raw[0] = 1.0
            q_dense = q_raw / q_raw.sum()
            target = {
                int(anc.leaf_ids[j]): float(q_dense[j])
                for j in range(len(q_dense))
                if q_dense[j] > 0
            }
            state = InfoState.empty(tree.n_nodes, len(anc.leaf_ids))
            for rec in pool[:-1]:
                positions = np.array(
                    sorted(tree.leaf_pos[l] for l in set(rec.leaves)), dtype=np.int64
                )
                state.leaf_counts[positions] += 1
                state.total_leaf_mass += len(positions)
                state.size += 1
            cand = pool[-1]
            positions = np.array(
                sorted(tree.leaf_pos[l] for l in set(cand.leaves)), dtype=np.int64
            )
            mine = kl_penalty(q_dense, state, positions)
            ref = _leaf_distribution_kl(target, list(pool), tree, 1e-9)
            np.testing.assert_allclose(mine, ref, rtol=1e-9)

    def test_length_mismatch_rejected(self):
        state = InfoState.empty(3, 2)
        with pytest.raises(ValueError):
            kl_penalty(np.array([1.0, 0.0, 0.0]), state, np.zeros(0, dtype=np.int64))
