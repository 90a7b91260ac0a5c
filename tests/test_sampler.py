"""Sampler tests: greedy selection, aligned mode, exports, invariances."""
from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from tagforest import (
    AnchoredPool,
    AnchoredRecord,
    InfoState,
    Instance,
    InstancePool,
    InvalidTreeError,
    ObjectiveConfig,
    Pick,
    SamplerConfig,
    SelectionTrace,
    TagTree,
    TargetDistribution,
    TreeNode,
    build_ancestry_matrix,
    build_propagation_matrix,
    composite_score,
    derive_target,
    export_subset,
    gradient_vector,
    kl_penalty,
    load_instances,
    sample,
    validate_tree,
    write_trace,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from tagforest.oracle import _leaf_distribution_kl, exact_information, greedy_exact
from tagforest import sampler
from tagforest.sampler import _BlockMaxima, _candidate_setup

import canonical_writers
from conftest import make_tree, random_pool, random_tree, star_tree
from full_rescoring import sample_full_rescoring
from path_lifting import from_contributions, marginal_gain_approx, raw_info_vector
from record_setup import _leaf_matrix, _rank_candidates


class TestSampleBasics:
    def test_worked_pool_sequence(self, tiny_tree, worked_pool):
        # cold start: zero gradient, tie broken by composite score then id;
        # second pick follows the first-order gain (same winner as exact)
        selected, trace = sample(worked_pool, tiny_tree, SamplerConfig(budget=2))
        assert [p.instance_id for p in trace.picks] == ["a", "b"]
        ref_ids, ref_value = greedy_exact(worked_pool, 2, tiny_tree, 0.85)
        assert tuple(r.id for r in selected) == ref_ids
        np.testing.assert_allclose(trace.final_information, ref_value, rtol=1e-12)

    def test_first_pick_gain_is_zero(self, tiny_tree, worked_pool):
        _, trace = sample(worked_pool, tiny_tree, SamplerConfig(budget=1))
        assert trace.picks[0].gain == 0.0
        assert trace.picks[0].joint == 0.0

    def test_cold_start_tie_breaks_to_lowest_id(self, tiny_tree):
        pool = [
            AnchoredRecord(id="z", leaves=(1,), dropped=(), quality=0.7, complexity=0.7),
            AnchoredRecord(id="a", leaves=(2,), dropped=(), quality=0.7, complexity=0.7),
        ]
        _, trace = sample(pool, tiny_tree, SamplerConfig(budget=1))
        assert trace.picks[0].instance_id == "a"

    def test_budget_zero(self, tiny_tree, worked_pool):
        selected, trace = sample(worked_pool, tiny_tree, SamplerConfig(budget=0))
        assert selected == [] and trace.picks == []
        assert trace.final_information == 0.0

    def test_budget_exceeding_pool_selects_everything_usable(self, tiny_tree):
        pool = [
            AnchoredRecord(id="a", leaves=(1,), dropped=(), quality=0.5, complexity=0.5),
            AnchoredRecord(id="b", leaves=(), dropped=("x",), quality=0.9, complexity=0.9),
            AnchoredRecord(id="c", leaves=(2,), dropped=(), quality=0.4, complexity=0.4),
        ]
        selected, trace = sample(pool, tiny_tree, SamplerConfig(budget=10))
        assert sorted(r.id for r in selected) == ["a", "c"]
        assert trace.unanchorable == 1
        assert trace.pool_size == 3

    def test_selection_has_no_duplicates(self, tiny_tree):
        rng = np.random.default_rng(81)
        pool = random_pool(rng, tiny_tree, size=30)
        selected, _ = sample(pool, tiny_tree, SamplerConfig(budget=12))
        ids = [r.id for r in selected]
        assert len(ids) == len(set(ids)) == 12

    def test_final_information_matches_oracle(self):
        rng = np.random.default_rng(82)
        for _ in range(5):
            tree = random_tree(rng, max_nodes=40)
            pool = random_pool(rng, tree, size=25)
            selected, trace = sample(pool, tree, SamplerConfig(budget=10))
            scores = [composite_score(r.quality, r.complexity) for r in selected]
            ref = exact_information(selected, scores, tree, 0.85)
            np.testing.assert_allclose(trace.final_information, ref, rtol=1e-9)

    def test_mode_validation(self, tiny_tree, worked_pool):
        with pytest.raises(ValueError, match="requires a target"):  # lambda, no target
            sample(
                worked_pool,
                tiny_tree,
                SamplerConfig(budget=1, objective=ObjectiveConfig(kl_weight=2.0)),
            )

    def test_mode_follows_target(self, tiny_tree, worked_pool):
        _, general = sample(worked_pool, tiny_tree, SamplerConfig(budget=3))
        assert general.mode == "general" and general.final_kl is None
        assert all(p.kl is None for p in general.picks)
        target = TargetDistribution(weights={1: 0.5, 2: 0.5})
        for kl_weight in (0.0, 5.0):
            cfg = SamplerConfig(budget=3, objective=ObjectiveConfig(kl_weight=kl_weight))
            _, aligned = sample(worked_pool, tiny_tree, cfg, target)
            assert aligned.mode == "aligned" and aligned.final_kl is not None
            assert len(aligned.picks) == 3
            assert all(isinstance(p.kl, float) for p in aligned.picks)

    def test_invalid_tree_rejected_with_its_report(self):
        bad = TagTree(nodes=[
            TreeNode(id=0, name="r", parent=None, children=[], depth=0),
            TreeNode(id=1, name="x", parent=0, children=[], depth=1),
        ])
        pool = [AnchoredRecord(id="a", leaves=(1,), dropped=(), quality=0.5, complexity=0.5)]
        with pytest.raises(InvalidTreeError) as raised:
            sample(pool, bad, SamplerConfig(budget=1))
        assert str(raised.value) == str(validate_tree(bad))
        for build in (build_ancestry_matrix, build_propagation_matrix):
            with pytest.raises(InvalidTreeError) as public:
                build(bad)
            assert str(public.value) == str(raised.value)


class TestInvariances:
    def test_pool_order_invariance(self):
        rng = np.random.default_rng(83)
        tree = random_tree(rng, max_nodes=40)
        pool = random_pool(rng, tree, size=40)
        _, trace_a = sample(pool, tree, SamplerConfig(budget=15))
        shuffled = list(pool)
        rng.shuffle(shuffled)
        _, trace_b = sample(shuffled, tree, SamplerConfig(budget=15))
        assert [p.instance_id for p in trace_a.picks] == [
            p.instance_id for p in trace_b.picks
        ]
        for pa, pb in zip(trace_a.picks, trace_b.picks):
            assert pa.gain == pb.gain and pa.joint == pb.joint

    def test_worker_count_invariance(self):
        rng = np.random.default_rng(84)
        tree = random_tree(rng, max_nodes=50)
        pool = random_pool(rng, tree, size=60)
        target = derive_target(random_pool(rng, tree, size=20, prefix="ref"), tree)
        for kl_weight, tgt in ((0.0, None), (5.0, target)):
            traces = []
            for workers in (1, 3, 4):
                _, trace = sample(
                    pool,
                    tree,
                    SamplerConfig(
                        budget=25,
                        workers=workers,
                        objective=ObjectiveConfig(kl_weight=kl_weight),
                    ),
                    tgt,
                )
                traces.append(trace)
            base = traces[0]
            for other in traces[1:]:
                assert [p.instance_id for p in base.picks] == [
                    p.instance_id for p in other.picks
                ]
                for pa, pb in zip(base.picks, other.picks):
                    assert pa.gain == pb.gain
                    assert pa.joint == pb.joint
                    assert pa.kl == pb.kl

    def test_incremental_state_equals_scratch_replay(self):
        # replay the picked sequence with a from-scratch evaluator at every
        # step: the picks must agree with an argmax over freshly computed
        # first-order gains
        rng = np.random.default_rng(85)
        tree = random_tree(rng, max_nodes=30)
        pool = random_pool(rng, tree, size=40)
        budget = 15
        _, trace = sample(pool, tree, SamplerConfig(budget=budget))

        anc = build_ancestry_matrix(tree)
        prop = build_propagation_matrix(tree)
        n_leaves = len(anc.leaf_ids)
        by_id = {r.id: r for r in pool}

        def info_vec(rec):
            h = np.zeros(n_leaves, dtype=np.int64)
            positions = np.array(
                sorted(tree.leaf_pos[l] for l in set(rec.leaves)), dtype=np.int64
            )
            h[positions] = 1
            return raw_info_vector(
                composite_score(rec.quality, rec.complexity), anc.tree_counts(h)
            ), positions

        chosen: list[str] = []
        vecs, pos_lists = [], []
        for pick in trace.picks:
            state = from_contributions(prop, vecs, pos_lists, n_leaves)
            G = gradient_vector(state, prop, 0.85)
            best = None
            for rec in pool:
                if rec.id in chosen:
                    continue
                vec, _ = info_vec(rec)
                gain = marginal_gain_approx(G, vec)
                s = composite_score(rec.quality, rec.complexity)
                key = (-gain, -s, rec.id)
                if best is None or key < best[0]:
                    best = (key, rec.id, gain)
            assert best is not None
            assert best[1] == pick.instance_id
            np.testing.assert_allclose(best[2], pick.gain, rtol=1e-9, atol=1e-12)
            chosen.append(pick.instance_id)
            vec, positions = info_vec(by_id[pick.instance_id])
            vecs.append(vec)
            pos_lists.append(positions)

    def test_greedy_overlap_regression_guard(self):
        # first-order sampler vs exact-gain oracle greedy: overlap stays
        # high on seeded pools (frozen empirical threshold)
        rng = np.random.default_rng(86)
        for _ in range(5):
            tree = random_tree(rng, max_nodes=30)
            pool = random_pool(rng, tree, size=30)
            budget = 10
            selected, _ = sample(pool, tree, SamplerConfig(budget=budget))
            ref_ids, _ = greedy_exact(pool, budget, tree, 0.85)
            overlap = len(set(r.id for r in selected) & set(ref_ids))
            assert overlap >= 0.8 * budget


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


class TestAlignedMode:
    @pytest.mark.parametrize("epsilon", [ObjectiveConfig.epsilon, 1e-3, 0.5])
    @pytest.mark.parametrize("n_leaves, support", [(1, 1), (40, 7), (2006, 884)])
    def test_kl_terms_refreshed_per_pick(self, n_leaves, support, epsilon):
        # after every pick, base, c and w hold the bits of the whole-support
        # formula that tests/full_rescoring.py recomputes each iteration
        rng = np.random.default_rng(n_leaves + support)
        q_dense = np.zeros(n_leaves)
        q_dense[rng.choice(n_leaves, support, replace=False)] = rng.dirichlet(np.ones(support))
        q_support = np.nonzero(q_dense > 0.0)[0]
        q_vals = q_dense[q_support]
        q_entropy_term = float(np.sum(q_vals * np.log(q_vals)))
        counts = np.zeros(n_leaves, dtype=np.int64)
        terms = sampler._KLTerms(q_dense, counts, epsilon)
        for _ in range(300):
            counts_supp = counts[q_support].astype(np.float64)
            base = float(np.sum(q_vals * np.log(counts_supp + epsilon)))
            w_vec = np.zeros(n_leaves, dtype=np.float64)
            w_vec[q_support] = q_vals * (
                np.log(counts_supp + 1.0 + epsilon) - np.log(counts_supp + epsilon)
            )
            assert _bits(terms.base) == _bits(base)
            assert _bits(q_entropy_term - terms.base) == _bits(q_entropy_term - base)
            assert _bits(terms.w) == _bits(w_vec)
            # a pick's leaves: mostly on the support, some off it
            k = int(rng.integers(1, 5))
            leaves = np.unique(np.where(
                rng.random(k) < 0.8, rng.choice(q_support, k), rng.integers(0, n_leaves, k)
            ))
            counts[leaves] += 1
            terms.refresh(counts, leaves)

    def test_lambda_zero_identical_to_general(self, tmp_path):
        rng = np.random.default_rng(87)
        tree = random_tree(rng, max_nodes=40)
        pool = random_pool(rng, tree, size=50)
        target = derive_target(random_pool(rng, tree, size=15, prefix="ref"), tree)
        sel_g, trace_g = sample(pool, tree, SamplerConfig(budget=20))
        sel_a, trace_a = sample(
            pool,
            tree,
            SamplerConfig(budget=20, objective=ObjectiveConfig(kl_weight=0.0)),
            target,
        )
        assert [r.id for r in sel_g] == [r.id for r in sel_a]
        pg, pa = tmp_path / "general.jsonl", tmp_path / "aligned.jsonl"
        export_subset(sel_g, trace_g, None, pg)
        export_subset(sel_a, trace_a, None, pa)
        assert pg.read_bytes() == pa.read_bytes()

    def test_point_mass_forces_target_leaf(self):
        # all-or-nothing target with a huge multiplier: picks must activate
        # the target leaf while any such candidate remains
        tree = star_tree(6)
        target_leaf = 3
        pool = []
        for i in range(10):
            pool.append(
                AnchoredRecord(
                    id=f"hit{i}", leaves=(target_leaf,), dropped=(),
                    quality=0.1, complexity=0.1,
                )
            )
        for i in range(10):
            pool.append(
                AnchoredRecord(
                    id=f"miss{i}", leaves=(1 + (i % 2),), dropped=(),
                    quality=0.95, complexity=0.95,
                )
            )
        target = TargetDistribution(weights={target_leaf: 1.0})
        selected, trace = sample(
            pool,
            tree,
            SamplerConfig(
                budget=12, objective=ObjectiveConfig(kl_weight=100.0)
            ),
            target,
        )
        # 10 hit-candidates exist: the first 10 picks must all be hits
        first_ten = [p.instance_id for p in trace.picks[:10]]
        assert all(pid.startswith("hit") for pid in first_ten)

    def test_kl_recorded_per_pick_and_final(self, tiny_tree, worked_pool):
        target = TargetDistribution(weights={1: 0.5, 2: 0.5})
        _, trace = sample(
            worked_pool,
            tiny_tree,
            SamplerConfig(budget=2, objective=ObjectiveConfig(kl_weight=5.0)),
            target,
        )
        assert all(p.kl is not None for p in trace.picks)
        assert trace.final_kl is not None
        # final KL must equal a direct evaluation on the final counts
        state = InfoState.empty(3, 2)
        for rec_id in (p.instance_id for p in trace.picks):
            rec = next(r for r in worked_pool if r.id == rec_id)
            positions = np.array(
                sorted(tiny_tree.leaf_pos[l] for l in rec.leaves), dtype=np.int64
            )
            state.leaf_counts[positions] += 1
            state.total_leaf_mass += len(positions)
            state.size += 1
        q = target.dense(tiny_tree.leaf_ids)
        ref = kl_penalty(q, state, np.zeros(0, dtype=np.int64))
        np.testing.assert_allclose(trace.final_kl, ref, rtol=1e-12)

    def test_higher_lambda_lowers_final_kl(self):
        rng = np.random.default_rng(88)
        tree = star_tree(8)
        pool = random_pool(rng, tree, size=150, max_leaves_per_record=1)
        target = derive_target(
            random_pool(rng, tree, size=40, max_leaves_per_record=1, prefix="ref"), tree
        )
        kls = []
        for lam in (0.0, 5.0, 50.0):
            _, trace = sample(
                pool,
                tree,
                SamplerConfig(
                    budget=40, objective=ObjectiveConfig(kl_weight=lam)
                ),
                target,
            )
            kls.append(trace.final_kl)
        assert kls[2] <= kls[0] + 1e-12


def _scaled_scores(pool, factor):
    return [
        replace(r, quality=r.quality * factor, complexity=r.complexity * factor)
        for r in pool
    ]


def _quantised_scores(rng, pool):
    # three levels per score: many exact composite-score and gain ties
    return [
        replace(
            r,
            quality=float(rng.integers(0, 3)) / 2,
            complexity=float(rng.integers(0, 3)) / 2,
        )
        for r in pool
    ]


# (kl_weight, aligned): general mode, then aligned mode at three strengths
MODES = [(0.0, False), (0.0, True), (5.0, True), (1e3, True)]


def _random_target(rng, tree):
    """Random weights on a random non-empty subset of the leaves."""
    leaf_ids = [int(x) for x in tree.leaf_ids]
    k = int(rng.integers(1, len(leaf_ids) + 1))
    picked = rng.choice(len(leaf_ids), size=k, replace=False)
    raw = rng.uniform(0.1, 1.0, size=k)
    return TargetDistribution(
        weights={leaf_ids[j]: float(v) for j, v in zip(picked, raw / raw.sum())}
    )


class TestLazyGreedy:
    """The lazy loop against full rescoring at every step, in both modes.

    The reference, ``full_rescoring.sample_full_rescoring``, is the loop
    ``sample`` ran before aligned mode became lazy; everything must match
    it bit for bit.
    """

    def _assert_matches_full_rescoring(self, pool, tree, budget, kl_weight, target):
        config = SamplerConfig(
            budget=budget, objective=ObjectiveConfig(kl_weight=kl_weight)
        )
        _, lazy = sample(pool, tree, config, target)
        _, full = sample_full_rescoring(pool, tree, config, target)
        # repr tells -0.0 from 0.0
        assert [repr((p.instance_id, p.gain, p.kl, p.joint)) for p in lazy.picks] == [
            repr((p.instance_id, p.gain, p.kl, p.joint)) for p in full.picks
        ]
        assert repr(lazy.final_information) == repr(full.final_information)
        assert repr(lazy.final_kl) == repr(full.final_kl)
        assert lazy.mode == full.mode
        return lazy

    def _run_modes(self, target_rng, tree, pool, budget):
        traces = []
        for kl_weight, aligned in MODES:
            target = _random_target(target_rng, tree) if aligned else None
            traces.append(
                self._assert_matches_full_rescoring(pool, tree, budget, kl_weight, target)
            )
        return traces

    def test_random_trees(self):
        # targets come from their own generator, so the trees, pools and
        # budgets are the ones general mode was checked on before
        rng, target_rng = np.random.default_rng(91), np.random.default_rng(191)
        for _ in range(40):
            tree = random_tree(rng, max_nodes=40)
            pool = random_pool(rng, tree, size=int(rng.integers(5, 60)))
            budget = int(rng.integers(1, len(pool) + 3))
            for lazy in self._run_modes(target_rng, tree, pool, budget):
                assert lazy.full_rescores == min(2, len(lazy.picks))

    def test_quantised_scores_with_exact_ties(self):
        rng, target_rng = np.random.default_rng(92), np.random.default_rng(192)
        for _ in range(40):
            if rng.uniform() < 0.5:
                tree = star_tree(int(rng.integers(2, 6)))
            else:
                tree = random_tree(rng, max_nodes=15)
            pool = _quantised_scores(
                rng, random_pool(rng, tree, size=int(rng.integers(5, 50)))
            )
            budget = int(rng.integers(1, len(pool) + 1))
            for lazy in self._run_modes(target_rng, tree, pool, budget):
                assert lazy.full_rescores == min(2, len(lazy.picks))

    @pytest.mark.parametrize("factor", [1e-5, 1e-6, 1e-7, 1e-8])
    def test_gradient_floor_scale_scores_fall_back(self, factor):
        # accumulated mass between 0 and GRADIENT_FLOOR makes phi' rise as
        # mass grows there, so those iterations must score every candidate
        rng, target_rng = np.random.default_rng(93), np.random.default_rng(193)
        fell_back = [0] * len(MODES)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=40)
            pool = random_pool(rng, tree, size=int(rng.integers(10, 50)))
            pool = _scaled_scores(pool, factor)
            for m, lazy in enumerate(self._run_modes(target_rng, tree, pool, budget=8)):
                fell_back[m] += lazy.full_rescores > 2
        assert all(fell_back)

    def test_pools_mixing_leaf_counts(self):
        # t_d = 1..4 in one pool: one heap per leaf count in aligned mode
        rng, target_rng = np.random.default_rng(94), np.random.default_rng(194)
        for _ in range(15):
            tree = star_tree(int(rng.integers(4, 12)))
            pool = random_pool(rng, tree, size=60, max_leaves_per_record=4)
            assert {len(r.leaves) for r in pool} == {1, 2, 3, 4}
            if rng.uniform() < 0.5:
                pool = _quantised_scores(rng, pool)
            budget = int(rng.integers(3, 60))
            for lazy in self._run_modes(target_rng, tree, pool, budget):
                assert lazy.full_rescores == 2
                assert 0 < lazy.rescored < (len(lazy.picks) - 2) * len(pool)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_arbitrary_small_inputs(self, data):
        n_nodes = data.draw(st.integers(2, 12), label="nodes")
        parents = [None] + [
            data.draw(st.integers(0, i - 1), label=f"parent {i}") for i in range(1, n_nodes)
        ]
        tree = make_tree(parents)
        leaf_ids = [int(x) for x in tree.leaf_ids]
        # a handful of score levels, full scale or at the gradient floor's
        scale = data.draw(st.sampled_from([1.0, 1e-6, 1e-8]), label="scale")
        level = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        pool = [
            AnchoredRecord(
                id=f"r{i:02d}",
                leaves=tuple(
                    data.draw(
                        st.lists(st.sampled_from(leaf_ids), min_size=1, max_size=4),
                        label=f"leaves {i}",
                    )
                ),
                dropped=(),
                quality=data.draw(level) * scale,
                complexity=data.draw(level) * scale,
            )
            for i in range(data.draw(st.integers(1, 25), label="pool size"))
        ]
        kl_weight, aligned = data.draw(st.sampled_from(MODES), label="mode")
        target = None
        if aligned:
            support = data.draw(
                st.lists(st.sampled_from(leaf_ids), min_size=1, unique=True), label="support"
            )
            raw = [data.draw(st.sampled_from([1.0, 2.0, 5.0])) for _ in support]
            target = TargetDistribution(
                weights={leaf: w / sum(raw) for leaf, w in zip(support, raw)}
            )
        budget = data.draw(st.integers(0, len(pool) + 2), label="budget")
        self._assert_matches_full_rescoring(pool, tree, budget, kl_weight, target)

    def test_repeated_leaf_counts_once(self, tiny_tree):
        def pool(leaves):
            return [
                AnchoredRecord(id="dup", leaves=leaves, dropped=(), quality=0.9, complexity=0.9),
                AnchoredRecord(id="one", leaves=(1,), dropped=(), quality=0.6, complexity=0.6),
                AnchoredRecord(id="two", leaves=(2,), dropped=(), quality=0.5, complexity=0.5),
            ]

        target = TargetDistribution(weights={1: 0.5, 2: 0.5})
        aligned = SamplerConfig(
            budget=3, objective=ObjectiveConfig(kl_weight=5.0)
        )
        for config, tgt in ((SamplerConfig(budget=3), None), (aligned, target)):
            _, repeated = sample(pool((1, 1, 2)), tiny_tree, config, tgt)
            _, distinct = sample(pool((1, 2)), tiny_tree, config, tgt)
            assert repeated.picks == distinct.picks
            assert repeated.final_information == distinct.final_information
            assert repeated.final_kl == distinct.final_kl
        # t_d is 2: "dup" is scored with two leaves, not three
        first = repeated.picks[0]
        assert first.instance_id == "dup"
        q = target.dense(tiny_tree.leaf_ids)
        empty = InfoState.empty(3, 2)
        expected = kl_penalty(q, empty, np.array([0, 1], dtype=np.int64))
        np.testing.assert_allclose(first.kl, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_many_small_blocks(self, block, monkeypatch):
        # several blocks per leaf count, and blocks holding only picked
        # candidates, whose -inf keys must never be re-scored or re-picked
        monkeypatch.setattr(sampler, "_BLOCK", block)
        rng = np.random.default_rng(95 + block)
        target_rng = np.random.default_rng(195 + block)
        for trial in range(12):
            tree = star_tree(int(rng.integers(4, 9)))
            pool = random_pool(rng, tree, size=int(rng.integers(5, 40)), max_leaves_per_record=4)
            if trial % 3 == 0:
                pool = _quantised_scores(rng, pool)
            # every third budget reaches past the usable pool
            low = len(pool) if trial % 3 == 1 else 3
            budget = int(rng.integers(low, len(pool) + 3))
            for lazy in self._run_modes(target_rng, tree, pool, budget):
                assert lazy.full_rescores == 2
                assert 0 < lazy.blocks_visited <= lazy.rescored
                if budget >= len(pool):
                    assert len({p.instance_id for p in lazy.picks}) == len(pool)

    def test_counters_pinned(self):
        # mass at the gradient floor's scale makes iterations after 2 start
        # stale too; those count as full rescores only, never in the lazy
        # counters (values recorded from the two-path loop)
        rng = np.random.default_rng(101)
        tree = random_tree(rng, max_nodes=40)
        pool = _scaled_scores(random_pool(rng, tree, size=40, max_leaves_per_record=4), 1e-6)
        target = _random_target(rng, tree)
        with mock.patch.object(sampler, "_BLOCK", 2):
            general = self._assert_matches_full_rescoring(pool, tree, 12, 0.0, None)
            aligned = self._assert_matches_full_rescoring(pool, tree, 12, 5.0, target)
        counters = [(t.full_rescores, t.rescored, t.blocks_visited) for t in (general, aligned)]
        assert counters == [(5, 16, 12), (7, 45, 34)]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_block_argmax_without_a_finite_joint(self):
        # no winner is reported, not raised: the caller refuses the joint
        blocks = _BlockMaxima(np.array([0, 1, 3]), np.array([0, 0, 1]), np.array([1.0, 0.5]))
        log_t = np.log(100.0 + blocks.t_values)
        got = blocks.argmax(np.zeros(2), np.zeros(2), 0.0, log_t, 1e308)  # the bound overflows
        assert got[0] == -1 and math.isnan(got[3])
        assert blocks.argmax(np.full(2, -np.inf)) == (-1, None, None, -math.inf, 2, 2)

    def test_large_pool_default_blocks(self):
        rng, target_rng = np.random.default_rng(96), np.random.default_rng(196)
        tree = random_tree(rng, max_nodes=400)
        pool = random_pool(rng, tree, size=3000, max_leaves_per_record=4)
        for kl_weight, aligned in ((0.0, False), (5.0, True)):
            target = _random_target(target_rng, tree) if aligned else None
            lazy = self._assert_matches_full_rescoring(pool, tree, 40, kl_weight, target)
            assert 0 < lazy.blocks_visited <= lazy.rescored

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_signed_zero_scores_and_mixed_leaf_counts(self, data):
        n_leaves = data.draw(st.integers(4, 7), label="leaves")
        parents = [None] + [0] * n_leaves
        if data.draw(st.booleans(), label="deeper"):
            parents += [1, 1]  # node 1 becomes an inner node with two leaves
        tree = make_tree(parents)
        leaf_ids = [int(x) for x in tree.leaf_ids]
        level = st.sampled_from([0.0, -0.0, 0.5, 1.0])
        pool = [
            AnchoredRecord(
                id=f"r{i:02d}",
                leaves=tuple(
                    data.draw(
                        st.lists(st.sampled_from(leaf_ids), min_size=1, max_size=4, unique=True),
                        label=f"leaves {i}",
                    )
                ),
                dropped=(),
                quality=data.draw(level),
                complexity=data.draw(level),
            )
            for i in range(data.draw(st.integers(1, 30), label="pool size"))
        ]
        kl_weight, aligned = data.draw(st.sampled_from(MODES), label="mode")
        target = None
        if aligned:
            support = data.draw(
                st.lists(st.sampled_from(leaf_ids), min_size=1, unique=True), label="support"
            )
            target = TargetDistribution(weights={leaf: 1 / len(support) for leaf in support})
        budget = data.draw(st.integers(0, len(pool) + 2), label="budget")
        block = data.draw(st.sampled_from([1, 2, 3, 512]), label="block")
        with mock.patch.object(sampler, "_BLOCK", block):
            self._assert_matches_full_rescoring(pool, tree, budget, kl_weight, target)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_block_argmax_with_signed_zero_gradients(self, data):
        # real gradients are positive; here leaf gradients and scores may be
        # +0.0 or -0.0, where summing from 0.0 in CSR order decides the sign
        n_leaves = data.draw(st.integers(4, 6), label="leaves")
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, n_leaves - 1), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=25,
            ),
            label="rows",
        )
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = np.array([j for r in rows for j in sorted(r)], dtype=np.int64)
        n = len(rows)
        h = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n_leaves))
        s = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]),
                                        min_size=n, max_size=n), label="scores"))
        aligned = data.draw(st.booleans(), label="aligned")
        lam = data.draw(st.sampled_from([0.0, 5.0, 1e3]), label="lambda") if aligned else 0.0
        c = data.draw(st.sampled_from([0.0, -1.5, 2.0]), label="c")
        t_values, t_group = np.unique(np.diff(indptr).astype(np.float64), return_inverse=True)
        log_t = np.log(data.draw(st.sampled_from([0.5, 3.0, 40.0]), label="mass") + t_values)

        def vector(values, upper, label):
            drawn = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n_leaves,
                                                max_size=n_leaves), label=label))
            return drawn if upper is None else np.minimum(upper, drawn)

        def full(g, w, selected):
            gains = s * (h @ g)
            if w is None:
                kl, joint, keys = None, gains, gains
            else:
                hw = h @ w
                kl = (c - hw) + log_t[t_group]
                joint, keys = gains - lam * kl, gains + lam * hw
            idx = int(np.argmax(np.where(selected, -np.inf, joint)))
            pick_kl = None if kl is None else float(kl[idx])
            return keys, (idx, float(gains[idx]), pick_kl, float(joint[idx]))

        gradient_values, w_values = [-0.0, 0.0, 0.5, 2.0], [0.0, 0.25, 1.0]
        g = vector(gradient_values, None, "g")
        w = vector(w_values, None, "w") if aligned else None
        selected = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                      label="selected"))
        selected[data.draw(st.integers(0, n - 1), label="free")] = False
        block = data.draw(st.sampled_from([1, 2, 3, 512]), label="block")
        with mock.patch.object(sampler, "_BLOCK", block):
            blocks = _BlockMaxima(indptr, indices, s)
        assert blocks.t_values.tobytes() == t_values.tobytes()
        # earlier picks hold -inf, every other key a finite one far below
        # any joint: the stale step must re-score all of those
        for b, (perm, _, keys, *_) in enumerate(blocks.blocks):
            keys[:] = np.where(selected[perm], -np.inf, -1e300)
            blocks.bmax[b] = keys.max()
        blocks.stale()
        # then lazy steps; keys never rise: later gradients and KL drops
        # are no larger
        for step in range(min(4, int(np.sum(~selected)))):
            if step:
                g = vector(gradient_values, g, f"g {step}")
                w = None if w is None else vector(w_values, w, f"w {step}")
            _, expected = full(g, w, selected)
            got = blocks.argmax(*((g,) if w is None else (g, w, c, log_t, lam)))
            assert repr(got[:4]) == repr(expected)
            assert 0 < got[5] <= got[4]
            if not step:
                assert got[4] == np.sum(~selected)
            selected[got[0]] = True


# ids that differ only in a non-ASCII character or a NUL
_TRICKY_IDS = ["a", "a\x00", "\x00", "a\x00b", "ab", "é", "e\u0301", "e", "ü", "Z", "\u00ff\x00"]


class TestColumnarSetup:
    """The columnar set-up against the record-based ``_rank_candidates`` and
    ``_leaf_matrix`` in ``record_setup``, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_record_setup(self, data):
        n_nodes = data.draw(st.integers(2, 12), label="nodes")
        parents = [None] + [
            data.draw(st.integers(0, i - 1), label=f"parent {i}") for i in range(1, n_nodes)
        ]
        tree = make_tree(parents)
        leaf_ids = [int(x) for x in tree.leaf_ids]
        node_ids = leaf_ids
        if data.draw(st.integers(0, 3), label="non-leaf ids") == 0:
            # the root, inner nodes and ids no node has
            node_ids = leaf_ids + [i for i in range(-1, n_nodes + 1) if i not in leaf_ids] + [2**40]
        leaf = st.sampled_from(node_ids)
        ids = data.draw(
            st.lists(st.sampled_from(_TRICKY_IDS), max_size=40, unique=data.draw(st.booleans())),
            label="ids",
        )
        level = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])  # ties, and -0.0 == 0.0
        records = [
            AnchoredRecord(
                id=rid,
                # duplicates and any order; empty rows are unanchorable
                leaves=tuple(data.draw(st.lists(leaf, max_size=4), label=f"leaves {rid!r}")),
                dropped=(),
                quality=data.draw(level),
                complexity=data.draw(level),
            )
            for rid in ids
        ]
        alpha = data.draw(st.sampled_from([0.0, 0.5, 0.7, 1.0]), label="alpha")
        pool = AnchoredPool.from_records(records)
        assert list(pool) == records

        usable = [r for r in records if r.leaves]
        cand, s = _rank_candidates(usable, alpha)
        try:
            want = _leaf_matrix(cand, tree.leaf_pos, len(leaf_ids))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _candidate_setup(pool, tree, alpha)
            assert str(got.value) == str(exc)
            with pytest.raises(ValueError) as got:
                sample(pool, tree, SamplerConfig(budget=1, objective=ObjectiveConfig(alpha=alpha)))
            assert str(got.value) == str(exc)
            return
        rows, got_s, indptr, indices = _candidate_setup(pool, tree, alpha)
        assert repr([pool[i] for i in rows.tolist()]) == repr(cand)
        assert got_s.dtype == s.dtype and got_s.tobytes() == s.tobytes()
        # scipy may hold the reference's index arrays as int32
        for a, b in ((indptr, want.indptr), (indices, want.indices)):
            assert a.dtype == np.int64 and a.tobytes() == b.astype(np.int64).tobytes()

        kl_weight, aligned = data.draw(st.sampled_from(MODES), label="mode")
        target = TargetDistribution(weights={leaf_ids[0]: 1.0}) if aligned else None
        config = SamplerConfig(
            budget=data.draw(st.integers(0, len(records) + 1), label="budget"),
            objective=ObjectiveConfig(alpha=alpha, kl_weight=kl_weight),
        )
        from_pool = sample(pool, tree, config, target)
        from_list = sample(list(pool), tree, config, target)
        assert repr(from_pool) == repr(from_list)

    def test_non_leaf_message(self, tiny_tree):
        records = [
            AnchoredRecord(id="a", leaves=(1,), dropped=(), quality=0.5, complexity=0.5),
            AnchoredRecord(id="b", leaves=(2, 0), dropped=(), quality=0.9, complexity=0.9),
            AnchoredRecord(id="c", leaves=(7,), dropped=(), quality=0.1, complexity=0.1),
        ]
        for pool in (records, AnchoredPool.from_records(records)):
            with pytest.raises(ValueError, match="^record 'b' references non-leaf node 0$"):
                sample(pool, tiny_tree, SamplerConfig(budget=1))

    def test_picks_are_the_input_records(self, tiny_tree, worked_pool):
        chosen, trace = sample(worked_pool, tiny_tree, SamplerConfig(budget=4))
        by_id = {r.id: r for r in worked_pool}
        assert chosen == [by_id[p.instance_id] for p in trace.picks]
        assert all(type(r) is AnchoredRecord for r in chosen)


class TestAgainstExactGreedy:
    """``sample`` scores first-order gains and ``oracle.greedy_exact`` exact
    ones, so their picks may differ; both must still be well-formed
    selections whose reported value is the exact value of their picks."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_selection_invariants(self, data):
        n_nodes = data.draw(st.integers(2, 9), label="nodes")
        tree = make_tree(
            [None] + [data.draw(st.integers(0, i - 1)) for i in range(1, n_nodes)]
        )
        leaf_ids = [int(x) for x in tree.leaf_ids]
        level = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        pool = [
            AnchoredRecord(
                id=f"r{i:02d}",
                leaves=tuple(data.draw(st.lists(st.sampled_from(leaf_ids), max_size=3))),
                dropped=(),
                quality=data.draw(level),
                complexity=data.draw(level),
            )
            for i in range(data.draw(st.integers(0, 7), label="pool size"))
        ]
        usable = [r for r in pool if r.leaves]
        kl_weight, aligned = data.draw(st.sampled_from(MODES), label="mode")
        target = None
        if aligned:
            support = data.draw(
                st.lists(st.sampled_from(leaf_ids), min_size=1, unique=True), label="support"
            )
            raw = [data.draw(st.sampled_from([1.0, 2.0, 5.0])) for _ in support]
            target = TargetDistribution(
                weights={leaf: w / sum(raw) for leaf, w in zip(support, raw)}
            )
        budget = data.draw(st.integers(0, len(pool) + 2), label="budget")
        obj = ObjectiveConfig(kl_weight=kl_weight)
        expected = min(budget, len(usable))

        def exact_value(chosen):
            scores = [obj.alpha * r.quality + (1.0 - obj.alpha) * r.complexity for r in chosen]
            info = exact_information(chosen, scores, tree, obj.gamma)
            kl = None
            if aligned:
                kl = _leaf_distribution_kl(target.weights, chosen, tree, obj.epsilon)
            return info, kl

        selected, trace = sample(pool, tree, SamplerConfig(budget=budget, objective=obj), target)
        ids = [p.instance_id for p in trace.picks]
        assert len(set(ids)) == len(ids) == expected
        assert [r.id for r in selected] == ids
        info, kl = exact_value(selected)
        assert math.isclose(trace.final_information, info, rel_tol=1e-9, abs_tol=1e-300)
        if aligned:
            assert math.isclose(trace.final_kl, kl, rel_tol=1e-9, abs_tol=1e-12)

        greedy_ids, value = greedy_exact(
            usable, budget, tree, obj.gamma, obj.alpha, kl_weight,
            target.weights if aligned else None, obj.epsilon,
        )
        assert len(set(greedy_ids)) == len(greedy_ids) == expected
        by_id = {r.id: r for r in usable}
        info, kl = exact_value([by_id[i] for i in greedy_ids])
        want = info - kl_weight * kl if kl_weight > 0.0 else info
        assert math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-300)


class TestDeriveTarget:
    def test_counts_normalized(self, tiny_tree):
        records = [
            AnchoredRecord(id="a", leaves=(1,), dropped=(), quality=0.5, complexity=0.5),
            AnchoredRecord(id="b", leaves=(1, 2), dropped=(), quality=0.5, complexity=0.5),
        ]
        target = derive_target(records, tiny_tree)
        np.testing.assert_allclose(target.weights[1], 2 / 3)
        np.testing.assert_allclose(target.weights[2], 1 / 3)

    def test_empty_reference_rejected(self, tiny_tree):
        records = [
            AnchoredRecord(id="a", leaves=(), dropped=("x",), quality=0.5, complexity=0.5)
        ]
        with pytest.raises(ValueError, match="no anchored leaves"):
            derive_target(records, tiny_tree)

    def test_non_leaf_reference_rejected(self, tiny_tree):
        records = [
            AnchoredRecord(id="a", leaves=(0,), dropped=(), quality=0.5, complexity=0.5)
        ]
        with pytest.raises(ValueError, match="non-leaf"):
            derive_target(records, tiny_tree)


class TestExport:
    def _run(self, tiny_tree, worked_pool, budget=2):
        return sample(worked_pool, tiny_tree, SamplerConfig(budget=budget))

    def test_rows_without_pool(self, tmp_path, tiny_tree, worked_pool):
        import json

        selected, trace = self._run(tiny_tree, worked_pool)
        path = tmp_path / "subset.jsonl"
        export_subset(selected, trace, None, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["a", "b"]
        assert rows[0]["iteration"] == 1 and rows[1]["iteration"] == 2
        for row in rows:
            assert "kl" not in row
            assert row["leaves"] == [1]
            assert set(row) == {
                "id", "quality", "complexity", "leaves", "iteration", "gain", "joint",
            }

    def test_rows_with_pool_round_trip(self, tmp_path, tiny_tree, worked_pool):
        originals = [
            Instance(
                id=r.id, query=f"Q{r.id}", response=f"R{r.id}",
                tags=("l1",) if r.leaves == (1,) else ("l2",),
                quality=r.quality, complexity=r.complexity,
            )
            for r in worked_pool
        ]
        selected, trace = self._run(tiny_tree, worked_pool)
        path = tmp_path / "subset.jsonl"
        export_subset(selected, trace, originals, path)
        reloaded, report = load_instances(path)
        assert report.ok
        by_id = {i.id: i for i in originals}
        for inst in reloaded:
            assert inst == by_id[inst.id]

    def test_missing_pool_id_is_error(self, tmp_path, tiny_tree, worked_pool):
        selected, trace = self._run(tiny_tree, worked_pool)
        with pytest.raises(ValueError, match="missing from original pool"):
            export_subset(selected, trace, [], tmp_path / "x.jsonl")

    def test_trace_file_contains_kl(self, tmp_path, tiny_tree, worked_pool):
        import json

        target = TargetDistribution(weights={1: 0.5, 2: 0.5})
        selected, trace = sample(
            worked_pool,
            tiny_tree,
            SamplerConfig(budget=2, objective=ObjectiveConfig(kl_weight=5.0)),
            target,
        )
        path = tmp_path / "trace.json"
        write_trace(trace, path)
        payload = json.loads(path.read_text())
        assert payload["mode"] == "aligned"
        assert payload["selected"] == 2
        assert all(p["kl"] is not None for p in payload["picks"])
        assert payload["final_kl"] == trace.final_kl


def _write_or_error(write, *args):
    """The bytes a writer leaves at its path (the last argument), or its error."""
    path = args[-1]
    try:
        write(*args)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc), path.exists()
    return path.read_bytes()


# scores and gains as library callers may pass them: ints, bools, numpy
# scalars, -0.0, subnormals and the non-finite floats
_NUMBER = (
    st.floats()
    | st.integers()
    | st.booleans()
    | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, 10**20])
)
_TEXT = st.text(max_size=4) | st.sampled_from(['a"b', "a\\b", "\n\t\x00", "é名", " "])


class TestWritersMatchReference:
    """``export_subset`` and ``write_trace`` write the bytes of the
    ``dumps_canonical`` writers in ``canonical_writers``, and refuse what
    they refuse with the same error. They refuse before opening the file."""

    def _compare(self, tmp_path, selected, trace, pool):
        for name in ("export_subset", "write_trace"):
            args = (selected, trace, pool) if name == "export_subset" else (trace,)
            got = _write_or_error(getattr(sampler, name), *args, tmp_path / f"new_{name}")
            want = _write_or_error(getattr(canonical_writers, name), *args,
                                   tmp_path / f"ref_{name}")
            if isinstance(want, tuple):
                assert got[:2] == want[:2]
                assert not got[2]  # refused before the file was opened
            else:
                assert got == want

    @pytest.mark.parametrize("aligned", [False, True])
    @pytest.mark.parametrize("with_pool", [False, True])
    def test_runs(self, tmp_path, aligned, with_pool):
        rng = np.random.default_rng(7)
        tree = random_tree(rng, max_nodes=40)
        records = random_pool(rng, tree, 60)
        # an id that needs escaping, and integer scores from a library caller
        records[3] = replace(records[3], id='q"\\\n\x01é', quality=1, complexity=0)
        target = None
        objective = ObjectiveConfig()
        if aligned:
            target = TargetDistribution(
                weights={int(leaf): 1.0 / len(tree.leaf_ids) for leaf in tree.leaf_ids}
            )
            objective = ObjectiveConfig(kl_weight=2.0)
        selected, trace = sample(records, tree, SamplerConfig(budget=25, objective=objective),
                                 target)
        assert (trace.final_kl is None) == (not aligned)
        assert all((p.kl is None) == (not aligned) for p in trace.picks)
        pool = None
        if with_pool:
            pool = [
                Instance(id=r.id, query=f"Q\t{r.id}", response="R ", tags=("t", 'x"'),
                         quality=i, complexity=float(i) / 3)
                for i, r in enumerate(records)
            ]
        self._compare(tmp_path, selected, trace, pool)
        self._compare(tmp_path, selected, trace, InstancePool.from_records(pool) if pool else None)

    def test_negative_zero_and_none(self, tmp_path):
        records = [AnchoredRecord(id="a", leaves=(1, 2), dropped=(), quality=-0.0,
                                  complexity=0.5)]
        picks = [Pick(iteration=1, instance_id="a", gain=-0.0, kl=None, joint=-0.0)]
        trace = SelectionTrace(picks=picks, final_information=-0.0, final_kl=None,
                               budget_requested=1, pool_size=1, unanchorable=0,
                               mode="general")
        self._compare(tmp_path, records, trace, None)
        assert b'"gain":-0,"kl":null,"joint":-0' in (tmp_path / "new_write_trace").read_bytes()

    @pytest.mark.parametrize("where", ["quality", "leaves", "gain", "joint", "final"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_refused_before_opening(self, tmp_path, where, bad):
        records = [
            AnchoredRecord(id=i, leaves=(1,), dropped=(), quality=0.5, complexity=0.5)
            for i in ("a", "b")
        ]
        picks = [Pick(iteration=k + 1, instance_id=r.id, gain=0.25, kl=0.5, joint=0.5)
                 for k, r in enumerate(records)]
        if where == "quality":
            records[1] = replace(records[1], quality=bad)
        elif where == "leaves":
            records[1] = replace(records[1], leaves=(1, bad))
        elif where != "final":
            picks[1] = replace(picks[1], **{where: bad})
        trace = SelectionTrace(picks=picks, final_information=bad if where == "final" else 1.0,
                               final_kl=math.nan, budget_requested=2, pool_size=2,
                               unanchorable=0, mode="aligned")
        self._compare(tmp_path, records, trace, None)
        with pytest.raises(ValueError, match="cannot serialize non-finite number"):
            write_trace(trace, tmp_path / "t.json")
        assert not (tmp_path / "t.json").exists()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(_TEXT, st.lists(st.integers(-3, 2**64) | _NUMBER, max_size=3),
                      _NUMBER, _NUMBER, _NUMBER, _NUMBER | st.none(), _NUMBER,
                      st.integers(0, 10)),
            max_size=4,
        ),
        st.sampled_from([None, "list", "pool", "missing"]),
        st.booleans(),
        _NUMBER,
        _NUMBER | st.none(),
    )
    def test_arbitrary_values(self, tmp_path_factory, rows, pool_kind, reorder, info, kl):
        records, picks, instances = [], [], []
        for k, (rid, leaves, q, c, gain, pick_kl, joint, step) in enumerate(rows):
            records.append(AnchoredRecord(id=rid, leaves=tuple(leaves), dropped=(),
                                          quality=q, complexity=c))
            picks.append(Pick(iteration=step, instance_id=rid, gain=gain, kl=pick_kl,
                              joint=joint))
            instances.append(Instance(id=rid, query=rid * 2, response="r", tags=(rid, "t"),
                                      quality=c, complexity=q))
        if reorder and len(picks) > 1:
            picks.reverse()
        pool = {
            None: None,
            "list": instances,
            "pool": InstancePool.from_records(instances),
            "missing": instances[1:],
        }[pool_kind]
        trace = SelectionTrace(picks=picks, final_information=info, final_kl=kl,
                               budget_requested=len(rows), pool_size=len(rows),
                               unanchorable=0, mode="general")
        self._compare(tmp_path_factory.mktemp("w"), records, trace, pool)


class TestSampleSetup:
    def test_budget_zero_builds_no_blocks(self, tiny_tree, worked_pool):
        with mock.patch.object(sampler, "_BlockMaxima", side_effect=AssertionError):
            selected, trace = sample(worked_pool, tiny_tree, SamplerConfig(budget=0))
        assert selected == [] and trace.picks == []
