"""Acceptance gate: one test per shipping criterion, with timing bounds.

Each test prints a single ``criterion N: PASS`` line (visible with -s);
under ``pytest -v`` the per-test PASSED/FAILED status is the per-criterion
verdict. Every tolerance and case count below is part of the contract —
do not loosen them to make a failure go away.
"""
from __future__ import annotations

import math
import time

import numpy as np

from tagforest import (
    AnchoredRecord,
    EmbeddingTable,
    Instance,
    ObjectiveConfig,
    SamplerConfig,
    TagTree,
    TargetDistribution,
    TreeBuildConfig,
    TreeNode,
    build_ancestry_matrix,
    build_propagation_matrix,
    build_tree,
    composite_score,
    derive_target,
    export_subset,
    gradient_vector,
    sample,
)
from tagforest.oracle import (
    exact_information,
    exact_marginal_gain,
    exhaustive_optimum,
    greedy_exact,
)

from conftest import random_pool, random_tree, star_tree
from path_lifting import (
    anchor_instance,
    from_contributions,
    marginal_gain_approx,
    raw_info_vector,
    subset_information,
)

GAMMA = 0.85


def _passed(num: int, bound: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.2f}s)"
    print(f"criterion {num}: PASS — {detail} [{elapsed:.2f}s < {bound:.0f}s]")


def _info_vec(rec: AnchoredRecord, tree: TagTree, anc) -> tuple[np.ndarray, np.ndarray]:
    h = np.zeros(len(anc.leaf_ids), dtype=np.int64)
    positions = np.array(
        sorted(tree.leaf_pos[l] for l in set(rec.leaves)), dtype=np.int64
    )
    h[positions] = 1
    score = composite_score(rec.quality, rec.complexity)
    return raw_info_vector(score, anc.tree_counts(h)), positions


def _single_leaf_pool(ids_leaves_scores) -> list[AnchoredRecord]:
    return [
        AnchoredRecord(id=i, leaves=(leaf,), dropped=(), quality=s, complexity=s)
        for i, leaf, s in ids_leaves_scores
    ]


class TestAcceptance:
    def test_criterion_01_structural_exactness(self):
        # every ancestry/propagation invariant on 1000 random trees
        started = time.monotonic()
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            tree = random_tree(rng, max_nodes=200)
            n = tree.n_nodes
            anc = build_ancestry_matrix(tree)
            prop = build_propagation_matrix(tree)

            depths = np.array([tree.node(int(l)).depth for l in anc.leaf_ids])
            m = anc.matrix
            assert m.dtype == np.int64
            assert np.all(m.data == 1)  # binary entries
            col_sums = np.asarray(m.sum(axis=0)).ravel()
            assert np.array_equal(col_sums, depths + 1)

            # column support is exactly the root-to-leaf path; leaf rows
            # follow as the identity
            csc = m.tocsc()
            for j, leaf in enumerate(anc.leaf_ids):
                support = csc.indices[csc.indptr[j] : csc.indptr[j + 1]]
                path = tree.ancestors_and_self(int(leaf))
                assert sorted(int(x) for x in support) == sorted(path)

            deg = np.zeros(n, dtype=np.float64)
            for node in tree.nodes:
                deg[node.id] = len(node.children) + (node.parent is not None)
            expected_diag = 1.0 / (1.0 + deg)
            a = prop.matrix.tocsr()
            a.sort_indices()
            assert np.all(a.data >= 0.0)
            row_sums = np.asarray(a.sum(axis=1)).ravel()
            assert np.max(np.abs(row_sums - 1.0)) <= 1e-12
            assert np.array_equal(a.diagonal(), expected_diag)
            for node in tree.nodes:
                hood = sorted(
                    [node.id]
                    + list(node.children)
                    + ([node.parent] if node.parent is not None else [])
                )
                row = a.indices[a.indptr[node.id] : a.indptr[node.id + 1]]
                assert row.tolist() == hood  # sparsity = adjacency + diagonal
                vals = a.data[a.indptr[node.id] : a.indptr[node.id + 1]]
                assert np.all(vals == expected_diag[node.id])

            again_m = build_ancestry_matrix(tree).matrix
            again_a = build_propagation_matrix(tree).matrix
            assert (again_m != m).nnz == 0  # deterministic rebuild
            assert (again_a != prop.matrix).nnz == 0
        _passed(1, 5.0, started, "1000 trees, all matrix invariants exact")

    def test_criterion_02_worked_singleton(self, tiny_tree):
        started = time.monotonic()
        inst = Instance(
            id="x", query="q", response="r", tags=("l1",), quality=1.0, complexity=1.0
        )
        profile = anchor_instance(inst, tiny_tree, None)
        prop = build_propagation_matrix(tiny_tree)
        engine = subset_information([profile], [1.0], prop, GAMMA)
        oracle = exact_information(
            [AnchoredRecord(id="x", leaves=(1,), dropped=(), quality=1.0, complexity=1.0)],
            [1.0],
            tiny_tree,
            GAMMA,
        )
        assert abs(engine - oracle) < 1e-6
        assert abs(engine - 2.2632563101384577) < 1e-6
        _passed(2, 1.0, started, f"singleton I = {engine:.10f}")

    def test_criterion_03_oracle_equivalence(self):
        # sparse subset_information vs dense exact_information, 500 cases
        started = time.monotonic()
        rng = np.random.default_rng(1003)
        for case in range(500):
            tree = random_tree(rng, max_nodes=60)
            pool_size = int(rng.integers(1, 51))
            pool = random_pool(rng, tree, size=pool_size, prefix=f"c{case}_")
            subset_size = int(rng.integers(0, min(20, pool_size) + 1))
            idx = rng.choice(pool_size, size=subset_size, replace=False)
            subset = [pool[i] for i in idx]

            anc = build_ancestry_matrix(tree)
            prop = build_propagation_matrix(tree)
            profiles, scores = [], []
            for rec in subset:
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
            engine = subset_information(profiles, scores, prop, GAMMA)
            oracle = exact_information(subset, scores, tree, GAMMA)
            np.testing.assert_allclose(engine, oracle, rtol=1e-9)
        _passed(3, 30.0, started, "500 random subsets match the dense oracle")

    def test_criterion_04_submodularity_and_taylor(self):
        started = time.monotonic()
        rng = np.random.default_rng(1004)

        # diminishing returns: gain(D, d) >= gain(D', d) for D subset of D'
        for _ in range(200):
            tree = random_tree(rng, max_nodes=40)
            pool = random_pool(rng, tree, size=10)
            scores = [composite_score(r.quality, r.complexity) for r in pool]
            for _ in range(5):
                d_idx = int(rng.integers(0, len(pool)))
                rest = [i for i in range(len(pool)) if i != d_idx]
                k2 = int(rng.integers(1, len(rest) + 1))
                k1 = int(rng.integers(0, k2))
                small = [pool[i] for i in rest[:k1]]
                big = [pool[i] for i in rest[:k2]]
                gain_small = exact_marginal_gain(
                    small, [scores[i] for i in rest[:k1]],
                    pool[d_idx], scores[d_idx], tree, GAMMA,
                )
                gain_big = exact_marginal_gain(
                    big, [scores[i] for i in rest[:k2]],
                    pool[d_idx], scores[d_idx], tree, GAMMA,
                )
                assert gain_small >= gain_big - 1e-9

        # Taylor dominance: first-order gain bounds the exact gain above
        for _ in range(200):
            tree = random_tree(rng, max_nodes=40)
            anc = build_ancestry_matrix(tree)
            prop = build_propagation_matrix(tree)
            n_leaves = len(anc.leaf_ids)
            pool = random_pool(rng, tree, size=8)
            scores = [composite_score(r.quality, r.complexity) for r in pool]
            for _ in range(5):
                d_idx = int(rng.integers(0, len(pool)))
                others = [i for i in range(len(pool)) if i != d_idx]
                k = int(rng.integers(1, len(others) + 1))  # nonempty state
                chosen = others[:k]
                vecs, pos_lists = [], []
                for i in chosen:
                    vec, positions = _info_vec(pool[i], tree, anc)
                    vecs.append(vec)
                    pos_lists.append(positions)
                state = from_contributions(prop, vecs, pos_lists, n_leaves)
                grad = gradient_vector(state, prop, GAMMA)
                cand_vec, _ = _info_vec(pool[d_idx], tree, anc)
                approx = marginal_gain_approx(grad, cand_vec)
                exact = exact_marginal_gain(
                    [pool[i] for i in chosen], [scores[i] for i in chosen],
                    pool[d_idx], scores[d_idx], tree, GAMMA,
                )
                assert approx >= exact - 1e-9
        _passed(4, 60.0, started, "1000 triples + 1000 Taylor bounds hold")

    def test_criterion_05_greedy_quality(self):
        started = time.monotonic()
        rng = np.random.default_rng(1005)
        ratio_floor = 1.0 - 1.0 / math.e
        worst = 1.0
        for case in range(50):
            tree = random_tree(rng, max_nodes=30)
            pool = random_pool(rng, tree, size=12, prefix=f"g{case}_")
            greedy_ids, greedy_val = greedy_exact(pool, 4, tree, GAMMA)
            best_ids, best_val = exhaustive_optimum(pool, 4, tree, GAMMA)
            assert greedy_val <= best_val + 1e-12
            assert greedy_val >= ratio_floor * best_val - 1e-9
            worst = min(worst, greedy_val / best_val)
        _passed(5, 120.0, started, f"worst greedy/optimal ratio {worst:.4f}")

    def test_criterion_06_incremental_integrity(self):
        # the sampler's incremental state never drifts from a from-scratch
        # recomputation of every pick
        started = time.monotonic()
        rng = np.random.default_rng(1006)
        for case in range(20):
            tree = random_tree(rng, max_nodes=200)
            pool = random_pool(rng, tree, size=500, prefix=f"p{case}_")
            budget = 100
            selected, trace = sample(pool, tree, SamplerConfig(budget=budget))
            assert len(trace.picks) == budget

            anc = build_ancestry_matrix(tree)
            prop = build_propagation_matrix(tree)
            n_leaves = len(anc.leaf_ids)
            vec_list, pos_list, s_list, ids = [], [], [], []
            for rec in pool:
                vec, positions = _info_vec(rec, tree, anc)
                vec_list.append(vec)
                pos_list.append(positions)
                s_list.append(composite_score(rec.quality, rec.complexity))
                ids.append(rec.id)
            e_matrix = np.vstack(vec_list)

            chosen_idx: list[int] = []
            chosen_set: set[int] = set()
            by_id = {rec.id: i for i, rec in enumerate(pool)}
            for pick in trace.picks:
                state = from_contributions(
                    prop,
                    [vec_list[i] for i in chosen_idx],
                    [pos_list[i] for i in chosen_idx],
                    n_leaves,
                )
                grad = gradient_vector(state, prop, GAMMA)
                gains = e_matrix @ grad
                best = None
                for i in range(len(pool)):
                    if i in chosen_set:
                        continue
                    key = (-gains[i], -s_list[i], ids[i])
                    if best is None or key < best[0]:
                        best = (key, i)
                assert best is not None
                assert ids[best[1]] == pick.instance_id
                np.testing.assert_allclose(
                    gains[best[1]], pick.gain, rtol=1e-9, atol=1e-12
                )
                chosen_idx.append(by_id[pick.instance_id])
                chosen_set.add(by_id[pick.instance_id])
            assert [r.id for r in selected] == [p.instance_id for p in trace.picks]
        _passed(6, 60.0, started, "20 pools x 100 picks replayed exactly")

    def test_criterion_07_mode_reduction(self, tmp_path):
        # aligned mode at lambda=0 writes the byte-identical subset file
        started = time.monotonic()
        rng = np.random.default_rng(1007)
        for case in range(10):
            tree = random_tree(rng, max_nodes=60)
            pool = random_pool(rng, tree, size=120, prefix=f"m{case}_")
            target = derive_target(
                random_pool(rng, tree, size=30, prefix=f"ref{case}_"), tree
            )
            sel_g, trace_g = sample(pool, tree, SamplerConfig(budget=40))
            sel_a, trace_a = sample(
                pool, tree, SamplerConfig(budget=40), target
            )
            path_g = tmp_path / f"general_{case}.jsonl"
            path_a = tmp_path / f"aligned_{case}.jsonl"
            export_subset(sel_g, trace_g, None, path_g)
            export_subset(sel_a, trace_a, None, path_a)
            assert path_g.read_bytes() == path_a.read_bytes()
        _passed(7, 30.0, started, "10 pools byte-identical across modes")

    def test_criterion_08_alignment_pressure(self):
        started = time.monotonic()
        tree = star_tree(50)
        leaf_ids = [int(x) for x in tree.leaf_ids]

        # final KL vs a derived target is non-increasing in lambda
        inversions_per_seed = []
        for seed in range(10):
            rng = np.random.default_rng(8000 + seed)
            pool = random_pool(rng, tree, size=2000, prefix=f"s{seed}_")
            # held-out reference skewed onto the first ten leaves
            ref_weights = np.arange(10, 0, -1, dtype=np.float64)
            ref_weights /= ref_weights.sum()
            ref = _single_leaf_pool(
                (f"ref{seed}_{i}", int(rng.choice(leaf_ids[:10], p=ref_weights)), 0.5)
                for i in range(400)
            )
            target = derive_target(ref, tree)
            kls = []
            for lam in (0.0, 1.0, 5.0, 25.0):
                cfg = SamplerConfig(
                    budget=200,
                    objective=ObjectiveConfig(kl_weight=lam),
                )
                _, trace = sample(pool, tree, cfg, target)
                assert trace.final_kl is not None
                kls.append(trace.final_kl)
            inversions = sum(
                1 for a, b in zip(kls, kls[1:]) if b > a + 1e-12
            )
            assert inversions <= 1, f"seed {seed}: KL series {kls}"
            inversions_per_seed.append(inversions)

        # lambda=100 with a point-mass target: every pick hits the target
        # leaf until no such candidate remains. Off-target candidates carry
        # strictly higher composite scores AND fresher leaves, so both gain
        # channels prefer them; the KL term must overrule every time. The
        # score gap is bounded (0.02) because the first-order gain amplifies
        # it by the root-row gradient mass (~L/2 * phi'), while the KL edge
        # shrinks like lambda*ln(1 + 1/c_t) as target counts c_t grow.
        target_leaf = leaf_ids[7]
        other_leaves = [l for l in leaf_ids if l != target_leaf]
        for seed in range(10):
            rng = np.random.default_rng(8100 + seed)
            n_target = 150
            rows = [(f"hit{i:04d}", target_leaf, 0.5) for i in range(n_target)]
            rows += [
                (
                    f"miss{i:04d}",
                    int(rng.choice(other_leaves)),
                    0.51 + 0.01 * float(rng.uniform()),
                )
                for i in range(1850)
            ]
            pool = _single_leaf_pool(rows)
            cfg = SamplerConfig(
                budget=300, objective=ObjectiveConfig(kl_weight=100.0)
            )
            selected, trace = sample(
                pool, tree, cfg, TargetDistribution(weights={target_leaf: 1.0})
            )
            assert len(selected) == 300
            for rec in selected[:n_target]:
                assert rec.leaves == (target_leaf,)
        _passed(
            8,
            300.0,
            started,
            f"KL monotone (inversions {inversions_per_seed}); point-mass picks 100%",
        )

    def test_criterion_09_worker_determinism(self, tmp_path):
        started = time.monotonic()
        rng = np.random.default_rng(1009)
        tree = random_tree(rng, max_nodes=150)
        pool = random_pool(rng, tree, size=2000)
        runs = {}
        for workers in (1, 4, 8):
            selected, trace = sample(
                pool, tree, SamplerConfig(budget=300, workers=workers)
            )
            path = tmp_path / f"w{workers}.jsonl"
            export_subset(selected, trace, None, path)
            runs[workers] = (selected, trace, path.read_bytes())
        base_sel, base_trace, base_bytes = runs[1]
        for workers in (4, 8):
            sel, trace, raw = runs[workers]
            assert [r.id for r in sel] == [r.id for r in base_sel]
            for pa, pb in zip(base_trace.picks, trace.picks):
                assert pa.instance_id == pb.instance_id
                assert pa.gain == pb.gain
                assert pa.joint == pb.joint
            assert raw == base_bytes
        _passed(9, 120.0, started, "workers {1,4,8} byte-identical")

    def test_criterion_10_throughput(self):
        # pool construction is excluded; the bounds cover selection itself
        nodes = [TreeNode(id=0, name="root", parent=None, children=[], depth=0)]
        for g in range(25):
            gid = len(nodes)
            nodes.append(TreeNode(id=gid, name=f"g{g}", parent=0, children=[], depth=1))
            nodes[0].children.append(gid)
        for g in range(25):
            gid = 1 + g
            for l in range(40):
                lid = len(nodes)
                nodes.append(
                    TreeNode(id=lid, name=f"g{g}_l{l}", parent=gid, children=[], depth=2)
                )
                nodes[gid].children.append(lid)
        tree = TagTree(nodes=nodes)
        assert tree.n_leaves == 1000

        rng = np.random.default_rng(1010)
        leaves = tree.leaf_ids
        pool = []
        for i in range(100_000):
            k = int(rng.integers(1, 4))
            ls = tuple(sorted(int(x) for x in rng.choice(leaves, size=k, replace=False)))
            pool.append(
                AnchoredRecord(
                    id=f"r{i:06d}",
                    leaves=ls,
                    dropped=(),
                    quality=float(rng.uniform()),
                    complexity=float(rng.uniform()),
                )
            )

        started = time.monotonic()
        t0 = time.monotonic()
        sel_1, _ = sample(pool, tree, SamplerConfig(budget=5000, workers=1))
        t_single = time.monotonic() - t0
        t0 = time.monotonic()
        sel_8, _ = sample(pool, tree, SamplerConfig(budget=5000, workers=8))
        t_eight = time.monotonic() - t0
        assert len(sel_1) == 5000
        assert [r.id for r in sel_1] == [r.id for r in sel_8]
        assert t_single < 60.0, f"single-threaded took {t_single:.1f}s"
        assert t_eight < 15.0, f"8 workers took {t_eight:.1f}s"
        _passed(
            10,
            80.0,
            started,
            f"5000/100k selected in {t_single:.1f}s (1 worker), {t_eight:.1f}s (8)",
        )

    def test_criterion_11_tree_builder_recovery(self):
        started = time.monotonic()
        rng = np.random.default_rng(1011)
        dim = 8
        centers = rng.normal(size=(4, dim)) * 3.0
        table = EmbeddingTable(dimension=dim)
        blobs: list[set[str]] = []
        for b in range(4):
            group = set()
            for j in range(25):
                name = f"b{b}_t{j}"
                table.entries[name] = centers[b] + rng.normal(size=dim) * 0.05
                group.add(name)
            blobs.append(group)
        tags = [name for group in blobs for name in sorted(group)]
        expected = {frozenset(g) for g in blobs}

        for seed in range(10):
            tree = build_tree(
                tags, table, TreeBuildConfig(branching=25.0, depth_limit=3, seed=seed)
            )
            root = tree.node(tree.root_id)
            assert len(root.children) == 4
            found = {
                frozenset(tree.node(leaf).name for leaf in tree.node(cid).children)
                for cid in root.children
            }
            assert found == expected, f"seed {seed} split does not match blobs"
        _passed(11, 10.0, started, "4 planted blobs recovered on 10/10 seeds")
