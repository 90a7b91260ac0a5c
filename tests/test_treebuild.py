"""Taxonomy construction tests: kmeans, level clustering, refinement, full build."""
from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforest import (
    EmbeddingTable,
    TreeBuildConfig,
    ValidationReport,
    build_tree,
    kmeans,
    save_tree,
    sha256_file,
    validate_tree,
)
from tagforest import treebuild
from tagforest.io import _row_blocks, _unit_rows
from tagforest.treebuild import (
    _SEED_BATCH,
    ClusterLevel,
    _assign,
    _centroids,
    _cluster_sse,
    _plus_plus_init,
    _rows_within,
    _weighted_draw,
    cluster_level,
    refine_clusters,
)

import sequential_kmeans as sequential
import unpruned_kmeans as unpruned

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _partition(labels: np.ndarray, k: int) -> set[frozenset]:
    return {
        frozenset(np.nonzero(labels == c)[0].tolist())
        for c in range(k)
        if np.any(labels == c)
    }


def _blobs(rng: np.random.Generator, n_blobs: int, per_blob: int, dim: int, scale=0.05):
    centers = rng.normal(size=(n_blobs, dim)) * 3.0
    points = np.vstack(
        [rng.normal(loc=c, scale=scale, size=(per_blob, dim)) for c in centers]
    )
    truth = {
        frozenset(range(per_blob * i, per_blob * (i + 1))) for i in range(n_blobs)
    }
    return points, truth


class TestKmeans:
    def test_square_corners_worked_example(self):
        # the two stable balanced partitions have SSE 2; the 3-1 trap has
        # 2.667 — restarts must land on a balanced split for every seed,
        # with centroids at opposite edge midpoints
        for seed in range(10):
            labels, centers, sse = kmeans(SQUARE, 2, seed)
            np.testing.assert_allclose(sse, 2.0, rtol=1e-12)
            parts = _partition(labels, 2)
            assert parts in (
                {frozenset({0, 1}), frozenset({2, 3})},
                {frozenset({0, 2}), frozenset({1, 3})},
            )
            mids = np.sort(np.abs(centers).ravel())
            np.testing.assert_allclose(mids[:2], 0.0, atol=1e-12)
            np.testing.assert_allclose(mids[2:], np.sqrt(0.5), rtol=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(91)
        points = rng.normal(size=(40, 6))
        a = kmeans(points, 5, seed=[7, 3])
        b = kmeans(points, 5, seed=[7, 3])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_blob_recovery(self):
        rng = np.random.default_rng(92)
        points, truth = _blobs(rng, 4, 25, 8)
        for seed in range(10):
            labels, _, _ = kmeans(points, 4, seed)
            assert _partition(labels, 4) == truth

    def test_duplicates_collapse(self):
        # 6 copies of 2 distinct points, k=4: only 2 clusters can be filled
        points = np.vstack([np.tile([1.0, 0.0], (6, 1)), np.tile([0.0, 1.0], (6, 1))])
        labels, _, sse = kmeans(points, 4, seed=0)
        assert sse == 0.0
        parts = _partition(labels, 4)
        assert parts == {frozenset(range(6)), frozenset(range(6, 12))}

    def test_k_bounds(self):
        points = np.eye(3)
        with pytest.raises(ValueError):
            kmeans(points, 0, seed=0)
        with pytest.raises(ValueError):
            kmeans(points, 4, seed=0)

    def test_k_equals_n(self):
        labels, _, sse = kmeans(np.eye(4), 4, seed=1)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]
        np.testing.assert_allclose(sse, 0.0, atol=1e-20)

    def test_restarts_beyond_sys_maxsize_reach_lloyd(self, monkeypatch):
        # the restarts left are a plain int: a range of 2**64 has no len
        class Reached(Exception):
            pass

        def lloyd(*args):
            raise Reached

        monkeypatch.setattr(treebuild, "_lloyd", lloyd)
        with pytest.raises(Reached):
            kmeans(SQUARE, 2, seed=0, restarts=2**64)

    def test_unit_normalization_makes_scale_irrelevant(self):
        rng = np.random.default_rng(93)
        points = rng.normal(size=(30, 5))
        scaled = points * rng.uniform(0.5, 20.0, size=(30, 1))
        a, _, _ = kmeans(points, 4, seed=5)
        b, _, _ = kmeans(scaled, 4, seed=5)
        np.testing.assert_array_equal(a, b)


class TestClusterLevel:
    def test_partitions_all_indices(self):
        rng = np.random.default_rng(94)
        emb = rng.normal(size=(20, 4))
        names = [f"t{i}" for i in range(20)]
        level = cluster_level(names, emb, 5, seed=0)
        flat = sorted(i for m in level.members for i in m)
        assert flat == list(range(20))
        assert len(level.names) == len(level.members) == len(level.centroids)

    def test_provisional_names_are_medoids(self):
        emb = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0]])
        names = ["right-a", "right-b", "up"]
        level = cluster_level(names, emb, 2, seed=0)
        for name, members in zip(level.names, level.members):
            assert name in {names[i] for i in members}

    def test_k_must_contract(self):
        emb = np.eye(3)
        with pytest.raises(ValueError):
            cluster_level(["a", "b", "c"], emb, 3, seed=0)

    def test_duplicate_inputs_drop_empty_clusters(self):
        emb = np.tile([1.0, 0.0], (5, 1))
        level = cluster_level([f"t{i}" for i in range(5)], emb, 3, seed=0)
        assert len(level.members) < 3
        assert sorted(i for m in level.members for i in m) == list(range(5))


class TestRefiner:
    def test_deduplicate_merges_canonical_names(self):
        # two clusters whose names canonicalize identically fold into one
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        level = ClusterLevel(
            members=[[0], [1]],
            centroids=emb.copy(),
            names=["Topic  A", "topic a"],
        )
        refined = refine_clusters(level, ["x", "y"], emb)
        assert refined.members == [[0, 1]]
        assert refined.names == ["Topic  A"]

    def test_reassign_moves_to_nearest_centroid(self):
        # cluster 1 holds an outlier; its mean sits nearer member 1's
        # neighbour in cluster 0, so member 1 must migrate there
        emb = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        level = ClusterLevel(
            members=[[0], [1, 2]],
            centroids=np.array([[1.0, 0.0], [0.45, 0.55]]),
            names=["right", "up"],
        )
        refined = refine_clusters(level, ["a", "b", "c"], emb)
        assert refined.members == [[0, 1], [2]]
        assert refined.names == ["right", "up"]

    def test_refined_level_still_partitions(self):
        rng = np.random.default_rng(96)
        emb = rng.normal(size=(25, 4))
        names = [f"t{i}" for i in range(25)]
        level = cluster_level(names, emb, 6, seed=2)
        refined = refine_clusters(level, names, emb)
        flat = sorted(i for m in refined.members for i in m)
        assert flat == list(range(25))
        assert len(refined.names) == len(refined.members) == len(refined.centroids)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_members_match_per_point_reference(self, data):
        # integer-grid points collide and tie often; the vectorised pass
        # must agree with a plain per-node argmin after merging
        n = data.draw(st.integers(2, 30))
        dim = data.draw(st.integers(2, 4))
        grid = np.array(
            data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                               min_size=n, max_size=n)),
            dtype=np.float64,
        )
        grid[~grid.any(axis=1)] = 1.0
        k = data.draw(st.integers(1, n))
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        members = [[i for i in range(n) if labels[i] == c] for c in range(k)]
        members = [m for m in members if m]
        cluster_names = data.draw(
            st.lists(st.sampled_from(["a", "A", " a ", "b", "c"]),
                     min_size=len(members), max_size=len(members))
        )
        level = ClusterLevel(
            members=members,
            centroids=np.zeros((len(members), dim)),
            names=cluster_names,
        )
        refined = refine_clusters(level, [f"t{i}" for i in range(n)], grid)

        unit = grid / np.linalg.norm(grid, axis=1, keepdims=True)
        merged: dict[str, list[int]] = {}
        for name, m in zip(cluster_names, members):
            merged.setdefault(" ".join(name.lower().split()), []).extend(m)
        centroids = np.vstack([np.mean(unit[sorted(m)], axis=0) for m in merged.values()])
        nearest = [int(np.argmin(np.sum((centroids - x) ** 2, axis=1))) for x in unit]
        expected = [
            [i for i in range(n) if nearest[i] == c] for c in range(len(centroids))
        ]
        assert refined.members == [m for m in expected if m]


def _draw_points(data) -> np.ndarray:
    """Unit rows, as k-means sees them: tie-heavy integer grids, a few
    distinct rows repeated, or random directions."""
    kind = data.draw(st.sampled_from(["grid", "duplicates", "random"]), label="kind")
    n = data.draw(st.integers(1, 40), label="n")
    dim = data.draw(st.integers(1, 5), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "random":
        points = rng.normal(size=(n, dim))
    else:
        base = rng.integers(-2, 3, size=(n if kind == "grid" else 3, dim)).astype(np.float64)
        base[~base.any(axis=1)] = 1.0
        points = base if kind == "grid" else base[rng.integers(0, 3, size=n)]
    return _unit_rows(points)


class TestPrunedPasses:
    """The pruned seeding, assignment and reassignment against the
    unpruned passes in ``unpruned_kmeans``, bit for bit, and the seeding's
    draw against ``rng.choice``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_seeding_matches_full_passes(self, data):
        points = _draw_points(data)
        k = data.draw(st.integers(1, len(points)), label="k")
        seed = data.draw(st.integers(0, 1000), label="rng seed")
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        (chosen,), (d2,), _ = _plus_plus_init(points, k, [fast_rng])
        centers = points[chosen]
        ref_centers, ref_d2 = unpruned.plus_plus_init(points, k, ref_rng)
        np.testing.assert_array_equal(centers, ref_centers)
        np.testing.assert_array_equal(d2, ref_d2)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
        if k > len(np.unique(points, axis=0)):
            assert not d2.any()  # every point coincides with a center: the fallback ran

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 6000),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
        scale=st.sampled_from([1e-300, 1e-12, 1.0, 1e12]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weighted_draw_is_rng_choice(self, n, zero_share, scale, seed):
        values = np.random.default_rng(seed)
        d2 = values.random(n) * scale
        d2[values.random(n) < zero_share] = 0.0
        d2[values.integers(n)] = scale  # at least one positive weight
        total = float(d2.sum())
        fast_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(3):
            assert _weighted_draw(d2, total, fast_rng) == int(ref_rng.choice(n, p=d2 / total))
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_assignment_matches_expanded_form(self, data):
        points = _draw_points(data)
        k = data.draw(st.integers(1, len(points)), label="k")
        labels = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=len(points),
                               max_size=len(points)), label="labels")
        )
        centers = _centroids(points, labels, k)  # empty clusters sit at 0
        np.testing.assert_array_equal(_assign(points, centers), unpruned.assign(points, centers))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_reassignment_matches_every_column(self, data):
        points = _draw_points(data)
        n = len(points)
        if data.draw(st.booleans(), label="coinciding"):
            # copy c of every row goes to cluster c: all merged centroids
            # coincide and every node ties, so the lowest index must win
            copies = data.draw(st.integers(2, 4), label="copies")
            points = np.tile(points, (copies, 1))
            members = [list(range(c * n, (c + 1) * n)) for c in range(copies)]
        else:
            k = data.draw(st.integers(1, n), label="k")
            labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
            members = [[i for i in range(n) if labels[i] == c] for c in range(k)]
            members = [m for m in members if m]
        cluster_names = data.draw(
            st.lists(st.sampled_from(["a", "A", " a ", "b", "c", "d", "e"]),
                     min_size=len(members), max_size=len(members)),
            label="names",
        )
        level = ClusterLevel(
            members=members, centroids=np.zeros((len(members), points.shape[1])),
            names=cluster_names,
        )
        names = [f"t{i}" for i in range(len(points))]
        got = refine_clusters(level, names, points)
        want = unpruned.refine_clusters(level, names, points)
        assert got.members == want.members
        assert got.names == want.names
        np.testing.assert_array_equal(got.centroids, want.centroids)

    def test_rows_within_keeps_every_possible_winner_and_prunes(self):
        rng = np.random.default_rng(7)
        centres = _unit_rows(rng.normal(size=(20, 16)))
        points = _unit_rows(centres[rng.integers(0, 20, size=2000)]
                            + 0.05 * rng.normal(size=(2000, 16)))
        sq = np.sum(points**2, axis=1)
        d2 = np.sum((points - points[0]) ** 2, axis=1)
        for c in points[1:200]:
            rows = _rows_within(points, sq, c, d2)
            direct = np.sum((points - c) ** 2, axis=1)
            skipped = np.ones(len(points), dtype=bool)
            skipped[rows] = False
            assert np.all(direct[skipped] > d2[skipped])
            d2 = np.minimum(d2, direct)
        assert len(rows) < len(points) // 4


TESTS = os.path.dirname(os.path.abspath(__file__))
# the BLAS settings of perfbench/run.py
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class TestBlockedProducts:
    """Products taken a block of rows at a time (``io._row_blocks``) against
    one product over every row, and the memory of one call."""

    @pytest.mark.parametrize("check", ["assign", "similarity"])
    def test_blocks_match_one_product(self, check):
        # bit for bit with one BLAS thread only, so in a child process
        env = {
            **os.environ,
            **ONE_BLAS_THREAD,
            "PYTHONPATH": os.pathsep.join([os.path.join(os.path.dirname(TESTS), "src"), TESTS]),
        }
        proc = subprocess.run(
            [sys.executable, os.path.join(TESTS, "blocked_products.py"), check],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_seeding_pair_blocks_match_full_passes(self):
        # the first step keeps nearly every (restart, point) pair: three
        # blocks of pairs
        rng = np.random.default_rng(3)
        points = _unit_rows(rng.normal(size=(3000, 64)))
        seeds = [11, 12, 13, 14]
        assert len(_row_blocks(len(seeds) * 3000, 64)) == 3
        chosen, d2, _ = _plus_plus_init(points, 20, [np.random.default_rng(s) for s in seeds])
        for b, s in enumerate(seeds):
            ref_centers, ref_d2 = unpruned.plus_plus_init(points, 20, np.random.default_rng(s))
            _assert_same_bits(points[chosen[b]], ref_centers)
            _assert_same_bits(d2[b], ref_d2)

    @staticmethod
    def _peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_assign_holds_one_block(self):
        # n = 5,000, k = 500: one product over every row is 20 MB
        rng = np.random.default_rng(4)
        points = _unit_rows(rng.normal(size=(5000, 64)))
        centers = _unit_rows(rng.normal(size=(500, 64)))
        block = max(r.stop - r.start for r in _row_blocks(5000, 500)) * 500 * 8
        assert self._peak(_assign, points, centers) < 1.5 * block

    def test_seeding_holds_one_block_of_pairs(self):
        # n = 5,000, k = 500, a batch of restarts: at the first step one
        # gather of every kept pair held 21 MB. A block of pairs holds two
        # gathered (pairs, dim) arrays next to a few (restarts, n) arrays.
        rng = np.random.default_rng(4)
        points = _unit_rows(rng.normal(size=(5000, 64)))
        rngs = [np.random.default_rng(s) for s in range(_SEED_BATCH)]
        block = _row_blocks(_SEED_BATCH * 5000, 64)[0].stop * 64 * 8
        assert self._peak(_plus_plus_init, points, 500, rngs) < 4 * block


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bytes: unlike assert_array_equal, tells
    -0.0 from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLockStepKmeans:
    """Lock-step seeding, replayed generators and bincount cluster sums
    against the sequential k-means in ``sequential_kmeans``, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_kmeans_matches_sequential(self, data):
        # restarts cross the batch size and leave a short last batch; with
        # fewer distinct points than k every restart stops drawing partway,
        # so the rest of its batch is seeded again
        points = _draw_points(data)
        k = data.draw(st.integers(1, len(points)), label="k")
        restarts = data.draw(st.integers(1, 20), label="restarts")
        seed = data.draw(st.integers(0, 1000), label="rng seed")
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        labels, centers, sse = kmeans(points, k, fast_rng, restarts=restarts)
        ref_labels, ref_centers, ref_sse = sequential.kmeans(
            points, k, ref_rng, restarts=restarts
        )
        _assert_same_bits(labels, ref_labels)
        _assert_same_bits(centers, ref_centers)
        _assert_same_bits(sse, ref_sse)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("restarts", [1, _SEED_BATCH, 2 * _SEED_BATCH + 3])
    def test_restarts_that_stop_drawing_match_sequential(self, restarts):
        # 4 distinct rows, k = 6: each restart draws 3 times instead of 5, so
        # the first batch keeps only its first restart, and the rest are
        # seeded again, replayed with 3 draws each
        rng = np.random.default_rng(5)
        points = _unit_rows(rng.normal(size=(4, 3)))[rng.integers(0, 4, size=30)]
        fast_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = kmeans(points, 6, fast_rng, restarts=restarts)
        want = sequential.kmeans(points, 6, ref_rng, restarts=restarts)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kmeans_matches_sequential_at_size(self, seed):
        # pairwise sums over more than one 128-element block, and a last
        # batch of one restart
        rng = np.random.default_rng(seed)
        points = _unit_rows(rng.normal(size=(40, 16))[rng.integers(0, 40, size=2000)]
                            + 0.2 * rng.normal(size=(2000, 16)))
        got = kmeans(points, 150, [seed, 1], restarts=_SEED_BATCH + 1)
        want = sequential.kmeans(points, 150, [seed, 1], restarts=_SEED_BATCH + 1)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_batched_seeding_matches_each_restart(self, data):
        points = _draw_points(data)
        k = data.draw(st.integers(1, len(points)), label="k")
        seeds = data.draw(st.lists(st.integers(0, 1000), min_size=1,
                                   max_size=2 * _SEED_BATCH), label="seeds")
        rngs = [np.random.default_rng(s) for s in seeds]
        chosen, d2, draws = _plus_plus_init(points, k, rngs)
        distinct = len(np.unique(points, axis=0))
        for b, s in enumerate(seeds):
            ref_rng = np.random.default_rng(s)
            ref_centers, ref_d2 = unpruned.plus_plus_init(points, k, ref_rng)
            _assert_same_bits(points[chosen[b]], ref_centers)
            _assert_same_bits(d2[b], ref_d2)
            assert rngs[b].bit_generator.state == ref_rng.bit_generator.state
            assert draws[b] == min(k, distinct) - 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_cluster_sums_match_add_at(self, data):
        points = _draw_points(data)
        n, dim = points.shape
        negative_zero = np.array(
            data.draw(st.lists(st.booleans(), min_size=n * dim, max_size=n * dim),
                      label="-0.0"),
        ).reshape(n, dim)
        points = np.where(negative_zero, -0.0, points)
        k = data.draw(st.integers(1, n + 3), label="k")  # k > n leaves clusters empty
        labels = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                      label="labels"),
            dtype=np.int64,
        )
        centers = _centroids(points, labels, k)
        _assert_same_bits(centers, sequential._centroids(points, labels, k))
        for got, want in zip(_cluster_sse(points, labels, centers, k),
                             sequential._cluster_sse(points, labels, centers, k)):
            _assert_same_bits(got, want)

    def test_centroids_match_the_sparse_product(self):
        # the cluster x point CSR product _centroids replaced, rows in point order
        from scipy import sparse

        rng = np.random.default_rng(77)
        for case in range(200):
            n, dim = int(rng.integers(1, 60)), int(rng.integers(1, 9))
            k = 1 if case % 4 == 0 else int(rng.integers(1, n + 4))  # k > n leaves clusters empty
            points = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-300, 300, size=(n, dim))
            points[rng.random((n, dim)) < 0.2] = -0.0
            points[rng.random((n, dim)) < 0.1] = 0.0
            labels = rng.integers(0, k, size=n)
            counts = np.bincount(labels, minlength=k)
            indptr = np.zeros(k + 1, dtype=np.intp)
            np.cumsum(counts, out=indptr[1:])
            members = sparse.csr_array(
                (np.ones(n), np.argsort(labels, kind="stable"), indptr), shape=(k, n)
            )
            want = (members @ points) / np.where(counts == 0, 1.0, counts)[:, None]
            _assert_same_bits(_centroids(points, labels, k), want)

    def test_all_negative_zero_cluster_sums_to_zero(self):
        # np.add.at adds onto 0.0, so a cluster of -0.0 rows sums to +0.0
        points = np.array([[-0.0, 1.0], [-0.0, -1.0], [1.0, -0.0]])
        labels = np.array([0, 0, 2])
        centers = _centroids(points, labels, 3)
        _assert_same_bits(centers, sequential._centroids(points, labels, 3))
        assert not np.signbit(centers[:, 0]).any()

def _grid_case(s: int):
    rng = np.random.default_rng(s)
    n = int(rng.integers(10, 300))
    dim = int(rng.integers(2, 5))
    points = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    points[~points.any(axis=1)] = 1.0
    table = EmbeddingTable(dimension=dim)
    tags = [f"t{i}" for i in range(n)]
    for tag, vec in zip(tags, points):
        table.entries[tag] = vec
    return tags, table, TreeBuildConfig(seed=s, branching=int(rng.integers(2, 8)))


# save_tree digests of tie-heavy integer-grid inputs. Seeds 8, 12, 25 and
# 32 change if reassignment uses the expanded ||c||^2 - 2 x.c distance
# instead of summing (c - x)^2 directly.
GRID_TREE_SHA256 = {
    0: "8dfddacb3150ffd9b348e77eb29d2eda594fe76b027a7db3efa36dbed13411db",
    8: "454096700fb3d40271b55d35cdd4f3ad262889b155ab5a39d088919af8635bc6",
    12: "ee967c695c89f3aa6e45b83ed26b713fb377ea9c9fbc0a9bc55d49e1f3080424",
    25: "25c5dcdf3b45fffebcb948ebb631a6c450af5360967662e500420fdcedd7fd80",
    32: "9bc64ea7aa2b22b8dc4f16a136d26195164ac6fefc3d245c5bc35c42cf0034b8",
}


@pytest.mark.parametrize("seed", sorted(GRID_TREE_SHA256))
def test_tie_heavy_grid_tree_bytes_pinned(seed, tmp_path):
    path = tmp_path / "tree.json"
    save_tree(build_tree(*_grid_case(seed)), path)
    assert sha256_file(path) == GRID_TREE_SHA256[seed]


def _blob_case(
    seed: int,
    restarts: int = TreeBuildConfig.kmeans_restarts,
    depth_limit: int = TreeBuildConfig.depth_limit,
):
    rng = np.random.default_rng(1000 + seed)
    dim = 32
    centers = rng.normal(size=(60, dim))
    points = centers[rng.integers(0, 60, size=1500)] + 0.3 * rng.normal(size=(1500, dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    table = EmbeddingTable(dimension=dim)
    tags = [f"b{i}" for i in range(len(points))]
    for tag, vec in zip(tags, points):
        table.entries[tag] = vec
    config = TreeBuildConfig(
        seed=seed, branching=10.0, kmeans_restarts=restarts, depth_limit=depth_limit
    )
    return tags, table, config


# save_tree digests of 1,500 unit tags around 60 centers in 32 dimensions,
# keyed by (seed, kmeans_restarts), recorded from the k-means that seeded
# each restart on its own. With 11 restarts seed 4 keeps a restart
# of the second batch; with 8 it builds a different tree.
BLOB_TREE_SHA256 = {
    (0, 8): "023b61dcbb6441f44b079fd88c1ed814953a52178951d6e3bbdd24c4f5dd5e9e",
    (1, 8): "a057ad74a48fb99c4822977cc5453d256e2a655034b1eb31edbc1d6d8fdc5838",
    (2, 8): "52c4398fa99021321f5085e9a506779711d2a6fa63b5a470945bf15403e06382",
    (3, 8): "52a1763b012182656379bfde4c4a2ee089402556ba673967830c19e879c4014d",
    (4, 11): "507b52f03cc4833d3eeea5aa524fff0af98c8067e5c2656d085c78b91044cd87",
}


@pytest.mark.parametrize("seed, restarts", sorted(BLOB_TREE_SHA256))
def test_blob_tree_bytes_pinned(seed, restarts, tmp_path):
    path = tmp_path / "tree.json"
    save_tree(build_tree(*_blob_case(seed, restarts)), path)
    assert sha256_file(path) == BLOB_TREE_SHA256[seed, restarts]


# save_tree digests of builds cut by the depth limit, so a synthetic root
# caps the last level, recorded from the builder that linked draft nodes.
# Blob cases are keyed by (seed, depth_limit); the hashed cases build 300
# tags with no embedding table, so every leaf is a fallback vector, keyed
# by depth_limit (1 puts the root straight over the leaves).
CAPPED_BLOB_TREE_SHA256 = {
    (0, 2): "1dbf521bf772a19587c85008e0a842ec3bf14ef5a75996f1336ad1b758bbcc28",
    (0, 3): "ddfcc0bc1381761f90951f6c9c81ff187172a51b70781d676d5eb5f7ad4ba90c",
    (2, 3): "892d30ee5998b4c1309f685b9f597ed430dcbb52198cf9132c07ba471d86481b",
}
HASHED_TREE_SHA256 = {
    1: "c56ac67d3c72e4097add3abc08426df8ec808811e3eebc59e8baa30637033c56",
    3: "cb86675786b42e5707cf51d91dc71175a8eb2ea63ae85b709a8e26d51f595f9b",
}


@pytest.mark.parametrize("seed, depth_limit", sorted(CAPPED_BLOB_TREE_SHA256))
def test_capped_blob_tree_bytes_pinned(seed, depth_limit, tmp_path):
    path = tmp_path / "tree.json"
    tree = build_tree(*_blob_case(seed, depth_limit=depth_limit))
    assert tree.node(tree.root_id).name == "root"
    save_tree(tree, path)
    assert sha256_file(path) == CAPPED_BLOB_TREE_SHA256[seed, depth_limit]


@pytest.mark.parametrize("depth_limit", sorted(HASHED_TREE_SHA256))
def test_hashed_tree_bytes_pinned(depth_limit, tmp_path):
    path = tmp_path / "tree.json"
    tags = [f"h{i}" for i in range(300)]
    tree = build_tree(tags, None, TreeBuildConfig(seed=5, branching=6.0, depth_limit=depth_limit))
    assert tree.node(tree.root_id).name == "root"
    save_tree(tree, path)
    assert sha256_file(path) == HASHED_TREE_SHA256[depth_limit]


class TestBuildTree:
    def test_leaf_set_is_exactly_the_tags(self):
        rng = np.random.default_rng(97)
        tags = [f"tag{i}" for i in range(40)]
        tree = build_tree(tags, None, TreeBuildConfig(seed=1, branching=4.0))
        assert validate_tree(tree).ok
        leaf_names = sorted(tree.node(int(i)).name for i in tree.leaf_ids)
        assert leaf_names == sorted(tags)
        del rng

    def test_duplicate_tags_deduplicated(self):
        tree = build_tree(["a", "b", "a", "c", "b"], None, TreeBuildConfig(seed=0))
        leaf_names = sorted(tree.node(int(i)).name for i in tree.leaf_ids)
        assert leaf_names == ["a", "b", "c"]

    def test_single_tag_single_node(self):
        tree = build_tree(["only"], None)
        assert tree.n_nodes == 1
        assert tree.node(0).name == "only"
        assert tree.node(0).is_leaf() and tree.node(0).parent is None

    def test_two_tags_flat(self):
        tree = build_tree(["x", "y"], None, TreeBuildConfig(depth_limit=2, seed=0))
        assert tree.max_depth() == 1
        assert tree.n_nodes == 3
        assert sorted(tree.node(int(i)).name for i in tree.leaf_ids) == ["x", "y"]

    def test_depth_limit_one_forces_star(self):
        tags = [f"t{i}" for i in range(30)]
        tree = build_tree(tags, None, TreeBuildConfig(depth_limit=1, seed=0))
        assert tree.max_depth() == 1
        assert tree.node(tree.root_id).name == "root"
        assert len(tree.node(tree.root_id).children) == 30

    def test_depth_limit_respected(self):
        tags = [f"t{i}" for i in range(120)]
        for limit in (2, 3, 10):
            tree = build_tree(
                tags, None, TreeBuildConfig(depth_limit=limit, branching=3.0, seed=2)
            )
            assert validate_tree(tree).ok
            assert tree.max_depth() <= limit

    def test_deterministic(self):
        tags = [f"t{i}" for i in range(50)]
        cfg = TreeBuildConfig(seed=11, branching=4.0)
        t1 = build_tree(tags, None, cfg)
        t2 = build_tree(tags, None, cfg)
        assert t1 == t2

    def test_seed_changes_tree(self):
        tags = [f"t{i}" for i in range(50)]
        t1 = build_tree(tags, None, TreeBuildConfig(seed=0, branching=4.0))
        t2 = build_tree(tags, None, TreeBuildConfig(seed=12345, branching=4.0))
        # not guaranteed in principle, but these seeds differ in practice;
        # guards against the seed being silently ignored
        assert t1 != t2

    def test_blob_tags_recovered_at_level_one(self):
        rng = np.random.default_rng(98)
        dim = 8
        centers = rng.normal(size=(4, dim)) * 3.0
        table = EmbeddingTable(dimension=dim)
        blob_names: list[set[str]] = []
        for b in range(4):
            group = set()
            for j in range(25):
                name = f"b{b}_t{j}"
                table.entries[name] = centers[b] + rng.normal(size=dim) * 0.05
                group.add(name)
            blob_names.append(group)
        tags = [name for group in blob_names for name in sorted(group)]
        tree = build_tree(
            tags, table, TreeBuildConfig(branching=25.0, depth_limit=3, seed=3)
        )
        root = tree.node(tree.root_id)
        assert len(root.children) == 4
        found = []
        for cid in root.children:
            node = tree.node(cid)
            members = {tree.node(leaf).name for leaf in node.children}
            found.append(members)
        assert {frozenset(g) for g in blob_names} == {frozenset(m) for m in found}

    def test_missing_embeddings_warn_and_fall_back(self):
        table = EmbeddingTable(dimension=4)
        table.entries["known"] = np.array([1.0, 0.0, 0.0, 0.0])
        report = ValidationReport()
        tree = build_tree(["known", "unknown"], table, TreeBuildConfig(seed=0), report)
        assert validate_tree(tree).ok
        assert any("unknown" in loc for _, loc, _ in report.warnings)

    def test_internal_embeddings_are_member_means(self):
        table = EmbeddingTable(dimension=2)
        table.entries["x"] = np.array([1.0, 0.0])
        table.entries["y"] = np.array([0.0, 1.0])
        tree = build_tree(["x", "y"], table, TreeBuildConfig(seed=0))
        root = tree.node(tree.root_id)
        kids = [tree.node(c).embedding for c in root.children]
        np.testing.assert_allclose(root.embedding, np.mean(np.vstack(kids), axis=0))

    def test_empty_tag_list_rejected(self):
        with pytest.raises(ValueError):
            build_tree([], None)

    def test_kmeans_restarts_bounded(self):
        assert TreeBuildConfig(kmeans_restarts=10_000).kmeans_restarts == 10_000
        for bad in (0, 10_001, 10**20, float("nan")):
            with pytest.raises(ValueError, match=r"kmeans_restarts must be in \[1, 10000\]"):
                TreeBuildConfig(kmeans_restarts=bad)

    def test_node_ids_bfs_ordered(self):
        tags = [f"t{i}" for i in range(60)]
        tree = build_tree(tags, None, TreeBuildConfig(seed=4, branching=4.0))
        depths = [n.depth for n in tree.nodes]
        assert depths == sorted(depths)  # BFS ids: depth non-decreasing in id
        # each node's children are consecutive ids, and in id order these
        # runs follow one another with no gaps
        runs = [c for n in tree.nodes for c in n.children]
        assert runs == list(range(1, len(tree.nodes)))
