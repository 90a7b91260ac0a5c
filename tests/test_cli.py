"""End-to-end command-line tests: exit codes, file outputs, manifests."""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tagforest
from tagforest import (
    ObjectiveConfig,
    SamplerConfig,
    TreeBuildConfig,
    __version__,
    load_anchored,
    load_instances,
    load_target,
    load_tree,
    normalize_scores,
    sample,
    save_tree,
    sha256_file,
)
from tagforest import anchoring, cli
from tagforest.anchoring import DEFAULT_MIN_SIMILARITY, anchor_pool
from tagforest.cli import _write_manifests, main
from tagforest.sampler import export_subset

from conftest import random_tree
from node_walk_matrices import ancestors_and_self

TAG_NAMES = [
    "algebra", "geometry", "calculus",
    "python", "javascript", "rust",
    "poetry", "fiction", "essay",
]
GROUP_AXIS = {  # tag -> (axis, jitter slot)
    "algebra": 0, "geometry": 0, "calculus": 0,
    "python": 1, "javascript": 1, "rust": 1,
    "poetry": 2, "fiction": 2, "essay": 2,
}

# (id, tags, quality, complexity); p11 has no tags and is unanchorable;
# "essay" is deliberately used by nobody so one leaf stays at count zero.
POOL_ROWS = [
    ("p00", ["algebra"], 0.9, 0.3),
    ("p01", ["geometry", "calculus"], 0.7, 0.8),
    ("p02", ["calculus"], 0.5, 0.5),
    ("p03", ["python"], 0.95, 0.6),
    ("p04", ["javascript", "rust"], 0.4, 0.9),
    ("p05", ["rust"], 0.6, 0.7),
    ("p06", ["poetry"], 0.8, 0.2),
    ("p07", ["fiction"], 0.3, 0.4),
    ("p08", ["poetry", "fiction"], 0.85, 0.55),
    ("p09", ["algebra", "python"], 0.75, 0.65),
    ("p10", ["geometry", "poetry"], 0.55, 0.35),
    ("p11", [], 0.99, 0.99),
]

# sha256 of the anchored file TestAnchor.test_manifest_counts_tag_resolutions writes
ANCHORED_WITH_VARIANTS_SHA256 = "5b6f879771ecfce58d10831f3557319790fa45d11b76b12f7e5161aa88801d2b"


def _write_workspace(root) -> dict[str, str]:
    tags_path = root / "tags.txt"
    tags_path.write_text("".join(f"{t}\n" for t in TAG_NAMES), encoding="utf-8")

    lines = [f"dim=4 count={len(TAG_NAMES)}"]
    for i, tag in enumerate(TAG_NAMES):
        vec = [0.0, 0.0, 0.0, 0.05 * (i + 1)]
        vec[GROUP_AXIS[tag]] = 1.0
        lines.append(f"{tag}\t" + " ".join(repr(v) for v in vec))
    emb_path = root / "emb.tsv"
    emb_path.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")

    pool_path = root / "pool.jsonl"
    with open(pool_path, "w", encoding="utf-8") as f:
        for iid, tags, q, c in POOL_ROWS:
            row = {
                "id": iid,
                "query": f"question for {iid}",
                "response": f"answer for {iid}",
                "tags": tags,
                "quality": q,
                "complexity": c,
            }
            f.write(json.dumps(row) + "\n")
    return {"tags": str(tags_path), "emb": str(emb_path), "pool": str(pool_path)}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Full pipeline run: tree, anchored pool, target, plus source files."""
    root = tmp_path_factory.mktemp("cli_ws")
    paths = _write_workspace(root)
    paths["tree"] = str(root / "tree.json")
    paths["anchored"] = str(root / "anchored.jsonl")
    paths["target"] = str(root / "target.json")
    assert main([
        "build-tree", "--tags", paths["tags"], "--embeddings", paths["emb"],
        "--branching", "3", "--seed", "1", "-o", paths["tree"],
    ]) == 0
    assert main([
        "anchor", "--tree", paths["tree"], "--pool", paths["pool"],
        "-o", paths["anchored"],
    ]) == 0
    assert main([
        "derive-target", "--anchored", paths["anchored"], "--tree", paths["tree"],
        "-o", paths["target"],
    ]) == 0
    return paths


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m tagforest`` in a child that imports the same package
    as this process, installed or not."""
    src = os.path.dirname(os.path.dirname(tagforest.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "tagforest", *argv], capture_output=True, text=True, env=env
    )


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_module_entry_point(self):
        proc = _run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestBuildTree:
    def test_builds_valid_tree(self, ws, capsys):
        tree = load_tree(ws["tree"])
        assert tree.n_nodes == 13  # 9 leaves + 3 groups + root
        assert tree.n_leaves == 9
        leaf_names = sorted(tree.node(int(i)).name for i in tree.leaf_ids)
        assert leaf_names == sorted(TAG_NAMES)

    def test_manifest_sidecar(self, ws):
        with open(ws["tree"] + ".manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        assert set(manifest) == {
            "command", "parameters", "inputs", "seed", "version",
            "started_utc", "wall_clock_seconds",
        }
        assert manifest["command"] == "build-tree"
        assert manifest["version"] == __version__
        assert manifest["seed"] == 1
        assert manifest["parameters"]["branching"] == 3.0
        for digest in manifest["inputs"].values():
            assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert ws["tags"] in manifest["inputs"] and ws["emb"] in manifest["inputs"]

    def test_missing_tags_file(self, tmp_path, capsys):
        rc = main(["build-tree", "--tags", str(tmp_path / "nope.txt")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_tags_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n", encoding="utf-8")
        rc = main(["build-tree", "--tags", str(empty), "-o", str(tmp_path / "t.json")])
        assert rc == 2
        assert "no tags" in capsys.readouterr().err

    def test_bad_depth_rejected(self, ws, tmp_path, capsys):
        rc = main([
            "build-tree", "--tags", ws["tags"], "--depth", "0",
            "-o", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "depth_limit" in capsys.readouterr().err


class TestAnchor:
    def test_anchored_output(self, ws):
        records = load_anchored(ws["anchored"])
        assert len(records) == 12
        by_id = {r.id: r for r in records}
        assert len(by_id["p11"].leaves) == 0  # no tags -> unanchorable
        assert all(len(by_id[i].leaves) > 0 for i in by_id if i != "p11")

    def test_reports_unanchorable_on_stderr(self, ws, tmp_path, capsys):
        rc = main([
            "anchor", "--tree", ws["tree"], "--pool", ws["pool"],
            "-o", str(tmp_path / "a.jsonl"),
        ])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "anchored 11/12" in out
        assert "unanchorable: p11" in err

    def test_missing_tree(self, ws, tmp_path, capsys):
        rc = main([
            "anchor", "--tree", str(tmp_path / "nope.json"), "--pool", ws["pool"],
            "-o", str(tmp_path / "a.jsonl"),
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_embedding_dimension_mismatch(self, ws, tmp_path, capsys):
        # the tree was built from 4-d embeddings; a 3-d table must be
        # rejected up front, not fail inside the similarity product
        emb = tmp_path / "emb3.tsv"
        emb.write_text("dim=3 count=1\nnumber-theory\t1.0 0.0 0.0\n", encoding="utf-8")
        pool = tmp_path / "pool.jsonl"
        pool.write_text(
            json.dumps({"id": "q0", "query": "q", "response": "r",
                        "tags": ["number-theory"], "quality": 0.5,
                        "complexity": 0.5}) + "\n",
            encoding="utf-8",
        )
        rc = main([
            "anchor", "--tree", ws["tree"], "--pool", str(pool),
            "--embeddings", str(emb), "-o", str(tmp_path / "a.jsonl"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dimension 3" in err and "dimension 4" in err
        assert "matmul" not in err
        assert "Traceback" not in err

    def test_scores_spanning_more_than_the_float_range(self, ws, tmp_path):
        # -1e308 to 1e308 overflows the span; the rows still scale onto [0, 1]
        pool = tmp_path / "pool.jsonl"
        pool.write_text("".join(
            json.dumps({"id": f"q{i}", "query": "q", "response": "r",
                        "tags": ["algebra"], "quality": q, "complexity": 0.5}) + "\n"
            for i, q in enumerate([-1e308, 0.0, 1e308])
        ), encoding="utf-8")
        out = tmp_path / "a.jsonl"
        assert main(["anchor", "--tree", ws["tree"], "--pool", str(pool), "-o", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["quality"] for r in rows] == [0.0, 0.5, 1.0]

    def test_junk_pool_lines_reported_but_tolerated(self, ws, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text(
            json.dumps({
                "id": "ok", "query": "q", "response": "r",
                "tags": ["algebra"], "quality": 0.5, "complexity": 0.5,
            })
            + "\nnot json at all\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "a.jsonl"
        rc = main(["anchor", "--tree", ws["tree"], "--pool", str(pool), "-o", str(out_path)])
        assert rc == 0
        assert "line 2" in capsys.readouterr().err
        assert len(load_anchored(out_path)) == 1

    def test_overlong_integer_located_and_skipped(self, ws, tmp_path, capsys):
        good = {"id": "ok", "query": "q", "response": "r", "tags": ["algebra"],
                "quality": 0.5, "complexity": 0.5}
        pool = tmp_path / "pool.jsonl"
        pool.write_text(
            json.dumps(good) + "\n"
            + json.dumps({**good, "id": "big"}).replace('"quality": 0.5', '"quality": 1' + "0" * 5000)
            + "\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "a.jsonl"
        rc = main(["anchor", "--tree", ws["tree"], "--pool", str(pool), "-o", str(out_path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "line 2: invalid JSON: Exceeds the limit (4300 digits)" in err
        assert [r.id for r in load_anchored(out_path)] == ["ok"]

    def test_manifest_counts_tag_resolutions(self, ws, tmp_path):
        # exact leaf names, repeated tags, a variant near "python" and a tag
        # far from every leaf (best cosine about 0.41, so dropped at 0.5)
        with open(ws["emb"], encoding="utf-8") as f:
            lines = f.read().splitlines()
        lines[0] = f"dim=4 count={len(lines) + 1}"
        lines += ["py3\t0.0 1.0 0.0 0.3", "void\t0.0 0.0 0.0 1.0"]
        emb = tmp_path / "emb.tsv"
        emb.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
        rows = [
            ("q0", ["algebra", "algebra", "python"]),
            ("q1", ["py3", "void"]),
            ("q2", ["void", "void", "geometry"]),
            ("q3", ["py3", "py3"]),
        ]
        pool = tmp_path / "pool.jsonl"
        pool.write_text(
            "".join(
                json.dumps({"id": i, "query": "q", "response": "r", "tags": tags,
                            "quality": 0.5, "complexity": 0.5}) + "\n"
                for i, tags in rows
            ),
            encoding="utf-8",
        )
        out = tmp_path / "a.jsonl"
        assert main([
            "anchor", "--tree", ws["tree"], "--pool", str(pool), "--embeddings", str(emb),
            "--min-sim", "0.5", "-o", str(out),
        ]) == 0
        counters = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())["counters"]
        assert counters == {"exact": 3, "nearest": 2, "dropped": 2}
        # the same count as a reader of the files would make
        tree = load_tree(ws["tree"])
        names = {tree.node(int(i)).name for i in tree.leaf_ids}
        seen = {"exact": 0, "nearest": 0, "dropped": 0}
        for (_, tags), record in zip(rows, load_anchored(out)):
            for tag in dict.fromkeys(tags):
                kind = "exact" if tag in names else "dropped" if tag in record.dropped else "nearest"
                seen[kind] += 1
        assert seen == counters
        assert sum(counters.values()) == sum(len(set(tags)) for _, tags in rows)
        # recorded before the counters existed: the anchored rows are unchanged
        assert sha256_file(out) == ANCHORED_WITH_VARIANTS_SHA256

    def test_fully_unparseable_pool(self, ws, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text("junk\nmore junk\n", encoding="utf-8")
        rc = main([
            "anchor", "--tree", ws["tree"], "--pool", str(pool),
            "-o", str(tmp_path / "a.jsonl"),
        ])
        assert rc == 2
        assert "no parseable instances" in capsys.readouterr().err

    def test_pool_texts_not_held(self, ws, tmp_path):
        # 2,000 rows with 10 KB responses: 20 MB of text that no step of
        # anchor reads, so the command peaks below it
        pool = tmp_path / "pool.jsonl"
        text_bytes = 0
        with open(pool, "w", encoding="utf-8") as f:
            for i in range(2000):
                query = f"question {i} " * 20
                response = f"answer {i} " * (10_000 // len(f"answer {i} "))
                text_bytes += len(query) + len(response)
                f.write(json.dumps({
                    "id": f"r{i}", "query": query, "response": response,
                    "tags": [TAG_NAMES[i % 9], "no such tag"], "quality": i % 7,
                    "complexity": i % 5,
                }) + "\n")
        out = tmp_path / "anchored.jsonl"
        tracemalloc.start()
        try:
            rc = main(["anchor", "--tree", ws["tree"], "--pool", str(pool), "-o", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0 and len(load_anchored(out)) == 2000
        assert text_bytes > 20_000_000 and peak < text_bytes / 4


class TestDeriveTarget:
    def test_target_loadable_and_normalized(self, ws):
        tree = load_tree(ws["tree"])
        target = load_target(ws["target"], tree)
        dense = target.dense(tree.leaf_ids)
        assert abs(float(dense.sum()) - 1.0) < 1e-9
        # "essay" is never tagged, so its leaf weight must be zero
        essay_leaf = next(
            j for j, nid in enumerate(tree.leaf_ids)
            if tree.node(int(nid)).name == "essay"
        )
        assert dense[essay_leaf] == 0.0


class TestSample:
    def test_general_run(self, ws, tmp_path, capsys):
        out = tmp_path / "subset.jsonl"
        trace_path = tmp_path / "trace.json"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "5", "-o", str(out), "--trace", str(trace_path),
        ])
        assert rc == 0
        assert "selected 5 of 12" in capsys.readouterr().out

        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 5
        for i, row in enumerate(rows, start=1):
            assert set(row) == {
                "id", "quality", "complexity", "leaves", "iteration", "gain", "joint",
            }
            assert row["iteration"] == i

        trace = json.loads(trace_path.read_text())
        assert trace["mode"] == "general"
        assert trace["selected"] == 5
        assert trace["pool_size"] == 12
        assert trace["unanchorable"] == 1
        assert trace["final_kl"] is None
        assert len(trace["picks"]) == 5
        assert (tmp_path / "subset.jsonl.manifest.json").is_file()
        assert (tmp_path / "trace.json.manifest.json").is_file()

    def test_aligned_run(self, ws, tmp_path):
        out = tmp_path / "subset.jsonl"
        trace_path = tmp_path / "trace.json"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "5", "--lambda", "5", "--target", ws["target"],
            "-o", str(out), "--trace", str(trace_path),
        ])
        assert rc == 0
        trace = json.loads(trace_path.read_text())
        assert trace["mode"] == "aligned"
        assert isinstance(trace["final_kl"], float)
        assert all(isinstance(p["kl"], float) for p in trace["picks"])
        with open(str(out) + ".manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        assert manifest["parameters"]["mode"] == "aligned"
        assert manifest["parameters"]["lambda"] == 5.0
        assert ws["target"] in manifest["inputs"]

    @pytest.mark.parametrize("aligned", [False, True])
    def test_counters_in_both_manifests(self, ws, tmp_path, aligned):
        out = tmp_path / "subset.jsonl"
        trace_path = tmp_path / "trace.json"
        extra = ["--lambda", "5", "--target", ws["target"]] if aligned else []
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "8", "-o", str(out), "--trace", str(trace_path), *extra,
        ])
        assert rc == 0
        trace = json.loads(trace_path.read_text())
        assert "counters" not in trace and "full_rescores" not in trace
        assert "blocks_visited" not in trace
        assert all("blocks_visited" not in json.loads(row) for row in out.read_text().splitlines())
        picks = trace["selected"]
        candidates = trace["pool_size"] - trace["unanchorable"]
        for path in (out, trace_path):
            with open(str(path) + ".manifest.json", encoding="utf-8") as f:
                counters = json.load(f)["counters"]
            # both modes are lazy after iteration 2
            if aligned:
                assert counters["full_rescores"] >= 2
            else:
                assert counters["full_rescores"] == 2
            assert 0 < counters["rescored"] < (picks - 2) * candidates
            assert 0 < counters["blocks_visited"] <= counters["rescored"]

    def test_inputs_hashed_once_for_both_manifests(self, ws, tmp_path, monkeypatch):
        hashed = []

        def counting_sha256(path):
            hashed.append(path)
            return sha256_file(path)

        monkeypatch.setattr("tagforest.cli.sha256_file", counting_sha256)
        out = tmp_path / "subset.jsonl"
        trace_path = tmp_path / "trace.json"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "3", "--lambda", "5", "--target", ws["target"],
            "--pool", ws["pool"], "-o", str(out), "--trace", str(trace_path),
        ])
        assert rc == 0
        assert sorted(hashed) == sorted([ws["anchored"], ws["tree"], ws["target"], ws["pool"]])
        manifests = [
            json.loads((tmp_path / f"{name}.manifest.json").read_text())
            for name in ("subset.jsonl", "trace.json")
        ]
        for manifest in manifests:
            assert manifest["inputs"] == {path: sha256_file(path) for path in hashed}
            del manifest["wall_clock_seconds"]
        assert manifests[0] == manifests[1]

    def test_lambda_without_target(self, ws, tmp_path, capsys):
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "5", "--lambda", "5",
            "-o", str(tmp_path / "s.jsonl"), "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "--lambda > 0 requires --target" in capsys.readouterr().err

    def test_budget_zero(self, ws, tmp_path):
        out = tmp_path / "subset.jsonl"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "0", "-o", str(out), "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        assert out.read_text() == ""
        trace = json.loads((tmp_path / "t.json").read_text())
        assert trace["selected"] == 0

    def test_negative_budget(self, ws, tmp_path, capsys):
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "-3", "-o", str(tmp_path / "s.jsonl"),
            "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_budget_beyond_pool_takes_everything_usable(self, ws, tmp_path, capsys):
        out = tmp_path / "subset.jsonl"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "50", "-o", str(out), "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        assert "exceeds pool size" in capsys.readouterr().err
        rows = out.read_text().splitlines()
        assert len(rows) == 11  # 12 minus the unanchorable instance

    def test_reruns_byte_identical(self, ws, tmp_path):
        args = [
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "6", "--lambda", "2", "--target", ws["target"],
        ]
        first, second = tmp_path / "one", tmp_path / "two"
        first.mkdir()
        second.mkdir()
        for d in (first, second):
            rc = main(args + ["-o", str(d / "s.jsonl"), "--trace", str(d / "t.json")])
            assert rc == 0
        assert (first / "s.jsonl").read_bytes() == (second / "s.jsonl").read_bytes()
        assert (first / "t.json").read_bytes() == (second / "t.json").read_bytes()

    def test_pool_flag_exports_full_records(self, ws, tmp_path):
        out = tmp_path / "subset.jsonl"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "4", "--pool", ws["pool"],
            "-o", str(out), "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        exported, report = load_instances(out)
        assert report.ok
        assert len(exported) == 4
        originals, _ = load_instances(ws["pool"])
        by_id = {inst.id: inst for inst in originals}
        for inst in exported:
            assert inst == by_id[inst.id]

    def test_pool_export_keeps_only_the_picks_texts(self, ws, tmp_path, capsys, monkeypatch):
        # a pool with bad lines and rows never picked: the subset and the
        # stderr report are those of a pool loaded with every text
        pool = tmp_path / "pool.jsonl"
        lines = open(ws["pool"], encoding="utf-8").read().splitlines()
        lines[3:3] = ["not json", '{"id":"p99","query":"q","tags":[]}', ""]
        pool.write_text("\n".join(lines) + "\n", encoding="utf-8")
        kept = []
        load = cli.load_instances

        def spy(path, keep_texts=None):
            loaded, report = load(path, keep_texts)
            kept.append(sum(q is not None for q in loaded.queries))
            return loaded, report

        monkeypatch.setattr(cli, "load_instances", spy)
        out, trace = tmp_path / "subset.jsonl", tmp_path / "t.json"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "4",
            "--target", ws["target"], "--pool", str(pool), "-o", str(out), "--trace", str(trace),
        ])
        err = capsys.readouterr().err
        assert rc == 0 and kept == [4]
        full, report = load_instances(pool)
        assert err.splitlines() == [f"{sev}: {loc}: {msg}" for sev, loc, msg in report.entries]
        assert [loc for _, loc, _ in report.entries] == ["line 4", "line 5", "line 6"]
        tree = load_tree(ws["tree"])
        selected, picked = sample(
            load_anchored(ws["anchored"]), tree, SamplerConfig(budget=4),
            load_target(ws["target"], tree),
        )
        want = tmp_path / "want.jsonl"
        export_subset(selected, picked, full, want)
        assert out.read_bytes() == want.read_bytes()

    def test_signed_zero_export_matches_library(self, ws, tmp_path):
        # -0.0 and +0.0 scores, in both orders, at each column's minimum:
        # anchor writes rows of the fixed shape, and sample exports what a
        # library run does
        pool = tmp_path / "pool.jsonl"
        pool.write_text("".join(
            json.dumps({"id": f"z{k}", "query": "q", "response": "r", "tags": [tag],
                        "quality": q, "complexity": c}) + "\n"
            for k, (tag, q, c) in enumerate(
                [("algebra", 0.0, -0.0), ("python", -0.0, 0.0), ("poetry", 1.0, 1.0)]
            )
        ), encoding="utf-8")
        anchored, out, trace = (tmp_path / name for name in ("a.jsonl", "s.jsonl", "t.json"))
        assert main(["anchor", "--tree", ws["tree"], "--pool", str(pool),
                     "-o", str(anchored)]) == 0
        with open(anchored, encoding="utf-8") as f:
            assert anchoring._read_fixed_shape(f) is not None
        assert main(["sample", "--anchored", str(anchored), "--tree", ws["tree"],
                     "--budget", "3", "-o", str(out), "--trace", str(trace)]) == 0
        tree = load_tree(ws["tree"])
        records, _ = anchor_pool(
            normalize_scores(load_instances(pool)[0]), tree, None, DEFAULT_MIN_SIMILARITY
        )
        selected, picked = sample(records, tree, SamplerConfig(budget=3))
        want = tmp_path / "want.jsonl"
        export_subset(selected, picked, None, want)
        assert out.read_bytes() == want.read_bytes()

    def test_pool_export_duplicate_id(self, ws, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        lines = open(ws["pool"], encoding="utf-8").read().splitlines()
        pool.write_text("\n".join(lines + [lines[-1]]) + "\n", encoding="utf-8")
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "2",
            "--pool", str(pool), "-o", str(tmp_path / "s.jsonl"),
            "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: line {len(lines) + 1}: duplicate instance id 'p11'\n"
        )
        assert not (tmp_path / "s.jsonl").exists()


class TestWorkerResolution:
    def test_workers_recorded_in_manifest(self, ws, tmp_path):
        out = tmp_path / "s.jsonl"
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "2", "--workers", "8",
            "-o", str(out), "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        with open(str(out) + ".manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        assert manifest["parameters"]["workers"] == 8

    def test_zero_workers_rejected(self, ws, tmp_path, capsys):
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "2", "--workers", "0",
            "-o", str(tmp_path / "s.jsonl"), "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_worker_count_does_not_change_output(self, ws, tmp_path):
        outs = []
        for workers in ("1", "3"):
            d = tmp_path / f"w{workers}"
            d.mkdir()
            rc = main([
                "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
                "--budget", "6", "--workers", workers,
                "-o", str(d / "s.jsonl"), "--trace", str(d / "t.json"),
            ])
            assert rc == 0
            outs.append((d / "s.jsonl").read_bytes())
        assert outs[0] == outs[1]


class TestBadAnchoredInput:
    """Anchored rows that would corrupt a selection exit 2 with a location."""

    def _sample(self, ws, tmp_path, rows):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return main([
            "sample", "--anchored", str(bad), "--tree", ws["tree"],
            "--budget", "2", "-o", str(tmp_path / "s.jsonl"),
            "--trace", str(tmp_path / "t.json"),
        ])

    def _leaf(self, ws):
        return int(load_tree(ws["tree"]).leaf_ids[0])

    @pytest.mark.parametrize("value", [float("nan"), 1.5, 10**400])
    def test_bad_quality(self, ws, tmp_path, capsys, value):
        leaf = self._leaf(ws)
        rows = [
            {"id": "a", "leaves": [leaf], "dropped": [], "quality": value, "complexity": 0.5},
            {"id": "b", "leaves": [leaf], "dropped": [], "quality": 0.5, "complexity": 0.5},
        ]
        rc = self._sample(ws, tmp_path, rows)
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "quality" in err
        assert not (tmp_path / "s.jsonl").exists()

    def test_unknown_leaf(self, ws, tmp_path, capsys):
        root = load_tree(ws["tree"]).root_id
        rows = [
            {"id": "a", "leaves": [self._leaf(ws)], "dropped": [], "quality": 0.5, "complexity": 0.5},
            {"id": "b", "leaves": [root], "dropped": [], "quality": 0.5, "complexity": 0.5},
        ]
        rc = self._sample(ws, tmp_path, rows)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"record 'b' references non-leaf node {root}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sample", "stats"])
    @pytest.mark.parametrize(
        "field, override",
        [
            ("JSON object", None),
            ("'id'", {"id": ["x"]}),
            ("'leaves'", {"leaves": 5}),
            ("'dropped'", {"dropped": 5}),
            ("'leaves'", {"leaves": "34"}),
            ("'leaves'", {"leaves": [1.7]}),
            ("'leaves'", {"leaves": [True]}),
            ("'leaves'", {"leaves": ["x"]}),
        ],
        ids=["row-5", "id-list", "leaves-5", "dropped-5", "leaves-str",
             "leaves-float", "leaves-bool", "leaves-str-item"],
    )
    def test_malformed_row(self, ws, tmp_path, capsys, command, field, override):
        good = {"id": "b", "leaves": [self._leaf(ws)], "dropped": [], "quality": 0.5,
                "complexity": 0.5}
        rows = [5 if override is None else {**good, "id": "a", **override}, good]
        if command == "sample":
            rc = self._sample(ws, tmp_path, rows)
        else:
            bad = tmp_path / "bad.jsonl"
            bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
            rc = main(["stats", "--input", str(bad), "--tree", ws["tree"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 1" in err and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sample", "stats"])
    def test_overlong_integer(self, ws, tmp_path, capsys, command):
        good = {"id": "b", "leaves": [self._leaf(ws)], "dropped": [], "quality": 0.5,
                "complexity": 0.5}
        big = json.dumps({**good, "id": "a"}).replace(
            '"quality": 0.5', '"quality": 1' + "0" * 5000
        )
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n" + big + "\n", encoding="utf-8")
        if command == "sample":
            rc = main([
                "sample", "--anchored", str(bad), "--tree", ws["tree"],
                "--budget", "2", "-o", str(tmp_path / "s.jsonl"),
            ])
        else:
            rc = main(["stats", "--input", str(bad), "--tree", ws["tree"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2: invalid JSON: Exceeds the limit (4300 digits)" in err
        assert "Traceback" not in err


class TestNonFiniteOptions:
    """A NaN, infinite or out-of-range option fails its rule before any
    output or manifest is written."""

    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("anchor", "--min-sim", "nan", "min_similarity must be finite, got nan"),
            ("anchor", "--min-sim", "inf", "min_similarity must be finite, got inf"),
            ("sample", "--lambda", "nan", "kl_weight must be >= 0, got nan"),
            ("sample", "--epsilon", "nan", "epsilon must be > 0, got nan"),
            ("build-tree", "--branching", "nan", "branching must be > 1, got nan"),
            ("build-tree", "--branching", "inf", "branching must be finite, got inf"),
            ("build-tree", "--seed", "-1", "seed must be >= 0, got -1"),
            ("build-tree", "--kmeans-restarts", "0",
             "kmeans_restarts must be in [1, 10000], got 0"),
            ("build-tree", "--kmeans-restarts", "10001",
             "kmeans_restarts must be in [1, 10000], got 10001"),
            ("build-tree", "--kmeans-restarts", "100000000000000000000",
             "kmeans_restarts must be in [1, 10000], got 100000000000000000000"),
            ("sample", "--epsilon", "inf", "epsilon must be finite, got inf"),
            ("sample", "--lambda", "inf", "kl_weight must be finite, got inf"),
        ],
    )
    def test_refused_without_output(
        self, ws, tmp_path, capsys, command, option, value, message
    ):
        argv = {
            "anchor": ["--tree", ws["tree"], "--pool", ws["pool"]],
            "sample": [
                "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "3",
                "--trace", str(tmp_path / "t.json"),
            ],
            "build-tree": ["--tags", ws["tags"], "--embeddings", ws["emb"]],
        }[command]
        rc = main([command, *argv, option, value, "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_kmeans_restarts_refused_before_any_file_is_read(
        self, ws, tmp_path, capsys, monkeypatch
    ):
        # a mistyped restart count fails at once instead of running until killed
        def read(*args):
            pytest.fail("build-tree read a file")

        monkeypatch.setattr(cli, "_load_tags", read)
        monkeypatch.setattr(cli, "load_embeddings", read)
        rc = main([
            "build-tree", "--tags", ws["tags"], "--embeddings", ws["emb"],
            "--kmeans-restarts", "100000000000000000000", "-o", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: kmeans_restarts must be in [1, 10000], got 100000000000000000000\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_stats_epsilon_refused_before_output(self, ws, capsys, value):
        rc = main([
            "stats", "--input", ws["anchored"], "--tree", ws["tree"],
            "--target", ws["target"], "--epsilon", value,
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: epsilon must be " in err
        assert "Traceback" not in err

    def test_overflowing_joint_refused_without_output(self, ws, tmp_path):
        # a finite but huge lambda overflows the joint: no silent empty
        # subset, and no numpy warning on stderr before the error line
        proc = _run_module(
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "3",
            "--target", ws["target"], "--lambda", "1e308",
            "-o", str(tmp_path / "out"), "--trace", str(tmp_path / "t.json"),
        )
        assert proc.returncode == 2
        assert "error: iteration 1: the joint is not finite at kl_weight 1e+308" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(tmp_path) == []


def test_manifest_refused_value_leaves_no_file(tmp_path):
    # the sidecar is serialized before it is opened, so a value it cannot
    # hold leaves no empty manifest behind
    out = tmp_path / "out"
    args = argparse.Namespace(command="build-tree", inputs=(), branching=float("inf"))
    with pytest.raises(ValueError, match="non-finite"):
        _write_manifests(args, 0.0, str(out))
    assert os.listdir(tmp_path) == []


def _input_argv(ws, out: str) -> dict[str, list[str]]:
    """A working argv per command, every input option given, outputs under ``out``."""
    return {
        "build-tree": ["--tags", ws["tags"], "--embeddings", ws["emb"], "-o", out],
        "anchor": [
            "--tree", ws["tree"], "--pool", ws["pool"], "--embeddings", ws["emb"],
            "-o", out,
        ],
        "derive-target": ["--anchored", ws["anchored"], "--tree", ws["tree"], "-o", out],
        "sample": [
            "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "3",
            "--target", ws["target"], "--pool", ws["pool"],
            "-o", out, "--trace", out + ".trace",
        ],
        "stats": ["--input", ws["anchored"], "--tree", ws["tree"], "--target", ws["target"]],
    }


@pytest.mark.parametrize(
    "command, name",
    [
        ("build-tree", "tags"),
        ("build-tree", "embeddings"),
        ("anchor", "tree"),
        ("anchor", "pool"),
        ("anchor", "embeddings"),
        ("derive-target", "anchored"),
        ("derive-target", "tree"),
        ("sample", "anchored"),
        ("sample", "tree"),
        ("sample", "target"),
        ("sample", "pool"),
        ("stats", "input"),
        ("stats", "tree"),
        ("stats", "target"),
    ],
)
def test_missing_input_refused_before_any_work(ws, tmp_path, capsys, command, name):
    missing = str(tmp_path / "missing")
    argv = _input_argv(ws, str(tmp_path / "out"))[command]
    argv[argv.index(f"--{name}") + 1] = missing
    rc = main([command, *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {name} file not found: {missing}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command, name",
    [
        ("build-tree", "output"),
        ("anchor", "output"),
        ("derive-target", "output"),
        ("sample", "output"),
        ("sample", "trace"),
    ],
)
def test_missing_output_directory_refused_before_any_work(
    ws, tmp_path, capsys, monkeypatch, command, name
):
    def ran(args):
        pytest.fail(f"{command} ran with a missing output directory")

    monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}", ran)
    missing = str(tmp_path / "missing")
    argv = _input_argv(ws, str(tmp_path / "out"))[command]
    option = "-o" if name == "output" else f"--{name}"
    argv[argv.index(option) + 1] = os.path.join(missing, "file")
    rc = main([command, *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {name} directory not found: {missing}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command, name",
    [
        ("build-tree", "output"),
        ("anchor", "output"),
        ("derive-target", "output"),
        ("sample", "output"),
        ("sample", "trace"),
    ],
)
@pytest.mark.parametrize("slash", ["", os.sep], ids=["bare", "slash"])
def test_directory_output_refused_before_any_work(
    ws, tmp_path, capsys, monkeypatch, command, name, slash
):
    def ran(args):
        pytest.fail(f"{command} ran with an output that is a directory")

    monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}", ran)
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    argv = _input_argv(ws, str(tmp_path / "out"))[command]
    option = "-o" if name == "output" else f"--{name}"
    argv[argv.index(option) + 1] = str(outdir) + slash
    rc = main([command, *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {name} is a directory: {outdir}{slash}\n"
    assert os.listdir(tmp_path) == ["outdir"] and os.listdir(outdir) == []


def _snapshot(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir()}


@pytest.mark.parametrize(
    "command, argv, message",
    [
        (
            "build-tree",
            ["--tags", "{tags}", "--embeddings", "{emb}", "-o", "{tags}"],
            "output would overwrite the tags file: {tags}",
        ),
        (
            "anchor",
            ["--tree", "{tree}", "--pool", "{d}/a.manifest.json", "-o", "{d}/a"],
            "output would overwrite the pool file: {d}/a.manifest.json",
        ),
        (
            "derive-target",
            ["--anchored", "{anchored}", "--tree", "{tree}", "-o", "{anchored}"],
            "output would overwrite the anchored file: {anchored}",
        ),
        (
            "sample",
            ["--anchored", "{anchored}", "--tree", "{tree}", "--budget", "3",
             "-o", "{anchored}", "--trace", "{d}/t.json"],
            "output would overwrite the anchored file: {anchored}",
        ),
        (
            "sample",
            ["--anchored", "{anchored}", "--tree", "{tree}", "--budget", "3",
             "-o", "{d}/x", "--trace", "{d}/x"],
            "trace would overwrite the file written for output: {d}/x",
        ),
        (
            "sample",
            ["--anchored", "{anchored}", "--tree", "{tree}", "--budget", "3",
             "-o", "{d}/x", "--trace", "{d}/x.manifest.json"],
            "trace would overwrite the file written for output: {d}/x.manifest.json",
        ),
    ],
    ids=["build-tree-over-tags", "anchor-manifest-over-pool", "derive-target-over-anchored",
         "sample-over-anchored", "sample-trace-over-output", "sample-trace-over-manifest"],
)
def test_written_file_over_input_or_output_refused(ws, tmp_path, capsys, command, argv, message):
    # on copies of the inputs: nothing is read or written, and no file changes
    paths = {"d": str(tmp_path)}
    for key in ("tags", "emb", "tree", "anchored"):
        paths[key] = shutil.copy(ws[key], tmp_path)
    shutil.copy(ws["pool"], tmp_path / "a.manifest.json")
    before = _snapshot(tmp_path)
    rc = main([command, *(a.format(**paths) for a in argv)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message.format(**paths)}\n"
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "command, argv, message",
    [
        (
            "sample",
            ["--anchored", "{bad}", "--tree", "{tree}", "--budget", "3", "--alpha", "2"],
            "alpha must be in [0, 1], got 2.0",
        ),
        (
            "sample",
            ["--anchored", "{bad}", "--tree", "{tree}", "--budget", "3", "--lambda", "1"],
            "--lambda > 0 requires --target",
        ),
        (
            "sample",
            ["--anchored", "{bad}", "--tree", "{bad}", "--budget", "-1"],
            "budget must be >= 0, got -1",
        ),
        (
            "build-tree",
            ["--tags", "{tags}", "--embeddings", "{bad}", "--branching", "1"],
            "branching must be > 1, got 1.0",
        ),
    ],
    ids=["sample-alpha", "sample-lambda", "sample-budget", "build-tree-branching"],
)
def test_options_checked_before_files_are_read(ws, tmp_path, capsys, command, argv, message):
    # the file is malformed too: the option's error comes first
    bad = tmp_path / "bad"
    bad.write_text("not a row\n", encoding="utf-8")
    paths = {"bad": str(bad), "tree": ws["tree"], "tags": ws["tags"]}
    out = str(tmp_path / "out")
    rc = main([command, *(a.format(**paths) for a in argv), "-o", out])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["bad"]


class TestManifestParameters:
    """``parameters`` are the parsed options under their own names, defaults included."""

    @staticmethod
    def _parameters(output) -> dict:
        with open(f"{output}.manifest.json", encoding="utf-8") as f:
            return json.load(f)["parameters"]

    def test_build_tree(self, ws):
        assert self._parameters(ws["tree"]) == {
            "tags": ws["tags"],
            "embeddings": ws["emb"],
            "depth": TreeBuildConfig.depth_limit,
            "branching": 3.0,
            "kmeans_iters": TreeBuildConfig.kmeans_iters,
            "kmeans_restarts": TreeBuildConfig.kmeans_restarts,
            "output": ws["tree"],
        }

    def test_anchor(self, ws):
        assert self._parameters(ws["anchored"]) == {
            "tree": ws["tree"],
            "pool": ws["pool"],
            "embeddings": None,
            "min_sim": DEFAULT_MIN_SIMILARITY,
            "output": ws["anchored"],
        }

    def test_derive_target(self, ws):
        assert self._parameters(ws["target"]) == {
            "anchored": ws["anchored"],
            "tree": ws["tree"],
            "output": ws["target"],
        }

    def test_sample(self, ws, tmp_path):
        out, trace = str(tmp_path / "s.jsonl"), str(tmp_path / "t.json")
        assert main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "3",
            "--lambda", "5", "--target", ws["target"], "--pool", ws["pool"],
            "--workers", "2", "-o", out, "--trace", trace,
        ]) == 0
        expected = {
            "anchored": ws["anchored"],
            "tree": ws["tree"],
            "budget": 3,
            "alpha": ObjectiveConfig.alpha,
            "gamma": ObjectiveConfig.gamma,
            "lambda": 5.0,
            "epsilon": ObjectiveConfig.epsilon,
            "target": ws["target"],
            "pool": ws["pool"],
            "workers": 2,
            "mode": "aligned",
            "output": out,
            "trace": trace,
        }
        for path in (out, trace):
            assert self._parameters(path) == expected  # key set and values, any order


class TestSeedOnlyWhereUsed:
    def test_manifests(self, ws, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "2",
            "-o", str(out), "--trace", str(tmp_path / "t.json"),
        ]) == 0
        for path in (ws["anchored"], ws["target"], out, tmp_path / "t.json"):
            with open(str(path) + ".manifest.json", encoding="utf-8") as f:
                assert "seed" not in json.load(f)
        with open(ws["tree"] + ".manifest.json", encoding="utf-8") as f:
            assert json.load(f)["seed"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["anchor", "--tree", "t", "--pool", "p"],
            ["derive-target", "--anchored", "a", "--tree", "t"],
            ["sample", "--anchored", "a", "--tree", "t", "--budget", "1"],
        ],
    )
    def test_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


class TestStats:
    def test_anchored_stats(self, ws, capsys):
        rc = main(["stats", "--input", ws["anchored"], "--tree", ws["tree"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rows: 12" in out
        assert "leaf histogram" in out
        assert "coverage per depth" in out
        assert "quality quantiles" in out
        assert "complexity quantiles" in out

    def test_all_leaves_includes_zero_counts(self, ws, capsys):
        rc = main(["stats", "--input", ws["anchored"], "--tree", ws["tree"]])
        assert rc == 0
        default_out = capsys.readouterr().out
        assert "essay" not in default_out  # never tagged -> hidden by default
        rc = main([
            "stats", "--input", ws["anchored"], "--tree", ws["tree"], "--all-leaves",
        ])
        assert rc == 0
        assert "essay" in capsys.readouterr().out

    def test_target_adds_kl_line(self, ws, capsys):
        rc = main([
            "stats", "--input", ws["anchored"], "--tree", ws["tree"],
            "--target", ws["target"],
        ])
        assert rc == 0
        assert "KL(target || selection):" in capsys.readouterr().out

    def test_stats_on_exported_subset(self, ws, tmp_path, capsys):
        out = tmp_path / "subset.jsonl"
        assert main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
            "--budget", "3", "-o", str(out), "--trace", str(tmp_path / "t.json"),
        ]) == 0
        capsys.readouterr()
        rc = main(["stats", "--input", str(out), "--tree", ws["tree"]])
        assert rc == 0
        assert "rows: 3" in capsys.readouterr().out

    def test_input_without_leaves_field(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n', encoding="utf-8")
        rc = main(["stats", "--input", str(bad), "--tree", ws["tree"]])
        assert rc == 2
        assert "no 'leaves' field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [{}, "0.5", None, True, [0.5], float("nan"), 10**400]
    )
    def test_non_numeric_score(self, ws, tmp_path, capsys, value):
        with open(ws["anchored"], encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        rows[1]["quality"] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = main(["stats", "--input", str(bad), "--tree", ws["tree"]])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "line 2: 'quality' must be a finite number" in err
        assert "Traceback" not in err

    def test_raw_scores_outside_unit_interval(self, ws, tmp_path, capsys):
        # exported subsets carry the pool's raw scores, so no [0, 1] rule
        with open(ws["anchored"], encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        rows[0]["quality"], rows[0]["complexity"] = 7.5, -3
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = main(["stats", "--input", str(raw), "--tree", ws["tree"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max 7.5" in out and "min -3" in out

    def test_counts_match_derive_target(self, ws, capsys):
        # one histogram: each printed count is derive-target's weight x total
        rc = main(["stats", "--input", ws["anchored"], "--tree", ws["tree"], "--all-leaves"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("leaf histogram (leaf id, name, count):") + 1
        end = lines.index("coverage per depth (activated/total):")
        counts = {int(l.split("\t")[0]): int(l.split("\t")[2]) for l in lines[start:end]}
        tree = load_tree(ws["tree"])
        assert list(counts) == tree.leaf_ids.tolist()
        weights = load_target(ws["target"], tree).weights
        total = sum(counts.values())
        for leaf, count in counts.items():
            assert count == pytest.approx(weights.get(leaf, 0.0) * total, rel=1e-12)

    def test_non_leaf_message(self, ws, tmp_path, capsys):
        # the same message as sample and derive-target give
        tree = load_tree(ws["tree"])
        root = tree.root_id
        rows = [{"id": "a", "leaves": [int(tree.leaf_ids[0])]}, {"id": "b", "leaves": [root]}]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = main(["stats", "--input", str(bad), "--tree", ws["tree"]])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: record 'b' references non-leaf node {root}\n"

    def test_non_leaf_row_without_id_named_by_line(self, ws, tmp_path, capsys):
        tree = load_tree(ws["tree"])
        rows = [{"id": "a", "leaves": [int(tree.leaf_ids[0])]}, {"leaves": [tree.root_id]}]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = main(["stats", "--input", str(bad), "--tree", ws["tree"]])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: record on line 2 references non-leaf node {tree.root_id}\n"

    @pytest.mark.parametrize("all_leaves", [False, True])
    def test_counts_match_node_walk(self, tmp_path, capsys, all_leaves):
        # the histogram and per-depth coverage on random trees and subsets,
        # against counts made by walking parent pointers; case 0 counts no leaf
        rng = np.random.default_rng(71)
        tree_path, rows_path = tmp_path / "tree.json", tmp_path / "rows.jsonl"
        for case in range(30):
            tree = random_tree(rng, max_nodes=60)
            save_tree(tree, tree_path)
            leaf_ids = tree.leaf_ids.tolist()
            rows = []
            for i in range(int(rng.integers(1, 8))):
                k = 0 if case == 0 else int(rng.integers(0, 4))
                leaves = rng.choice(leaf_ids, size=k).tolist()  # repeats allowed
                rows.append({"id": f"r{i}", "leaves": leaves})
            rows_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
            argv = ["stats", "--input", str(rows_path), "--tree", str(tree_path)]
            assert main(argv + ["--all-leaves"] * all_leaves) == 0

            counts = {leaf: sum(leaf in r["leaves"] for r in rows) for leaf in leaf_ids}
            activated = {
                node for leaf in leaf_ids if counts[leaf]
                for node in ancestors_and_self(tree, leaf)
            }
            want = [f"rows: {len(rows)}", "leaf histogram (leaf id, name, count):"]
            want += [
                f"  {leaf}\t{tree.node(leaf).name}\t{counts[leaf]}"
                for leaf in leaf_ids if counts[leaf] or all_leaves
            ]
            want.append("coverage per depth (activated/total):")
            for depth in range(tree.max_depth() + 1):
                at_depth = [node.id for node in tree.nodes if node.depth == depth]
                hit = sum(node in activated for node in at_depth)
                want.append(f"  depth {depth}: {hit}/{len(at_depth)}")
            lines = capsys.readouterr().out.splitlines()
            assert lines[:-1] == want
            assert lines[-1].startswith("done in ")


class TestBadTreeFile:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("children", [[1]]),
            ("children", 3),
            ("id", "1"),
            ("parent", True),
            ("depth", 1.0),
            ("embedding", {}),
            ("embedding", [10**400]),
            ("embedding", 7),
            ("embedding", [[1.0, 0.0, 0.0, 0.0]]),
            ("embedding", []),
            ("embedding", [True, 0.0, 0.0, 0.0]),
            ("embedding", ["1.5", 0.0, 0.0, 0.0]),
        ],
    )
    def test_bad_node_field(self, ws, tmp_path, capsys, key, value):
        with open(ws["tree"], encoding="utf-8") as f:
            payload = json.load(f)
        payload["nodes"][1][key] = value
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["stats", "--input", ws["anchored"], "--tree", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"node entry 1: '{key}' must" in err
        assert "Traceback" not in err

    def test_embedding_dimensions_differ(self, ws, tmp_path, capsys):
        with open(ws["tree"], encoding="utf-8") as f:
            payload = json.load(f)
        payload["nodes"][1]["embedding"] = [1.0, 0.0, 0.0]
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "a.jsonl"
        rc = main(["anchor", "--tree", str(bad), "--pool", ws["pool"], "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: node 1: embedding has dimension 3, expected 4" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "sample"])
    def test_deep_nesting(self, ws, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        if command == "stats":  # as the tree
            rc = main(["stats", "--input", ws["anchored"], "--tree", str(deep)])
        else:  # as the target
            rc = main([
                "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
                "--budget", "2", "--target", str(deep),
                "-o", str(tmp_path / "s.jsonl"), "--trace", str(tmp_path / "t.json"),
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: invalid JSON: maximum recursion depth exceeded" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.jsonl").exists()


    @pytest.mark.parametrize("command", ["anchor", "sample", "derive-target", "stats"])
    @pytest.mark.parametrize(
        "name", [None, 5, True, ["a"], {"embedding": [1.0]}],
        ids=["null", "int", "bool", "list", "object"],
    )
    def test_non_string_name(self, ws, tmp_path, capsys, command, name):
        with open(ws["tree"], encoding="utf-8") as f:
            payload = json.load(f)
        payload["nodes"][1]["name"] = name
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = str(tmp_path / "out")
        argv = _input_argv(ws, out)[command]
        argv[argv.index("--tree") + 1] = str(bad)
        rc = main([command, *argv])
        assert rc == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: node 1: name must be a string, got {name!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["tree.json"]


def _tree_with_shared_leaf_name(ws, root, weighted: bool):
    """The workspace tree with one leaf renamed to a weighted leaf's name.

    The renamed leaf is one the reference does not weight, unless
    ``weighted``; both leaves then hold the name, so no target can key it.
    """
    tree = load_tree(ws["tree"])
    target = load_target(ws["target"], tree)
    leaves = tree.leaf_ids.tolist()
    keep = next(nid for nid in leaves if nid in target.weights)
    renamed = next(
        nid for nid in leaves if nid != keep and (nid in target.weights) == weighted
    )
    with open(ws["tree"], encoding="utf-8") as f:
        payload = json.load(f)
    name = tree.nodes[keep].name
    for node in payload["nodes"]:
        if node["id"] == renamed:
            node["name"] = name
    path = root / "tree.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path), name


@pytest.mark.parametrize("weighted", [False, True], ids=["one-weighted", "both-weighted"])
def test_derive_target_refuses_shared_leaf_name(ws, tmp_path, capsys, weighted):
    # sample would refuse the target's key, so none is written
    tree_path, name = _tree_with_shared_leaf_name(ws, tmp_path, weighted)
    out = tmp_path / "target.json"
    rc = main(["derive-target", "--anchored", ws["anchored"], "--tree", tree_path,
               "-o", str(out)])
    assert rc == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: leaf name '{name}' is ambiguous in this tree; cannot write by name\n"
    assert sorted(os.listdir(tmp_path)) == ["tree.json"]


class TestBadTargetFile:
    @pytest.mark.parametrize("command", ["stats", "sample"])
    def test_duplicate_leaf_name(self, ws, tmp_path, capsys, command):
        # json.loads keeps the last value, which would hide the extra weight
        with open(ws["target"], encoding="utf-8") as f:
            weights = json.load(f)
        first = next(iter(weights))
        dup = tmp_path / "target.json"
        dup.write_text(
            "{" + f"{json.dumps(first)}: {weights[first]!r}, " + json.dumps(weights)[1:],
            encoding="utf-8",
        )
        if command == "stats":
            rc = main([
                "stats", "--input", ws["anchored"], "--tree", ws["tree"],
                "--target", str(dup),
            ])
        else:
            rc = main([
                "sample", "--anchored", ws["anchored"], "--tree", ws["tree"],
                "--budget", "2", "--lambda", "1", "--target", str(dup),
                "-o", str(tmp_path / "s.jsonl"), "--trace", str(tmp_path / "t.json"),
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"duplicate leaf name '{first}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.jsonl").exists()


# Imports the package, runs every command in process on the workspace given
# as argv[1], and prints the scipy modules loaded after the commands.
_FOOTPRINT = """
import json, os, sys
import tagforest
from tagforest import cli
os.chdir(sys.argv[1])
commands = [
    ["build-tree", "--tags", "tags.txt", "--embeddings", "emb.tsv",
     "--branching", "3", "--seed", "1", "-o", "tree.json"],
    ["anchor", "--tree", "tree.json", "--pool", "pool.jsonl", "-o", "anchored.jsonl"],
    ["derive-target", "--anchored", "anchored.jsonl", "--tree", "tree.json", "-o", "target.json"],
    ["sample", "--anchored", "anchored.jsonl", "--tree", "tree.json", "--budget", "3",
     "-o", "general.jsonl", "--trace", "general.json"],
    ["sample", "--anchored", "anchored.jsonl", "--tree", "tree.json", "--budget", "3",
     "--target", "target.json", "--lambda", "1", "-o", "aligned.jsonl", "--trace", "aligned.json"],
    ["stats", "--input", "general.jsonl", "--tree", "tree.json", "--target", "target.json"],
]
codes = [cli.main(argv) for argv in commands]
after_commands = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "after_commands": after_commands}))
"""


def test_no_command_imports_scipy(tmp_path):
    _write_workspace(tmp_path)
    src = os.path.dirname(os.path.dirname(tagforest.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["after_commands"] == []
