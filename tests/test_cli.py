"""End-to-end command-line tests: exit codes, file outputs, manifests."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import tagforest
from tagforest import (
    __version__,
    load_anchored,
    load_instances,
    load_target,
    load_tree,
    sha256_file,
)
from tagforest.cli import _write_manifest, main

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


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_module_entry_point(self):
        # The child imports the same package as this process, installed or not.
        src = os.path.dirname(os.path.dirname(tagforest.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tagforest", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
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
    """A NaN or infinite option fails its rule before any output or
    manifest is written."""

    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("anchor", "--min-sim", "nan", "min_similarity must be finite, got nan"),
            ("anchor", "--min-sim", "inf", "min_similarity must be finite, got inf"),
            ("sample", "--lambda", "nan", "kl_weight must be >= 0, got nan"),
            ("sample", "--epsilon", "nan", "epsilon must be > 0, got nan"),
            ("build-tree", "--branching", "nan", "branching must be > 1, got nan"),
            ("build-tree", "--branching", "inf", "branching must be finite, got inf"),
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_joint_refused_without_output(self, ws, tmp_path, capsys):
        # a finite but huge lambda overflows the joint: no silent empty subset
        rc = main([
            "sample", "--anchored", ws["anchored"], "--tree", ws["tree"], "--budget", "3",
            "--target", ws["target"], "--lambda", "1e308",
            "-o", str(tmp_path / "out"), "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: iteration 1: the joint is not finite at kl_weight 1e+308" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []


def test_manifest_refused_value_leaves_no_file(tmp_path):
    # the sidecar is serialized before it is opened, so a value it cannot
    # hold leaves no empty manifest behind
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="non-finite"):
        _write_manifest(str(out), "build-tree", {"branching": float("inf")}, {}, 0.0)
    assert os.listdir(tmp_path) == []


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
        err = capsys.readouterr().err
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
