"""Tests of the benchmark itself, at small sizes (a few seconds in all)."""
from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "select-general": {"groups": 5, "group_leaves": 8, "candidates": 500, "budget": 50},
    "select-aligned": {
        "leaves": 60,
        "fanout": (2, 4),
        "depth": 4,
        "candidates": 400,
        "reference": 100,
        "budget": 30,
    },
    "build-anchor": {
        "tags": 200,
        "centres": 10,
        "variants": 80,
        "dim": 16,
        "pool": 600,
        "unknown_names": 100,
    },
}


def _files(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_deterministic(workload, tmp_path):
    gen.generate(workload, 7, str(tmp_path / "a"), SMALL[workload])
    gen.generate(workload, 7, str(tmp_path / "b"), SMALL[workload])
    gen.generate(workload, 8, str(tmp_path / "c"), SMALL[workload])
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_is_correct(workload, trace, tmp_path):
    spec = run.prepare(workload, 3, 0.01, trace, str(tmp_path), SMALL[workload])
    result = run.execute(spec)
    report = run.evaluate(spec, result)
    assert report["problems"] == {}
    assert report["result"]["correct"] and report["result"]["failed"] == 0
    metrics = report["result"]["metrics"]
    if trace:
        # One untraced and one traced pass; their outputs must be byte-identical.
        untraced, traced = result["passes"]
        assert untraced["digests"] == traced["digests"] and traced["digests"]
        assert metrics["cli.sample_s"]["value"] > 0 or workload == "build-anchor"
        assert "trace.overhead_s" in metrics
        assert {s[5] for s in result["spans"]} == {spec["run_id"]}
    else:
        assert set(metrics) == set(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in metrics.values())


def test_corrupted_subset_counts_as_failed(tmp_path):
    spec = run.prepare("select-general", 3, 0.01, False, str(tmp_path), SMALL["select-general"])
    result = run.execute(spec)
    path = tmp_path / "subset.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1] + lines[:1]), encoding="utf-8")  # last pick replaced by a repeat
    report = run.evaluate(spec, result)
    assert report["problems"]["sample"]
    assert report["result"]["failed"] == 1
    assert report["failed_frac"] == 1 / report["result"]["attempted"]
    assert not report["result"]["correct"]


def test_wrappers_restore_originals_and_nest():
    import tagforest.cli
    import tagforest.sampler
    from tagforest.objective import InfoState

    before = (tagforest.sampler.gradient_vector, InfoState.add_contribution, tagforest.cli.load_tree)
    tracer = tracing.Tracer("t")
    with tracing.installed(tracer):
        assert tagforest.sampler.gradient_vector is not before[0]
        assert tagforest.cli.load_tree is not before[2]
        assert tagforest.cli.load_tree.__wrapped__ is before[2]
    assert (tagforest.sampler.gradient_vector, InfoState.add_contribution, tagforest.cli.load_tree) == before


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "a.outer", 0.0, 10.0, None, "r"),
        (1, "b.inner", 1.0, 4.0, 0, "r"),
        (2, "b.leaf", 2.0, 3.0, 1, "r"),
        (3, "c.other", 5.0, 6.0, 0, "r"),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", "/nonexistent")
    assert run.main(["--workload", "select-general"]) == 2
    assert capsys.readouterr().out == ""


def test_tag_shares_count_every_occurrence(tmp_path):
    spec = run.prepare("build-anchor", 4, 0.01, False, str(tmp_path), SMALL["build-anchor"])
    run.execute(spec)
    shares = checks.tag_shares(str(tmp_path))
    total = shares["exact_share"] + shares["nearest_share"] + shares["dropped_share"]
    assert total == pytest.approx(1.0)
    assert 0.0 < shares["distinct_tag_share"] <= 1.0


def test_recorded_digest_mismatch_counts_as_failed(tmp_path, monkeypatch):
    spec = run.prepare("select-general", 3, 0.01, False, str(tmp_path), SMALL["select-general"])
    result = run.execute(spec)
    spec["full"] = True  # digests are pinned only at full size
    monkeypatch.setattr(run, "DIGESTS", {"select-general": {"3": {"subset.jsonl": "0" * 64}}})
    report = run.evaluate(spec, result)
    assert report["problems"] == {"sample": ["subset.jsonl differs from the digest recorded for this seed"]}
    assert report["result"]["failed"] == 1
