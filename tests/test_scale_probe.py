"""Smoke tests of tools/scale_probe.py at 300 tags and 2,000 candidates."""
from __future__ import annotations

import os
import subprocess
import sys

from tagforest import sha256_file

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "scale_probe.py"
)


def _probe(*args: str) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, SCRIPT, *args], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def _check(row: list[str], output) -> None:
    wall, rss = float(row[2]), float(row[4])
    assert wall > 0.0 and rss > 0.0
    assert row[-1] == sha256_file(output)


def test_probe_runs_each_command_and_prints_its_output_digest(tmp_path):
    rows = _probe("--tags", "300", "--work", str(tmp_path))
    work = tmp_path / "tags300"
    assert len((work / "tags.txt").read_text().splitlines()) == 300
    assert [row[:2] for row in rows] == [["300", "build-tree"], ["300", "anchor"]]
    for row, output in zip(rows, ["tree.json", "anchored.jsonl"]):
        _check(row, work / output)


def test_probe_samples_a_scaled_candidate_pool(tmp_path):
    rows = _probe("--candidates", "2000", "--work", str(tmp_path))
    work = tmp_path / "candidates2000"
    assert len((work / "anchored.jsonl").read_text().splitlines()) == 2000
    assert [row[:2] for row in rows] == [["2000", "sample"]]
    _check(rows[0], work / "subset.jsonl")
    # a budget of 5,000 selects the whole pool
    assert len((work / "subset.jsonl").read_text().splitlines()) == 2000
