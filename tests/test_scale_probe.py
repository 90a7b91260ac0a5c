"""Smoke test of tools/scale_probe.py at 300 tags."""
from __future__ import annotations

import os
import subprocess
import sys

from tagforest import sha256_file

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "scale_probe.py"
)


def test_probe_runs_each_command_and_prints_its_output_digest(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--tags", "300", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    work = tmp_path / "tags300"
    assert len((work / "tags.txt").read_text().splitlines()) == 300
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[:2] for row in rows] == [["300", "build-tree"], ["300", "anchor"]]
    for row, output in zip(rows, ["tree.json", "anchored.jsonl"]):
        wall, rss = float(row[2]), float(row[4])
        assert wall > 0.0 and rss > 0.0
        assert row[-1] == sha256_file(work / output)
