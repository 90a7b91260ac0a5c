"""Child process of the benchmark: runs one workload's commands in-process.

Usage: python3 pipeline.py SPEC.json

The spec (written by run.py) names the commands; each is a call of
``tagforest.cli.main`` in this process, timed from outside. The result,
with every command's exit code, the timings, output digests and (traced
run) the spans, is written to the spec's ``result`` path.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

from checks import file_digest
from tagforest import cli, io
from tracing import Tracer, installed


class Runner:
    """Runs commands and keeps each one's exit code."""

    def __init__(self):
        self.commands: list[dict] = []

    def call(self, argv: list[str]) -> float:
        """Run one CLI command; return its wall time."""
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
        self.commands.append({"command": argv[0], "rc": rc})
        return wall

    def load(self, embeddings: str, pool: str) -> float:
        """The anchor command's input loading, through the library."""
        start = time.perf_counter()
        try:
            io.load_embeddings(embeddings)
            instances, _ = io.load_instances(pool)
            io.normalize_scores(instances)
            rc = 0
        except (OSError, ValueError):
            rc = 2
        wall = time.perf_counter() - start
        self.commands.append({"command": "load", "rc": rc})
        return wall

    def run_pass(self, spec: dict) -> dict:
        """One pass over the main commands: per-command wall, CPU, digests."""
        cpu = time.process_time()
        wall = {}
        for argv in spec["main"]:
            wall[argv[0]] = wall.get(argv[0], 0.0) + self.call(argv)
        cpu = time.process_time() - cpu
        digests = {
            name: file_digest(name) for name in spec["outputs"] if os.path.exists(name)
        }
        return {"wall": wall, "cpu_s": cpu, "digests": digests}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    runner = Runner()
    out = {"spans": [], "setup_s": [], "passes": []}

    for argv in spec["pre"]:
        runner.call(argv)
    if spec["trace"]:
        out["passes"].append(runner.run_pass(spec))
        tracer = Tracer(spec["run_id"])
        with installed(tracer):
            out["passes"].append(runner.run_pass(spec))
        out["spans"] = tracer.spans
    else:
        setup = spec["setup"]
        for _ in range(spec["setup_reps"]):
            if "argv" in setup:
                out["setup_s"].append(runner.call(setup["argv"]))
            else:
                out["setup_s"].append(runner.load(setup["embeddings"], setup["pool"]))
        measured = 0.0
        while not out["passes"] or measured < spec["seconds"]:
            p = runner.run_pass(spec)
            out["passes"].append(p)
            measured += sum(p["wall"].values())

    out["commands"] = runner.commands
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
