"""Time the benchmark's commands on its inputs scaled to a tag or candidate count.

Usage, from the repository root:

    python3 tools/scale_probe.py --tags 5000 10000 20000 [--seed 0] [--work DIR]
    python3 tools/scale_probe.py --candidates 100000 1000000 [--seed 0] [--work DIR]

``--tags`` writes the build-anchor workload's inputs with
``perfbench/gen.py``'s ``generate``, every size but the embedding dimension
scaled by tags / 5,000 (so 5,000 tags is the benchmark's own input), then
runs ``build-tree`` and then ``anchor`` with the benchmark's options.
``--candidates`` writes the select-general workload's inputs with that many
anchored rows (100,000 is the benchmark's own input) and runs its
``sample`` command, budget 5,000. Each command runs in a fresh process with
one BLAS thread. Prints one line per command: the tag or candidate count,
the command, its wall time (the command alone, not the interpreter's
start), the peak RSS of its process (``ru_maxrss``) and the SHA-256 of its
first output (``tree.json``, ``anchored.jsonl`` or ``subset.jsonl``).
Inputs and outputs go to a temporary directory unless ``--work`` names one,
where they are kept, in ``tags<N>`` or ``candidates<N>``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
from checks import file_digest  # noqa: E402
from run import BLAS_ENV, build_spec  # noqa: E402

# Runs one CLI command in the child and prints its wall time and peak RSS
# as the last line of standard output.
_CHILD = """
import json, resource, sys, time
from tagforest import cli
start = time.perf_counter()
rc = cli.main(sys.argv[1:])
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": rss}))
"""
# Writes the inputs in a child too. A child's ru_maxrss starts at the peak
# RSS of the process that started it (Linux records the parent's high-water
# mark when the child's exec replaces the memory it shared), so generating
# 20,000 tags in this process raises build-tree's reading from 137 to
# 149-154 MB.
_GENERATE = """
import json, sys
import gen
gen.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3], json.loads(sys.argv[4]))
"""


def scaled_sizes(tags: int) -> dict:
    """The build-anchor sizes with every count scaled to ``tags`` tags."""
    full = gen.FULL_SIZES["build-anchor"]
    scale = tags / full["tags"]
    return {
        key: value if key == "dim" else max(1, round(value * scale))
        for key, value in full.items()
    }


def candidate_sizes(candidates: int) -> dict:
    """The select-general sizes with ``candidates`` anchored rows."""
    return {**gen.FULL_SIZES["select-general"], "candidates": candidates}


def run_command(argv: list[str], work: str) -> dict:
    """Run one CLI command in a fresh process in ``work``; return its wall_s and peak_rss_mb."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        cwd=work, env=env, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    if result.get("rc") != 0:
        raise RuntimeError(f"{argv[0]} failed:\n{proc.stderr}")
    return result


def probe(workload: str, sizes: dict, count: int, seed: int, work: str) -> list[dict]:
    """Generate ``workload``'s inputs at ``sizes`` into ``work``, run each command once."""
    subprocess.run(
        [sys.executable, "-c", _GENERATE, workload, str(seed), work, json.dumps(sizes)],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "perfbench")}, check=True,
    )
    spec = build_spec(workload, sizes.get("budget", 0))
    rows = []
    # select-general has one command, whose first output is subset.jsonl
    for argv, output in zip(spec["main"], spec["outputs"]):
        result = run_command(argv, work)
        rows.append({
            "count": count,
            "command": argv[0],
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "sha256": file_digest(os.path.join(work, output)),
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--tags", type=int, nargs="+")
    scale.add_argument("--candidates", type=int, nargs="+")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", help="directory for inputs and outputs (kept)")
    args = parser.parse_args(argv)
    if args.candidates:
        runs = [("select-general", candidate_sizes(n), n, f"candidates{n}") for n in args.candidates]
    else:
        runs = [("build-anchor", scaled_sizes(n), n, f"tags{n}")
                for n in args.tags or [5000, 10000, 20000]]
    for workload, sizes, count, name in runs:
        if args.work:
            rows = probe(workload, sizes, count, args.seed, os.path.join(args.work, name))
        else:
            with tempfile.TemporaryDirectory() as work:
                rows = probe(workload, sizes, count, args.seed, work)
        for row in rows:
            print(
                f"{row['count']:>7} {row['command']:<10} {row['wall_s']:8.2f} s "
                f"{row['peak_rss_mb']:8.1f} MB  {row['sha256']}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
