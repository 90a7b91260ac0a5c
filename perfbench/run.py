"""tagforest pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload select-general --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed, runs its tagforest commands
in a fresh child process (``pipeline.py``), checks the outputs, and prints
the metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced pass. See README.md for the workloads and every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import self_times  # noqa: E402

# Set-up is timed this many times per run and reported as the median.
SETUP_REPS = 3
# BLAS libraries are held to one thread.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170
# Candidate scoring runs on one thread. With --workers 2 on a 2-vCPU VM, the
# wall time of select-aligned spread by 38% of its median over ten seeds
# (CPU time by 9%), more than any bound can absorb.
WORKERS = 1

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as _f:
    DIGESTS = json.load(_f)


def build_spec(workload: str, budget: int) -> dict:
    """Commands of one workload, as CLI argument lists (paths relative to its directory)."""
    if workload == "build-anchor":
        return {
            "pre": [],
            "setup": {"embeddings": "emb.tsv", "pool": "pool.jsonl"},
            "main": [
                ["build-tree", "--tags", "tags.txt", "--embeddings", "emb.tsv",
                 "--branching", "10", "-o", "tree.json"],
                ["anchor", "--tree", "tree.json", "--pool", "pool.jsonl",
                 "--embeddings", "emb.tsv", "--min-sim", "0.5", "-o", "anchored.jsonl"],
            ],
            "outputs": ["tree.json", "anchored.jsonl"],
        }
    sample = ["sample", "--anchored", "anchored.jsonl", "--tree", "tree.json",
              "--workers", str(WORKERS)]
    pre = []
    if workload == "select-aligned":
        derive = ["derive-target", "--anchored", "reference.jsonl", "--tree",
                  "tree.json", "-o", "target.json"]
        sample += ["--target", "target.json", "--lambda", "5"]
        pre = [derive]
    return {
        "pre": pre,
        "setup": {"argv": sample + ["--budget", "0", "-o", "setup_subset.jsonl",
                                    "--trace", "setup_trace.json"]},
        "main": pre + [sample + ["--budget", str(budget), "-o", "subset.jsonl",
                                 "--trace", "trace.json"]],
        "outputs": ["target.json", "subset.jsonl", "trace.json"] if pre
        else ["subset.jsonl", "trace.json"],
    }


def prepare(workload: str, seed: int, seconds: float, trace: bool, work: str,
            sizes: dict | None = None) -> dict:
    """Generate the inputs into ``work`` and write the child's spec there."""
    full = sizes is None
    sizes = sizes or gen.FULL_SIZES[workload]
    props = gen.generate(workload, seed, work, sizes)
    budget = sizes.get("budget", 0)
    spec = build_spec(workload, budget)
    spec.update(
        workload=workload,
        seed=seed,
        full=full,
        budget=budget,
        seconds=seconds,
        trace=trace,
        setup_reps=SETUP_REPS,
        run_id=f"{workload}-{seed}-{os.getpid()}",
        dir=work,
        result=os.path.join(work, "result.json"),
        inputs=props,
    )
    with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as f:
        json.dump(spec, f)
    return spec


def execute(spec: dict) -> dict:
    """Run the child process to completion and return its result."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    env.pop("TAGFOREST_THREADS", None)
    with open(os.path.join(spec["dir"], "commands.log"), "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "pipeline.py"), "spec.json"],
            cwd=spec["dir"],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    if proc.returncode != 0:
        with open(os.path.join(spec["dir"], "commands.log"), encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise RuntimeError(f"benchmark child exited {proc.returncode}:\n{tail}")
    with open(spec["result"], encoding="utf-8") as f:
        return json.load(f)


# Files whose bytes are pinned by digests.json (and printed on every run).
DIGESTED = ("tree.json", "anchored.jsonl", "subset.jsonl", "trace.json")
# Which command wrote each checked file.
WRITER = {
    "subset.jsonl": "sample",
    "trace.json": "sample",
    "target.json": "derive-target",
    "tree.json": "build-tree",
    "anchored.jsonl": "anchor",
}


def output_digests(spec: dict) -> dict[str, str]:
    paths = {name: os.path.join(spec["dir"], name) for name in DIGESTED}
    return {name: checks.file_digest(p) for name, p in paths.items() if os.path.exists(p)}


def output_problems(spec: dict, digests: dict[str, str], oracle: bool) -> dict[str, list[str]]:
    """Command name -> problems found in the final outputs it wrote."""
    d, workload = spec["dir"], spec["workload"]
    found: dict[str, list[str]] = defaultdict(list)
    first = spec["main"][0][0]
    if workload == "build-anchor":
        found["build-tree"] += checks.check_built_tree(d)
        found["anchor"] += checks.check_anchored(d)
    else:
        found["sample"] += checks.check_selection(d, spec["budget"])
        if workload == "select-aligned":
            found["derive-target"] += checks.check_target(d)
        if oracle:
            if SRC not in sys.path:
                sys.path.insert(0, SRC)
            found["sample"] += checks.check_information(d)
    recorded = DIGESTS.get(workload, {}).get(str(spec["seed"])) if spec["full"] else None
    for name, want in (recorded or {}).items():
        if digests.get(name) != want:
            # Inputs of select-* are not written by a command; blame the first one.
            owner = WRITER[name] if name in spec["outputs"] else first
            found[owner].append(f"{name} differs from the digest recorded for this seed")
    return {k: v for k, v in found.items() if v}


def count_failures(spec: dict, result: dict, problems: dict[str, list[str]]) -> int:
    """Commands that exited non-zero, changed output between passes, or wrote bad output."""
    failed = sum(1 for c in result["commands"] if c["rc"] != 0)
    reference = result["passes"][0]["digests"]
    for p in result["passes"][1:]:
        for name, digest in p["digests"].items():
            if digest != reference.get(name):
                failed += 1
    return failed + len(problems)


def command_rates(spec: dict, result: dict) -> dict:
    """Median per-command rates, for the commands the workload runs."""
    median = statistics.median
    passes = result["passes"]
    rates = {}
    if "sample" in passes[0]["wall"]:
        rates["select_picks_per_s"] = median(
            [spec["budget"] / p["wall"]["sample"] for p in passes])
    if "anchor" in passes[0]["wall"]:
        rows = spec["inputs"]["pool_rows"]
        rates["anchor_rows_per_s"] = median([rows / p["wall"]["anchor"] for p in passes])
        tags = spec["inputs"]["tags"]
        rates["build_tags_per_s"] = median([tags / p["wall"]["build-tree"] for p in passes])
    return rates


def end_to_end(spec: dict, result: dict) -> dict:
    median = statistics.median
    passes = result["passes"]
    walls = [sum(p["wall"].values()) for p in passes]
    if spec["workload"] == "build-anchor":
        items_per_s = median([spec["inputs"]["pool_rows"] / w for w in walls])
    else:
        items_per_s = command_rates(spec, result)["select_picks_per_s"]
    return {
        "wall_s": median(walls),
        "setup_s": median(result["setup_s"]),
        "items_per_s": items_per_s,
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(spec: dict, result: dict, shares: dict) -> dict:
    """Per-layer metrics from the traced pass's spans (0 where a layer does not run)."""
    spans = [tuple(s) for s in result["spans"]]
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        total[span[1]] += span[3] - span[2]
        calls[span[1]] += 1
        layer_self[span[1].split(".")[0]] += own[span[0]]

    m = {}
    # The sampler: set-up runs from entry to the first gradient; the loop
    # from there to the final state_information call after the last pick.
    samples = [s for s in spans if s[1] == "sampler.sample"]
    setup = loop = score_self = 0.0
    picks = candidates = workers = 0
    if samples:
        outer = samples[-1]

        def inside(name):
            return [s for s in spans if s[1] == name and outer[2] <= s[2] and s[3] <= outer[3]]

        grads = inside("objective.gradient_vector")
        finals = inside("objective.state_information")
        first = min((g[2] for g in grads), default=outer[3])
        loop_end = finals[0][2] if finals else outer[3]
        setup = first - outer[2]
        loop = loop_end - first if grads else 0.0
        busy = sum(s[3] - s[2] for s in grads + inside("objective.add_contribution"))
        score_self = loop - busy
        trace = checks.read_json(os.path.join(spec["dir"], "trace.json"))
        picks = trace["selected"]
        candidates = trace["pool_size"] - trace["unanchorable"]
        manifest = checks.read_json(os.path.join(spec["dir"], "subset.jsonl.manifest.json"))
        workers = manifest["parameters"]["workers"]
    m["sampler.setup_s"] = setup
    m["sampler.loop_s"] = loop
    m["sampler.pick_ms"] = 1000.0 * loop / picks if picks else 0.0
    m["sampler.score_self_s"] = score_self
    m["sampler.picks"] = picks
    m["sampler.candidates"] = candidates
    m["sampler.workers"] = workers
    for fn in ("export_subset", "write_trace", "derive_target"):
        m[f"sampler.{fn}_s"] = total[f"sampler.{fn}"]

    m["objective.composite_score_calls"] = calls["objective.composite_score"]
    m["objective.composite_score_s"] = total["objective.composite_score"]
    m["objective.gradient_vector_s"] = total["objective.gradient_vector"]
    m["objective.gradient_vector_calls"] = calls["objective.gradient_vector"]
    for fn in ("add_contribution", "state_information", "kl_penalty"):
        m[f"objective.{fn}_s"] = total[f"objective.{fn}"]

    m["anchoring.anchor_pool_s"] = total["anchoring.anchor_pool"]
    m["anchoring.self_s"] = layer_self["anchoring"]
    m["anchoring.load_anchored_s"] = total["anchoring.load_anchored"]
    m["anchoring.write_anchored_s"] = total["anchoring.write_anchored"]
    for key in ("exact_share", "nearest_share", "dropped_share", "distinct_tag_share"):
        m[f"anchoring.{key}"] = shares.get(key, 0.0)

    m["matrices.tree_counts_calls"] = calls["matrices.tree_counts"]
    m["matrices.tree_counts_s"] = total["matrices.tree_counts"]
    for fn in ("build_ancestry", "build_propagation"):
        m[f"matrices.{fn}_s"] = total[f"matrices.{fn}"]
        m[f"matrices.{fn}_calls"] = calls[f"matrices.{fn}"]

    m["tree.validate_tree_calls"] = calls["tree.validate_tree"]
    m["tree.validate_tree_s"] = total["tree.validate_tree"]

    for fn in ("build_tree", "kmeans", "cluster_level", "refine_clusters"):
        m[f"treebuild.{fn}_s"] = total[f"treebuild.{fn}"]
    m["treebuild.kmeans_calls"] = calls["treebuild.kmeans"]
    m["treebuild.self_s"] = layer_self["treebuild"]
    m["treebuild.levels"] = calls["treebuild.cluster_level"]

    for fn in ("load_instances", "normalize_scores", "load_embeddings", "load_tree", "save_tree"):
        m[f"io.{fn}_s"] = total[f"io.{fn}"]
    m["io.fallback_embedding_calls"] = calls["io.fallback_embedding"]

    for fn in ("build_tree", "anchor", "derive_target", "sample", "sha256"):
        m[f"cli.{fn}_s"] = total[f"cli.{fn}"]

    untraced, traced = result["passes"]
    m["trace.overhead_s"] = sum(traced["wall"].values()) - sum(untraced["wall"].values())
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "fraction"
    return "count"


def evaluate(spec: dict, result: dict) -> dict:
    """Check the outputs and turn the child's result into the report."""
    digests = output_digests(spec)
    problems = output_problems(spec, digests, oracle=spec["trace"])
    failed = count_failures(spec, result, problems)
    attempted = len(result["commands"])
    inputs = dict(spec["inputs"])
    tree = checks.read_json(os.path.join(spec["dir"], "tree.json"))
    depth = max(n["depth"] for n in tree["nodes"])
    inputs.update(tree_nodes=len(tree["nodes"]),
                  tree_leaves=len(checks.leaf_ids(tree)), tree_depth=depth)
    shares = {}
    if spec["workload"] == "build-anchor":
        shares = checks.tag_shares(spec["dir"])
        rows = checks.read_jsonl(os.path.join(spec["dir"], "anchored.jsonl"))
        inputs["leaves_per_candidate"] = sum(len(r["leaves"]) for r in rows) / len(rows)
        inputs.update(shares)
    if spec["trace"]:
        values = layer_metrics(spec, result, shares)
    else:
        values = end_to_end(spec, result)
    env = dict(result["env"], nproc=len(os.sched_getaffinity(0)), workers=WORKERS)
    return {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "env": env,
        "inputs": inputs,
        "digests": digests,
        "passes": len(result["passes"]),
        "problems": problems,
        "rates": command_rates(spec, result),
        "failed_frac": failed / attempted,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> dict:
    """Prepare, execute and evaluate one run in a scratch directory under perfbench/."""
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch)
    try:
        spec = prepare(workload, seed, seconds, trace, work, sizes)
        return evaluate(spec, execute(spec))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tagforest", "__init__.py")):
        print(f"error: no tagforest sources under {SRC}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {args.trace} passes {report['passes']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print("inputs " + json.dumps(report["inputs"], sort_keys=True))
    print("sha256 " + json.dumps(report["digests"]))
    for command, found in sorted(report["problems"].items()):
        for problem in found:
            print(f"problem {command}: {problem}")
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in report["rates"].items():
        print(f"  {name:36s} {value:>14.6g} 1/s")
    print(f"  {'failed_frac':36s} {report['failed_frac']:>14.6g} fraction")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
