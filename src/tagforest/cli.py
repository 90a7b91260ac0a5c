"""Command-line interface.

Subcommands cover the full pipeline:

    tagforest build-tree    --tags tags.txt --embeddings emb.tsv -o tree.json
    tagforest anchor        --tree tree.json --pool pool.jsonl -o anchored.jsonl
    tagforest derive-target --anchored ref.jsonl --tree tree.json -o target.json
    tagforest sample        --anchored anchored.jsonl --tree tree.json --budget 100
    tagforest stats         --input subset.jsonl --tree tree.json [--target q.json]

Each subcommand declares its input- and output-file options once. Before
any work, every input file given must exist, every output's directory
must exist, and no written file (an output or its sidecar) may be an
input or another written file; the options are checked next, before any
file is read. Every output file gets a ``<name>.manifest.json`` sidecar
recording the command, every option under its own name (defaults
included), the SHA-256 of each input file, version, and wall clock;
build-tree, the one command that draws random numbers, adds its seed.
Exit codes: 0 success, 2 usage/input error, 1 unexpected failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .anchoring import (
    DEFAULT_MIN_SIMILARITY,
    anchor_pool,
    load_anchored,
    read_rows,
    read_score,
    write_anchored,
)
from .io import (
    dumps_canonical,
    load_embeddings,
    load_instances,
    load_target,
    load_tree,
    normalize_scores,
    save_target,
    save_tree,
    sha256_file,
)
from .matrices import build_ancestry_matrix
from .objective import ObjectiveConfig, kl_penalty
from .sampler import (
    SamplerConfig,
    _leaf_counts,
    derive_target,
    export_subset,
    sample,
    write_trace,
)
from .tree import ValidationReport
from .treebuild import TreeBuildConfig, build_tree


class UserError(ValueError):
    """Invalid input or arguments; maps to exit code 2."""


# parsed options a manifest keeps out of ``parameters``: the dispatch
# fields, and build-tree's seed, which it records at the top level
_NOT_PARAMETERS = ("command", "func", "inputs", "outputs", "seed")


def _check_paths(args) -> None:
    """Refuse a missing input or output directory, and a file written over an input or twice."""
    claimed = {}  # real path -> what it is
    for name in args.inputs:
        path = getattr(args, name)
        if path and not os.path.isfile(path):
            raise UserError(f"{name} file not found: {path}")
        if path:
            claimed[os.path.realpath(path)] = f"{name} file"
    for name in args.outputs:
        output = getattr(args, name)
        if not os.path.isdir(os.path.dirname(output) or "."):  # the sidecar's too
            raise UserError(f"{name} directory not found: {os.path.dirname(output)}")
        for path in (output, f"{output}.manifest.json"):
            real = os.path.realpath(path)
            if real in claimed:
                raise UserError(f"{name} would overwrite the {claimed[real]}: {path}")
            claimed[real] = f"file written for {name}"


def _write_manifests(args, started: float, *paths: str, **extra) -> None:
    """Write a ``<path>.manifest.json`` sidecar for each output path.

    ``parameters`` are the parsed options under their own names, defaults
    included; ``inputs`` maps each given input file to its SHA-256, hashed
    once for all the sidecars; ``extra`` adds top-level keys (counters).
    """
    options = vars(args)
    given = dict.fromkeys(getattr(args, name) for name in args.inputs)
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in options.items() if k not in _NOT_PARAMETERS},
        "inputs": {path: sha256_file(path) for path in given if path},
        "version": __version__,
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "wall_clock_seconds": time.time() - started,
    }
    if "seed" in options:
        manifest["seed"] = args.seed
    manifest.update(extra)
    text = dumps_canonical(manifest)  # before opening: a refused value leaves no file
    for path in paths:
        with open(f"{path}.manifest.json", "w", encoding="utf-8") as f:
            f.write(text)
            f.write("\n")


def _print_report(report: ValidationReport) -> None:
    for severity, location, message in report.entries:
        print(f"{severity}: {location}: {message}", file=sys.stderr)


def _load_tags(path: str) -> list[str]:
    tags = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            tag = line.strip()
            if tag:
                tags.append(tag)
    if not tags:
        raise UserError(f"no tags found in {path}")
    return tags


def cmd_build_tree(args) -> int:
    started = time.time()
    config = TreeBuildConfig(
        depth_limit=args.depth,
        branching=args.branching,
        seed=args.seed,
        kmeans_iters=args.kmeans_iters,
        kmeans_restarts=args.kmeans_restarts,
    )
    tags = _load_tags(args.tags)
    table = load_embeddings(args.embeddings) if args.embeddings else None
    report = ValidationReport()
    tree = build_tree(tags, table, config, report)
    _print_report(report)
    save_tree(tree, args.output)
    _write_manifests(args, started, args.output)
    n_leaves = sum(n.is_leaf() for n in tree.nodes)  # leaf_ids would validate it again
    print(
        f"built tree: {tree.n_nodes} nodes, {n_leaves} leaves, "
        f"max depth {tree.max_depth()} -> {args.output}"
    )
    return 0


def cmd_anchor(args) -> int:
    started = time.time()
    tree = load_tree(args.tree)
    pool, report = load_instances(args.pool, keep_texts=())  # no step reads a text
    _print_report(report)
    if not pool:
        raise UserError("pool has no parseable instances")
    pool = normalize_scores(pool)
    table = load_embeddings(args.embeddings) if args.embeddings else None
    records, anchor_report = anchor_pool(pool, tree, table, args.min_sim)
    write_anchored(records, args.output)
    counters = {
        "exact": anchor_report.exact_tags,
        "nearest": anchor_report.nearest_tags,
        "dropped": sum(anchor_report.dropped_tags.values()),
    }
    _write_manifests(args, started, args.output, counters=counters)
    print(
        f"anchored {anchor_report.anchored}/{len(pool)} instances "
        f"({len(anchor_report.unanchorable_ids)} unanchorable, "
        f"{counters['dropped']} tag drops) -> {args.output}"
    )
    if anchor_report.unanchorable_ids:
        shown = ", ".join(anchor_report.unanchorable_ids[:10])
        more = len(anchor_report.unanchorable_ids) - 10
        suffix = f" (+{more} more)" if more > 0 else ""
        print(f"unanchorable: {shown}{suffix}", file=sys.stderr)
    return 0


def cmd_derive_target(args) -> int:
    started = time.time()
    tree = load_tree(args.tree)
    records = load_anchored(args.anchored)
    target = derive_target(records, tree)
    save_target(target, tree, args.output)
    _write_manifests(args, started, args.output)
    print(f"derived target over {len(target.weights)} leaves -> {args.output}")
    return 0


def cmd_sample(args) -> int:
    started = time.time()
    objective = ObjectiveConfig(
        alpha=args.alpha,
        gamma=args.gamma,
        kl_weight=getattr(args, "lambda"),
        epsilon=args.epsilon,
    )
    if objective.kl_weight > 0.0 and not args.target:
        raise UserError("--lambda > 0 requires --target")
    config = SamplerConfig(
        budget=args.budget,
        objective=objective,
        workers=args.workers,
    )
    tree = load_tree(args.tree)
    records = load_anchored(args.anchored)
    target = load_target(args.target, tree) if args.target else None

    if args.budget > len(records):
        print(
            f"warning: budget {args.budget} exceeds pool size {len(records)}; "
            "selecting everything usable",
            file=sys.stderr,
        )
    selected, trace = sample(records, tree, config, target)

    pool = None
    if args.pool:
        # every row is still parsed and checked; only the picks' texts are kept
        pool, report = load_instances(args.pool, keep_texts={r.id for r in selected})
        _print_report(report)
    export_subset(selected, trace, pool, args.output)
    write_trace(trace, args.trace)

    args.mode = trace.mode  # follows the target; recorded with the options
    counters = {
        "full_rescores": trace.full_rescores,
        "rescored": trace.rescored,
        "blocks_visited": trace.blocks_visited,
    }
    _write_manifests(args, started, args.output, args.trace, counters=counters)
    kl_text = "n/a" if trace.final_kl is None else format(trace.final_kl, ".6g")
    print(
        f"selected {len(selected)} of {len(records)} "
        f"(final information {trace.final_information:.6g}, final KL {kl_text}) "
        f"-> {args.output}"
    )
    return 0


def cmd_stats(args) -> int:
    started = time.time()
    epsilon = ObjectiveConfig(epsilon=args.epsilon).epsilon
    tree = load_tree(args.tree)
    try:  # anchored or exported subset rows
        numbered = list(read_rows(args.input, ("leaves",)))
    except ValueError as exc:
        raise UserError(f"{args.input}: {exc}") from None
    counts = _leaf_counts(((row.get("id", n), row["leaves"]) for n, row in numbered), tree)

    scores = {}  # read in full before the first line of output
    try:
        for field in ("quality", "complexity"):
            scores[field] = [
                read_score(row, field, lineno) for lineno, row in numbered if field in row
            ]
    except ValueError as exc:
        raise UserError(f"{args.input}: {exc}") from None
    target = load_target(args.target, tree) if args.target else None

    leaf_ids = tree.leaf_ids
    print(f"rows: {len(numbered)}")
    print("leaf histogram (leaf id, name, count):")
    for j, nid in enumerate(leaf_ids):
        if counts[j] or args.all_leaves:
            print(f"  {int(nid)}\t{tree.node(int(nid)).name}\t{int(counts[j])}")

    # a node is activated when some counted leaf is at or below it; a valid
    # tree has nodes at every depth from 0 to its deepest
    activated = build_ancestry_matrix(tree).path_counts(np.flatnonzero(counts)) > 0
    depths = np.array([node.depth for node in tree.nodes])
    total = np.bincount(depths)
    hit = np.bincount(depths[activated], minlength=len(total))
    print("coverage per depth (activated/total):")
    for depth, (h, t) in enumerate(zip(hit.tolist(), total.tolist())):
        print(f"  depth {depth}: {h}/{t}")

    for field, values in scores.items():
        if values:
            qs = np.quantile(np.array(values), [0.0, 0.25, 0.5, 0.75, 1.0])
            print(
                f"{field} quantiles: min {qs[0]:.6g}, p25 {qs[1]:.6g}, "
                f"median {qs[2]:.6g}, p75 {qs[3]:.6g}, max {qs[4]:.6g}"
            )

    if target is not None:
        kl = kl_penalty(target.dense(leaf_ids), counts, epsilon)
        print(f"KL(target || selection): {kl:.6g}")
    print(f"done in {time.time() - started:.2f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagforest",
        description="Tree-aware instruction-data selection pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # option defaults are the config dataclasses' field defaults
    build, objective = TreeBuildConfig, ObjectiveConfig

    p = sub.add_parser("build-tree", help="cluster tags into a taxonomy")
    p.add_argument("--tags", required=True, help="text file, one tag per line")
    p.add_argument("--embeddings", default=None, help="TSV embedding table")
    p.add_argument(
        "--depth", type=int, default=build.depth_limit, help="max tree depth (root=0)"
    )
    p.add_argument(
        "--branching", type=float, default=build.branching, help="contraction ratio"
    )
    p.add_argument("--kmeans-iters", type=int, default=build.kmeans_iters)
    p.add_argument("--kmeans-restarts", type=int, default=build.kmeans_restarts)
    p.add_argument("--seed", type=int, default=build.seed)
    p.add_argument("-o", "--output", default="tree.json")
    p.set_defaults(func=cmd_build_tree, inputs=("tags", "embeddings"), outputs=("output",))

    p = sub.add_parser("anchor", help="map pool instances onto tree leaves")
    p.add_argument("--tree", required=True)
    p.add_argument("--pool", required=True, help="JSONL instance pool")
    p.add_argument("--embeddings", default=None, help="TSV embedding table for tags")
    p.add_argument("--min-sim", type=float, default=DEFAULT_MIN_SIMILARITY)
    p.add_argument("-o", "--output", default="anchored.jsonl")
    p.set_defaults(
        func=cmd_anchor, inputs=("tree", "pool", "embeddings"), outputs=("output",)
    )

    p = sub.add_parser("derive-target", help="empirical leaf target from a reference")
    p.add_argument("--anchored", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("-o", "--output", default="target.json")
    p.set_defaults(func=cmd_derive_target, inputs=("anchored", "tree"), outputs=("output",))

    p = sub.add_parser("sample", help="greedy subset selection")
    p.add_argument("--anchored", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--alpha", type=float, default=objective.alpha)
    p.add_argument("--gamma", type=float, default=objective.gamma)
    p.add_argument("--lambda", type=float, default=objective.kl_weight)
    p.add_argument("--epsilon", type=float, default=objective.epsilon)
    p.add_argument("--target", default=None, help="target.json enabling aligned mode")
    p.add_argument("--pool", default=None, help="original pool for full-record export")
    p.add_argument(
        "--workers",
        type=int,
        default=SamplerConfig.workers,
        help="recorded in the manifest (must be >= 1); scoring is single-threaded",
    )
    p.add_argument("-o", "--output", default="subset.jsonl")
    p.add_argument("--trace", default="trace.json")
    p.set_defaults(
        func=cmd_sample,
        inputs=("anchored", "tree", "target", "pool"),
        outputs=("output", "trace"),
    )

    p = sub.add_parser("stats", help="histogram/coverage/KL of a selection")
    p.add_argument("--input", required=True, help="anchored or exported subset JSONL")
    p.add_argument("--tree", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--epsilon", type=float, default=objective.epsilon)
    p.add_argument("--all-leaves", action="store_true", help="include zero-count leaves")
    p.set_defaults(func=cmd_stats, inputs=("input", "tree", "target"), outputs=())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - unexpected failure path
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
