"""Seeded input generator for the benchmark workloads.

These files are the only thing that feeds the program: the same workload,
seed and sizes always give the same bytes. Each generator returns the input
properties the program's behaviour depends on, so they can be reported next
to the metrics.
"""
from __future__ import annotations

import json
import os

import numpy as np

# Sizes of each workload; "budget" is the sample command's, not an input size.
FULL_SIZES = {
    # The criterion-10 shape: 25 groups x 40 leaves, 100k candidates.
    "select-general": {"groups": 25, "group_leaves": 40, "candidates": 100_000, "budget": 5000},
    # A deeper, irregular tree; the reference set is skewed toward 10% of leaves.
    "select-aligned": {
        "leaves": 2000,
        "fanout": (4, 8),
        "depth": 5,
        "candidates": 50_000,
        "reference": 5000,
        "budget": 2000,
    },
    "build-anchor": {
        "tags": 5000,
        "centres": 100,
        "variants": 2500,
        "dim": 64,
        "pool": 50_000,
        "unknown_names": 5000,
    },
}

# Share of pool tag draws that are exact leaf names, near-duplicate
# variants (resolved by nearest embedding) and names with no embedding.
TAG_MIX = (0.70, 0.25, 0.05)


def _write_tree(path: str, parents: list, names: list[str]) -> tuple[dict, list[int]]:
    """Write a tree.json whose ids are dense and every parent id precedes its child."""
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    depth = [0] * n
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
            depth[i] = depth[p] + 1
    nodes = [
        {
            "id": i,
            "name": names[i],
            "parent": parents[i],
            "children": children[i],
            "depth": depth[i],
            "embedding": None,
        }
        for i in range(n)
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"nodes": nodes}, f, separators=(",", ":"))
        f.write("\n")
    leaves = [i for i in range(n) if not children[i]]
    return {"tree_nodes": n, "tree_leaves": len(leaves), "tree_depth": max(depth)}, leaves


def _distinct_draws(rng: np.random.Generator, n_rows: int, width: int, high: int) -> np.ndarray:
    """n_rows x width integers in [0, high), distinct within each row."""
    draws = rng.integers(0, high, size=(n_rows, width))
    while True:
        ordered = np.sort(draws, axis=1)
        dup_rows = np.nonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))[0]
        if len(dup_rows) == 0:
            return draws
        draws[dup_rows] = rng.integers(0, high, size=(len(dup_rows), width))


def _write_anchored(path: str, rng, leaves: list[int], n_rows: int, prefix: str) -> float:
    """Anchored rows with 1-3 distinct uniform leaves and uniform scores."""
    counts = rng.integers(1, 4, size=n_rows)
    picks = _distinct_draws(rng, n_rows, 3, len(leaves))
    quality = rng.random(n_rows)
    complexity = rng.random(n_rows)
    leaf_arr = np.asarray(leaves)
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n_rows):
            row = {
                "id": f"{prefix}{i:06d}",
                "leaves": sorted(leaf_arr[picks[i, : counts[i]]].tolist()),
                "dropped": [],
                "quality": float(quality[i]),
                "complexity": float(complexity[i]),
            }
            f.write(json.dumps(row, separators=(",", ":")))
            f.write("\n")
    return float(counts.mean())


def select_general(out: str, rng: np.random.Generator, sizes: dict) -> dict:
    groups, per_group = sizes["groups"], sizes["group_leaves"]
    parents: list = [None] + [0] * groups
    names = ["root"] + [f"g{g}" for g in range(groups)]
    for g in range(groups):
        for leaf in range(per_group):
            parents.append(1 + g)
            names.append(f"g{g}_l{leaf}")
    props, leaves = _write_tree(os.path.join(out, "tree.json"), parents, names)
    props["pool_rows"] = sizes["candidates"]
    props["leaves_per_candidate"] = _write_anchored(
        os.path.join(out, "anchored.jsonl"), rng, leaves, sizes["candidates"], "c"
    )
    return props


def select_aligned(out: str, rng: np.random.Generator, sizes: dict) -> dict:
    # Expand leaves breadth-first, each into 4-8 children, until there are
    # enough leaves; the last expansions push a minority of branches one
    # level past the others, so leaf depth varies.
    lo, hi = sizes["fanout"]
    parents: list = [None]
    depth = [0]
    frontier = [0]
    n_leaves = 1
    head = 0
    while n_leaves < sizes["leaves"] and head < len(frontier):
        node = frontier[head]
        head += 1
        if depth[node] >= sizes["depth"]:
            continue
        fan = int(rng.integers(lo, hi + 1))
        for _ in range(fan):
            parents.append(node)
            depth.append(depth[node] + 1)
            frontier.append(len(parents) - 1)
        n_leaves += fan - 1
    names = [f"n{i}" for i in range(len(parents))]
    props, leaves = _write_tree(os.path.join(out, "tree.json"), parents, names)
    props["pool_rows"] = sizes["candidates"]
    props["leaves_per_candidate"] = _write_anchored(
        os.path.join(out, "anchored.jsonl"), rng, leaves, sizes["candidates"], "c"
    )

    # Reference rows: one leaf from a Zipf-weighted 10% minority, and with
    # probability 0.2 a second uniform leaf.
    minority = rng.choice(len(leaves), size=max(1, len(leaves) // 10), replace=False)
    weights = 1.0 / np.arange(1, len(minority) + 1)
    weights /= weights.sum()
    main = minority[rng.choice(len(minority), size=sizes["reference"], p=weights)]
    extra = rng.integers(0, len(leaves), size=sizes["reference"])
    has_extra = rng.random(sizes["reference"]) < 0.2
    with open(os.path.join(out, "reference.jsonl"), "w", encoding="utf-8") as f:
        for i in range(sizes["reference"]):
            row_leaves = {leaves[main[i]]}
            if has_extra[i]:
                row_leaves.add(leaves[extra[i]])
            row = {
                "id": f"ref{i:05d}",
                "leaves": sorted(row_leaves),
                "dropped": [],
                "quality": 0.5,
                "complexity": 0.5,
            }
            f.write(json.dumps(row, separators=(",", ":")))
            f.write("\n")
    props["reference_rows"] = sizes["reference"]
    return props


def _unit(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def build_anchor(out: str, rng: np.random.Generator, sizes: dict) -> dict:
    dim, n_tags, n_var = sizes["dim"], sizes["tags"], sizes["variants"]
    centres = _unit(rng.standard_normal((sizes["centres"], dim)))
    home = rng.integers(0, sizes["centres"], size=n_tags)
    tag_vecs = _unit(centres[home] + 0.6 * rng.standard_normal((n_tags, dim)) / np.sqrt(dim))
    tags = [f"tag{i:05d}" for i in range(n_tags)]
    base = rng.choice(n_tags, size=n_var, replace=False)
    var_vecs = _unit(tag_vecs[base] + 0.1 * rng.standard_normal((n_var, dim)) / np.sqrt(dim))
    variants = [f"{tags[b]}-variant" for b in base]

    with open(os.path.join(out, "tags.txt"), "w", encoding="utf-8") as f:
        f.write("".join(f"{t}\n" for t in tags))
    with open(os.path.join(out, "emb.tsv"), "w", encoding="utf-8") as f:
        f.write(f"dim={dim} count={n_tags + n_var}\n")
        for key, vec in zip(tags + variants, np.vstack([tag_vecs, var_vecs]).tolist()):
            f.write(key + "\t" + " ".join(repr(v) for v in vec) + "\n")

    n_rows = sizes["pool"]
    per_row = rng.integers(1, 5, size=n_rows)
    n_draws = int(per_row.sum())
    kind = rng.choice(3, size=n_draws, p=TAG_MIX)
    which = rng.integers(0, 1 << 30, size=n_draws)
    quality = rng.normal(5.0, 2.0, size=n_rows)
    complexity = rng.uniform(0.0, 10.0, size=n_rows)
    draw = 0
    with open(os.path.join(out, "pool.jsonl"), "w", encoding="utf-8") as f:
        for i in range(n_rows):
            row_tags = []
            for _ in range(per_row[i]):
                k, w = kind[draw], int(which[draw])
                draw += 1
                if k == 0:
                    row_tags.append(tags[w % n_tags])
                elif k == 1:
                    row_tags.append(variants[w % n_var])
                else:
                    row_tags.append(f"unknown{w % sizes['unknown_names']:05d}")
            row = {
                "id": f"p{i:06d}",
                "query": f"question {i} on {' and '.join(row_tags)}",
                "response": f"answer {i}",
                "tags": row_tags,
                "quality": float(quality[i]),
                "complexity": float(complexity[i]),
            }
            f.write(json.dumps(row, separators=(",", ":")))
            f.write("\n")
    shares = np.bincount(kind, minlength=3) / n_draws
    return {
        "pool_rows": n_rows,
        "tags": n_tags,
        "variant_tags": n_var,
        "tags_per_row": float(per_row.mean()),
        "input_exact_share": float(shares[0]),
        "input_variant_share": float(shares[1]),
        "input_unknown_share": float(shares[2]),
    }


GENERATORS = {
    "select-general": select_general,
    "select-aligned": select_aligned,
    "build-anchor": build_anchor,
}


def generate(workload: str, seed: int, out: str, sizes: dict | None = None) -> dict:
    """Write the workload's input files into ``out``; return their properties."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    return GENERATORS[workload](out, rng, sizes or FULL_SIZES[workload])
