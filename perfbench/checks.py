"""Output checks, run after the timed commands.

Each check reads finished files from a workload directory and returns a
list of problems; an empty list means the output is correct. They use
plain JSON parsing, not tagforest's own readers, except the information
check, which recomputes the objective with the dense reference in
``tagforest.oracle``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def tree_problems(tree: dict) -> list[str]:
    """Dense ids in order, one root, parent/child links and depths agree."""
    nodes = tree["nodes"]
    problems = []
    if [n["id"] for n in nodes] != list(range(len(nodes))):
        return ["tree.json: node ids are not dense and in order"]
    roots = [n for n in nodes if n["parent"] is None]
    if len(roots) != 1 or roots[0]["depth"] != 0:
        problems.append("tree.json: not exactly one root at depth 0")
    for n in nodes:
        for c in n["children"]:
            if not 0 <= c < len(nodes) or nodes[c]["parent"] != n["id"]:
                problems.append(f"tree.json: child {c} of node {n['id']} does not point back")
            elif nodes[c]["depth"] != n["depth"] + 1:
                problems.append(f"tree.json: node {c} has the wrong depth")
    return problems


def leaf_ids(tree: dict) -> set[int]:
    return {n["id"] for n in tree["nodes"] if not n["children"]}


def check_selection(d: str, budget: int) -> list[str]:
    """subset.jsonl and trace.json of a sample run."""
    tree_leaves = leaf_ids(read_json(os.path.join(d, "tree.json")))
    anchored = {r["id"]: r for r in read_jsonl(os.path.join(d, "anchored.jsonl"))}
    usable = sum(1 for r in anchored.values() if r["leaves"])
    subset = read_jsonl(os.path.join(d, "subset.jsonl"))
    trace = read_json(os.path.join(d, "trace.json"))
    picks = trace["picks"]
    want = min(budget, usable)
    problems = []
    if not len(subset) == len(picks) == trace["selected"] == want:
        problems.append(
            f"subset has {len(subset)} rows and trace {len(picks)} picks; expected {want}"
        )
    if len({r["id"] for r in subset}) != len(subset):
        problems.append("subset ids are not unique")
    for i, (row, pick) in enumerate(zip(subset, picks)):
        if row["id"] != pick["id"] or row["iteration"] != i + 1:
            problems.append(f"subset row {i + 1} does not match trace pick {i + 1}")
            break
    for row in subset:
        source = anchored.get(row["id"])
        if source is None or list(row["leaves"]) != list(source["leaves"]):
            problems.append(f"subset row '{row['id']}' is not an anchored candidate")
            break
        if not set(row["leaves"]) <= tree_leaves:
            problems.append(f"subset row '{row['id']}' has a leaf that is not a tree leaf")
            break
    return problems


def check_target(d: str) -> list[str]:
    """target.json: weights over leaf names, summing to 1."""
    tree = read_json(os.path.join(d, "tree.json"))
    names = {n["name"] for n in tree["nodes"] if not n["children"]}
    target = read_json(os.path.join(d, "target.json"))
    problems = []
    if not set(target) <= names:
        problems.append("target.json names a node that is not a leaf")
    if not math.isclose(sum(target.values()), 1.0, rel_tol=1e-9):
        problems.append("target.json weights do not sum to 1")
    return problems


def check_built_tree(d: str) -> list[str]:
    """tree.json from build-tree: a valid tree whose leaves are exactly the tags."""
    tree = read_json(os.path.join(d, "tree.json"))
    with open(os.path.join(d, "tags.txt"), encoding="utf-8") as f:
        tags = {line.strip() for line in f if line.strip()}
    problems = tree_problems(tree)
    leaf_names = [n["name"] for n in tree["nodes"] if not n["children"]]
    if len(leaf_names) != len(tags) or set(leaf_names) != tags:
        problems.append("tree.json leaves are not exactly the tags")
    return problems


def check_anchored(d: str) -> list[str]:
    """anchored.jsonl from anchor: one row per pool row, leaves on the tree."""
    tree = read_json(os.path.join(d, "tree.json"))
    leaves = leaf_ids(tree)
    by_name = {}
    for n in tree["nodes"]:
        if not n["children"]:
            by_name.setdefault(n["name"], n["id"])
    pool = read_jsonl(os.path.join(d, "pool.jsonl"))
    rows = read_jsonl(os.path.join(d, "anchored.jsonl"))
    if [r["id"] for r in rows] != [p["id"] for p in pool]:
        return ["anchored.jsonl rows do not follow the pool rows"]
    for row, inst in zip(rows, pool):
        got = row["leaves"]
        if got != sorted(set(got)) or not set(got) <= leaves:
            return [f"anchored row '{row['id']}' has bad leaves"]
        exact = {by_name[t] for t in inst["tags"] if t in by_name}
        if not exact <= set(got) or set(row["dropped"]) & set(by_name):
            return [f"anchored row '{row['id']}' misses an exact tag match"]
        if not 0.0 <= row["quality"] <= 1.0 or not 0.0 <= row["complexity"] <= 1.0:
            return [f"anchored row '{row['id']}' has scores outside [0, 1]"]
    return []


def check_information(d: str, alpha: float = 0.8, gamma: float = 0.85) -> list[str]:
    """trace.json's final_information against the dense exact recomputation."""
    from tagforest.io import load_tree
    from tagforest.oracle import exact_information

    tree = load_tree(os.path.join(d, "tree.json"))
    subset = read_jsonl(os.path.join(d, "subset.jsonl"))
    scores = [alpha * r["quality"] + (1.0 - alpha) * r["complexity"] for r in subset]
    exact = exact_information([r["leaves"] for r in subset], scores, tree, gamma)
    got = read_json(os.path.join(d, "trace.json"))["final_information"]
    if not math.isclose(got, exact, rel_tol=1e-9):
        return [f"final_information {got!r} differs from the exact value {exact!r}"]
    return []


def tag_shares(d: str) -> dict:
    """How the pool's tag occurrences were resolved (tags de-duplicated per row)."""
    tree = read_json(os.path.join(d, "tree.json"))
    names = {n["name"] for n in tree["nodes"] if not n["children"]}
    counts = {"exact": 0, "nearest": 0, "dropped": 0}
    other: set[str] = set()
    for inst, row in zip(
        read_jsonl(os.path.join(d, "pool.jsonl")),
        read_jsonl(os.path.join(d, "anchored.jsonl")),
    ):
        dropped = set(row["dropped"])
        for tag in dict.fromkeys(inst["tags"]):
            if tag in names:
                counts["exact"] += 1
                continue
            other.add(tag)
            counts["dropped" if tag in dropped else "nearest"] += 1
    total = sum(counts.values())
    non_exact = counts["nearest"] + counts["dropped"]
    return {
        "exact_share": counts["exact"] / total,
        "nearest_share": counts["nearest"] / total,
        "dropped_share": counts["dropped"] / total,
        "distinct_tag_share": len(other) / non_exact if non_exact else 0.0,
    }
