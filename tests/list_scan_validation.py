"""Tree validation that scans lists, kept fixed as a reference.

``validate_tree`` is the validator from before it checked child listings
against one set per parent: it scans the parent's child list for every
node, counts duplicate ids with ``list.count`` and pops the BFS queue from
the front, so it is quadratic in fan-out. ``tagforest.tree.validate_tree``
must report the same entries in the same order.
"""
from __future__ import annotations

import numpy as np

from tagforest.tree import TagTree, ValidationReport


def validate_tree(tree: TagTree, depth_limit: int | None = None) -> ValidationReport:
    """Check every structural invariant; report all violations found.

    Checks: non-empty node list, dense unique 0-based ids, exactly one
    root, parent/children consistency in both directions, reachability
    (which also rules out cycles), correct depth labels, at least one
    leaf, finite embeddings, and optionally a maximum depth.
    """
    report = ValidationReport()
    nodes = tree.nodes
    if not nodes:
        report.error("tree", "node list is empty")
        return report

    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        report.error("tree", f"duplicate node ids: {dupes}")
        return report
    if sorted(ids) != list(range(len(nodes))):
        report.error("tree", "node ids are not dense 0-based integers")
        return report
    if ids != list(range(len(nodes))):
        report.error("tree", "nodes are not listed in id order")
        return report

    by_id = {n.id: n for n in nodes}
    roots = [n for n in nodes if n.parent is None]
    if len(roots) == 0:
        report.error("tree", "no root (every node has a parent)")
    elif len(roots) > 1:
        report.error("tree", f"multiple roots: {sorted(r.id for r in roots)}")

    for n in nodes:
        if n.parent is not None:
            if n.parent not in by_id:
                report.error(f"node {n.id}", f"parent {n.parent} does not exist")
            elif n.id not in by_id[n.parent].children:
                report.error(
                    f"node {n.id}", f"not listed in children of parent {n.parent}"
                )
        if len(set(n.children)) != len(n.children):
            report.error(f"node {n.id}", "duplicate entries in children")
        for c in n.children:
            if c not in by_id:
                report.error(f"node {n.id}", f"child {c} does not exist")
            elif by_id[c].parent != n.id:
                report.error(f"node {n.id}", f"child {c} has parent {by_id[c].parent}")
        if n.embedding is not None and not np.all(np.isfinite(n.embedding)):
            report.error(f"node {n.id}", "embedding has non-finite components")

    if not report.ok:
        return report

    # Reachability from the root; unreachable nodes imply a cycle or a
    # detached component given the parent/children checks above.
    root = roots[0]
    seen = {root.id}
    queue = [root.id]
    while queue:
        cur = queue.pop(0)
        for c in by_id[cur].children:
            if c not in seen:
                seen.add(c)
                queue.append(c)
    if len(seen) != len(nodes):
        missing = sorted(set(by_id) - seen)
        report.error("tree", f"nodes unreachable from root: {missing}")
        return report

    if root.depth != 0:
        report.error(f"node {root.id}", f"root depth is {root.depth}, expected 0")
    for n in nodes:
        for c in n.children:
            if by_id[c].depth != n.depth + 1:
                report.error(
                    f"node {c}",
                    f"depth {by_id[c].depth} does not equal parent depth + 1",
                )

    if not any(n.is_leaf() for n in nodes):
        report.error("tree", "tree has no leaves")

    if depth_limit is not None and report.ok:
        md = max(n.depth for n in nodes)
        if md > depth_limit:
            report.error("tree", f"max depth {md} exceeds limit {depth_limit}")

    return report
