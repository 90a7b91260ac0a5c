"""Tag tree structure and validation.

A tag tree is a rooted tree over tag nodes: leaves are the concrete tags
instances can anchor to, internal nodes are broader topics, and a single
root covers everything. Node ids are dense 0-based integers assigned in
breadth-first order at construction time, so they double as row/column
indices for the structural matrices built in :mod:`tagforest.matrices`.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "TreeNode",
    "TagTree",
    "ValidationReport",
    "InvalidTreeError",
    "validate_tree",
]


@dataclass(eq=False)
class TreeNode:
    """One node of a tag tree.

    ``parent`` is None exactly for the root. ``children`` holds child node
    ids in a stable order. ``embedding`` is optional; when present it is a
    1-D float vector (leaves carry their tag embedding, internal nodes the
    mean of their members').
    """

    id: int
    name: str
    parent: int | None
    children: list[int] = field(default_factory=list)
    depth: int = 0
    embedding: np.ndarray | None = None

    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeNode):
            return NotImplemented
        if (self.id, self.name, self.parent, self.children, self.depth) != (
            other.id,
            other.name,
            other.parent,
            other.children,
            other.depth,
        ):
            return False
        if self.embedding is None or other.embedding is None:
            return self.embedding is None and other.embedding is None
        return np.array_equal(self.embedding, other.embedding)


@dataclass
class ValidationReport:
    """Accumulates (severity, location, message) entries; empty == valid."""

    entries: list[tuple[str, str, str]] = field(default_factory=list)

    def error(self, location: str, message: str) -> None:
        self.entries.append(("error", location, message))

    def warning(self, location: str, message: str) -> None:
        self.entries.append(("warning", location, message))

    @property
    def errors(self) -> list[tuple[str, str, str]]:
        return [e for e in self.entries if e[0] == "error"]

    @property
    def warnings(self) -> list[tuple[str, str, str]]:
        return [e for e in self.entries if e[0] == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        if not self.entries:
            return "valid"
        return "\n".join(f"{sev}: {loc}: {msg}" for sev, loc, msg in self.entries)


class InvalidTreeError(ValueError):
    """Raised when an operation requires a valid tree and validation failed."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


@dataclass(eq=False)
class TagTree:
    """A rooted tree, ``nodes[i].id == i``, checked on the first read of a view.

    Every view derives from ``parents``, whose first read runs
    :func:`validate_tree` and raises :class:`InvalidTreeError` on an invalid
    tree. The views are kept, so change the nodes only before first use.
    """

    nodes: list[TreeNode]

    @cached_property
    def parents(self) -> np.ndarray:
        """Parent id of each node, -1 for the root; the tree's one check."""
        report = validate_tree(self)
        if not report.ok:
            raise InvalidTreeError(report)
        return np.array(
            [-1 if n.parent is None else n.parent for n in self.nodes], dtype=np.int64
        )

    @cached_property
    def root_id(self) -> int:
        return int(np.flatnonzero(self.parents < 0)[0])

    @cached_property
    def leaf_ids(self) -> np.ndarray:
        """Leaf ids, ascending (the leaf column order): nodes that are no node's parent."""
        children = np.bincount(self.parents + 1, minlength=self.n_nodes + 1)[1:]
        return np.flatnonzero(children == 0)  # np.setdiff1d imports numpy.ma: +1 MB peak RSS

    @cached_property
    def leaf_pos(self) -> dict[int, int]:
        """Map leaf node id -> dense leaf position (column index)."""
        return {nid: j for j, nid in enumerate(self.leaf_ids.tolist())}

    @cached_property
    def leaves_by_name(self) -> dict[str, tuple[int, ...]]:
        """Map each leaf name -> the ids of the leaves holding it, ascending."""
        by_name: dict[str, tuple[int, ...]] = {}
        for nid in self.leaf_ids.tolist():  # tuples take a third less memory than lists
            name = self.nodes[nid].name
            by_name[name] = by_name.get(name, ()) + (nid,)
        return by_name

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def max_depth(self) -> int:
        return max(n.depth for n in self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagTree):
            return NotImplemented
        return self.nodes == other.nodes


def validate_tree(tree: TagTree) -> ValidationReport:
    """Check every structural invariant; report all violations found.

    Checks: non-empty node list, dense unique 0-based ids, exactly one
    root, parent/children consistency in both directions, reachability
    (which also rules out cycles), correct depth labels, at least one
    leaf, string names, and flat finite embeddings of one dimension.
    """
    report = ValidationReport()
    nodes = tree.nodes
    if not nodes:
        report.error("tree", "node list is empty")
        return report

    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
        report.error("tree", f"duplicate node ids: {dupes}")
        return report
    if sorted(ids) != list(range(len(nodes))):
        report.error("tree", "node ids are not dense 0-based integers")
        return report
    if ids != list(range(len(nodes))):
        report.error("tree", "nodes are not listed in id order")
        return report

    by_id = {n.id: n for n in nodes}
    child_sets = {n.id: set(n.children) for n in nodes}
    roots = [n for n in nodes if n.parent is None]
    if len(roots) == 0:
        report.error("tree", "no root (every node has a parent)")
    elif len(roots) > 1:
        report.error("tree", f"multiple roots: {sorted(r.id for r in roots)}")

    dimension = None  # of the first embedding, in id order
    for n in nodes:
        if not isinstance(n.name, str):
            report.error(f"node {n.id}", f"name must be a string, got {n.name!r}")
        if n.parent is not None:
            if n.parent not in by_id:
                report.error(f"node {n.id}", f"parent {n.parent} does not exist")
            elif n.id not in child_sets[n.parent]:
                report.error(
                    f"node {n.id}", f"not listed in children of parent {n.parent}"
                )
        if len(child_sets[n.id]) != len(n.children):
            report.error(f"node {n.id}", "duplicate entries in children")
        for c in n.children:
            if c not in by_id:
                report.error(f"node {n.id}", f"child {c} does not exist")
            elif by_id[c].parent != n.id:
                report.error(f"node {n.id}", f"child {c} has parent {by_id[c].parent}")
        if n.embedding is None:
            continue
        if np.ndim(n.embedding) != 1 or len(n.embedding) == 0:
            report.error(f"node {n.id}", "embedding must be a flat, non-empty array")
            continue
        if not np.all(np.isfinite(n.embedding)):
            report.error(f"node {n.id}", "embedding has non-finite components")
        if dimension is None:
            dimension = len(n.embedding)
        elif len(n.embedding) != dimension:
            report.error(
                f"node {n.id}",
                f"embedding has dimension {len(n.embedding)}, expected {dimension}",
            )

    if not report.ok:
        return report

    # Reachability from the root; unreachable nodes imply a cycle or a
    # detached component given the parent/children checks above.
    root = roots[0]
    seen = {root.id}
    queue = [root.id]
    for cur in queue:  # appending while iterating walks the queue by index
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

    return report
