"""A tree-file reader that decodes the whole file before it converts a number, kept fixed as a reference.

``load_tree`` is the reader from before embeddings were decoded node by
node: ``json`` builds every node's embedding as a list of Python floats,
and only then is each list checked and turned into its array.
``tagforest.io.load_tree`` must return the same tree, embedding bits
included, or raise the same error with the same text.
"""
from __future__ import annotations

import numpy as np

from tagforest.io import _NUMBER, _load_json_file
from tagforest.tree import InvalidTreeError, TagTree, TreeNode, validate_tree


def _node_embedding(value, i: int) -> np.ndarray:
    """Node entry ``i``'s embedding: a flat, non-empty array of JSON numbers."""
    if type(value) is list and value and _NUMBER.issuperset(map(type, value)):
        try:
            return np.array(value, dtype=np.float64)
        except OverflowError:  # an int too large for a float
            pass
    raise ValueError(f"node entry {i}: 'embedding' must be an array of numbers")


def load_tree(path) -> TagTree:
    """Read tree JSON and validate; never silently repairs a broken file."""
    payload = _load_json_file(path)
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise ValueError("tree file must be a JSON object with a 'nodes' array")
    raw_nodes = payload["nodes"]
    if not isinstance(raw_nodes, list):
        raise ValueError("'nodes' must be an array")
    nodes: list[TreeNode] = []
    for i, obj in enumerate(raw_nodes):
        if not isinstance(obj, dict):
            raise ValueError(f"node entry {i} is not an object")
        for key in ("id", "name", "parent", "children", "depth"):
            if key not in obj:
                raise ValueError(f"node entry {i}: missing key '{key}'")
        if not isinstance(obj["children"], list):
            raise ValueError(f"node entry {i}: 'children' must be an array")
        parent = [] if obj["parent"] is None else [obj["parent"]]
        for key, values in (
            ("id", [obj["id"]]),
            ("parent", parent),
            ("children", obj["children"]),
            ("depth", [obj["depth"]]),
        ):
            for value in values:
                if type(value) is not int:  # not a bool, float or string either
                    raise ValueError(
                        f"node entry {i}: '{key}' must hold integers, got {value!r}"
                    )
        emb = obj.get("embedding")
        if emb is not None:
            emb = _node_embedding(emb, i)
        nodes.append(
            TreeNode(
                id=obj["id"],
                name=obj["name"],
                parent=obj["parent"],
                children=list(obj["children"]),
                depth=obj["depth"],
                embedding=emb,
            )
        )
    nodes.sort(key=lambda n: n.id)
    tree = TagTree(nodes=nodes)
    report = validate_tree(tree)
    if not report.ok:
        raise InvalidTreeError(report)
    return tree
