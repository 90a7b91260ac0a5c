"""Record-based pool reading, scaling, anchoring and writing, kept fixed as references.

These are the functions from before the anchor stage was held as columns:
``load_instances`` builds one ``Instance`` per line through
``_parse_instance``, which holds the row rules in their order,
``normalize_scores`` copies each one with ``dataclasses.replace``,
``_resolve_tags`` and ``anchor_pool`` resolve tags and build one
``AnchoredRecord`` per row, and ``write_anchored`` and ``save_tree`` pass
every row and node through ``dumps_canonical``. The columnar functions in
``tagforest`` are compared against them.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from tagforest.anchoring import (
    DEFAULT_MIN_SIMILARITY,
    AnchoredRecord,
    AnchorReport,
    _leaf_vectors,
    _tag_vector,
)
from tagforest.io import (
    DuplicateIdError,
    EmbeddingTable,
    Instance,
    dumps_canonical,
    is_finite_number,
    loads_line,
)
from tagforest.tree import InvalidTreeError, TagTree, ValidationReport, validate_tree

_REQUIRED_KEYS = ("id", "query", "response", "tags", "quality", "complexity")


def _parse_instance(obj: dict) -> Instance:
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise ValueError(f"missing required key '{key}'")
    if not isinstance(obj["id"], str) or not obj["id"]:
        raise ValueError("'id' must be a non-empty string")
    if not isinstance(obj["query"], str) or not isinstance(obj["response"], str):
        raise ValueError("'query' and 'response' must be strings")
    tags = obj["tags"]
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("'tags' must be a list of strings")
    quality = obj["quality"]
    complexity = obj["complexity"]
    if not isinstance(quality, (int, float)) or isinstance(quality, bool):
        raise ValueError("'quality' must be a number")
    if not isinstance(complexity, (int, float)) or isinstance(complexity, bool):
        raise ValueError("'complexity' must be a number")
    if not is_finite_number(quality) or not is_finite_number(complexity):
        raise ValueError("scores must be finite")
    return Instance(
        id=obj["id"],
        query=obj["query"],
        response=obj["response"],
        tags=tuple(tags),
        quality=float(quality),
        complexity=float(complexity),
    )


def load_instances(path) -> tuple[list[Instance], ValidationReport]:
    """Parse a JSONL pool file.

    Parsing is total over lines: every line yields either an Instance or a
    located error entry in the report, so len(instances) + len(errors)
    equals the line count. A duplicate id is a hard error and raises
    :class:`DuplicateIdError` immediately.
    """
    instances: list[Instance] = []
    report = ValidationReport()
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            location = f"line {lineno}"
            if not text:
                report.error(location, "blank line")
                continue
            try:
                obj = loads_line(text)
            except ValueError as exc:
                report.error(location, str(exc))
                continue
            if not isinstance(obj, dict):
                report.error(location, "record is not a JSON object")
                continue
            try:
                inst = _parse_instance(obj)
            except ValueError as exc:
                report.error(location, str(exc))
                continue
            if inst.id in seen:
                raise DuplicateIdError(f"{location}: duplicate instance id '{inst.id}'")
            seen.add(inst.id)
            instances.append(inst)
    return instances, report


def normalize_scores(pool: list[Instance]) -> list[Instance]:
    """Rescale quality and complexity independently onto [0, 1].

    Min-max per field; a constant field maps to 0.5 everywhere. Non-finite
    input raises with the offending instance id. Idempotent: applying it
    to its own output changes nothing (already-spanning fields keep their
    endpoints, constants stay at 0.5).
    """
    if not pool:
        raise ValueError("cannot normalize an empty pool")
    for inst in pool:
        if not math.isfinite(inst.quality) or not math.isfinite(inst.complexity):
            raise ValueError(f"non-finite score on instance '{inst.id}'")

    def _column(values: list[float]) -> list[float]:
        lo, hi = min(values), max(values)
        if hi == lo:
            return [0.5] * len(values)
        span = hi - lo
        return [(v - lo) / span for v in values]

    qualities = _column([i.quality for i in pool])
    complexities = _column([i.complexity for i in pool])
    return [
        replace(inst, quality=q, complexity=c)
        for inst, q, c in zip(pool, qualities, complexities)
    ]


def _resolve_tags(
    pool: list[Instance],
    tree: TagTree,
    embeddings: EmbeddingTable | None,
    min_similarity: float,
):
    """Yield (kept, dropped, exact) for each instance, in pool order.

    ``kept`` maps each kept tag to its (leaf id, similarity); ``dropped``
    lists tags below ``min_similarity`` in first-seen order; ``exact``
    counts the kept tags that matched a leaf name. Each distinct
    tag without an exact leaf-name match is resolved once for the whole
    pool, in chunks to bound memory.
    """
    leaf_ids = tree.leaf_ids
    leaf_matrix = _leaf_vectors(tree, embeddings)
    if embeddings is not None and embeddings.dimension != leaf_matrix.shape[1]:
        raise ValueError(
            f"embedding table has dimension {embeddings.dimension} but the "
            f"tree's leaf embeddings have dimension {leaf_matrix.shape[1]}"
        )
    name_to_leaf: dict[str, int] = {}
    for nid in leaf_ids:  # ascending ids: first writer wins on name collision
        name_to_leaf.setdefault(tree.node(int(nid)).name, int(nid))

    unique_tags: list[str] = []
    seen: set[str] = set()
    for inst in pool:
        for tag in inst.tags:
            if tag not in seen and tag not in name_to_leaf:
                seen.add(tag)
                unique_tags.append(tag)
    resolution: dict[str, tuple[int, float] | None] = {}
    dim = leaf_matrix.shape[1]
    chunk = 4096
    for start in range(0, len(unique_tags), chunk):
        batch = unique_tags[start : start + chunk]
        mat = np.vstack([_tag_vector(t, embeddings, dim) for t in batch])
        sims = mat @ leaf_matrix.T
        best = np.argmax(sims, axis=1)  # ties: first occurrence = lowest leaf id
        for row, tag in enumerate(batch):
            sim = float(sims[row, best[row]])
            if sim < min_similarity:
                resolution[tag] = None
            else:
                resolution[tag] = (int(leaf_ids[best[row]]), sim)

    for inst in pool:
        kept: dict[str, tuple[int, float]] = {}
        dropped: list[str] = []
        exact = 0
        for tag in dict.fromkeys(inst.tags):  # de-dup, keep order
            if tag in name_to_leaf:
                kept[tag] = (name_to_leaf[tag], 1.0)
                exact += 1
                continue
            hit = resolution[tag]
            if hit is None:
                dropped.append(tag)
            else:
                kept[tag] = hit
        yield kept, dropped, exact


def anchor_pool(
    pool: list[Instance],
    tree: TagTree,
    embeddings: EmbeddingTable | None,
    min_similarity: float = DEFAULT_MIN_SIMILARITY,
) -> tuple[list[AnchoredRecord], AnchorReport]:
    """Anchor every instance, batching tag lookups across the pool.

    Output order follows the input pool. Instances whose tags all drop get
    an empty leaf tuple and are listed in the report as unanchorable.
    """
    report = AnchorReport()
    records: list[AnchoredRecord] = []
    resolved = _resolve_tags(pool, tree, embeddings, min_similarity)
    for inst, (kept, dropped, exact) in zip(pool, resolved):
        leaves = tuple(sorted({leaf for leaf, _ in kept.values()}))
        report.exact_tags += exact
        report.nearest_tags += len(kept) - exact
        report.dropped_tags.update(dropped)
        if leaves:
            report.anchored += 1
        else:
            report.unanchorable_ids.append(inst.id)
        records.append(
            AnchoredRecord(
                id=inst.id,
                leaves=leaves,
                dropped=tuple(dropped),
                quality=inst.quality,
                complexity=inst.complexity,
            )
        )
    return records, report


def write_anchored(records: list[AnchoredRecord], path) -> None:
    """Write anchored rows (id, leaves, dropped, quality, complexity)."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            row = {
                "id": record.id,
                "leaves": list(record.leaves),
                "dropped": list(record.dropped),
                "quality": record.quality,
                "complexity": record.complexity,
            }
            f.write(dumps_canonical(row))
            f.write("\n")


def save_tree(tree: TagTree, path) -> None:
    """Write tree JSON; rejects invalid trees rather than persisting them."""
    report = validate_tree(tree)
    if not report.ok:
        raise InvalidTreeError(report)
    payload = {
        "nodes": [
            {
                "id": n.id,
                "name": n.name,
                "parent": n.parent,
                "children": list(n.children),
                "depth": n.depth,
                "embedding": None if n.embedding is None else n.embedding,
            }
            for n in tree.nodes
        ]
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_canonical(payload))
        f.write("\n")
