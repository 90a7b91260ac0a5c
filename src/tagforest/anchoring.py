"""Anchoring: map instance tags onto tree leaves.

Every tag of an instance is matched to its nearest leaf by cosine
similarity (an exact string match to a leaf name short-circuits with
similarity 1.0). Matches below the similarity threshold are dropped and
recorded. The surviving leaves are the record the sampler consumes.

An anchored file is read back by :func:`load_anchored` into an
:class:`AnchoredPool`, which holds the rows as columns (ids, a CSR-style
leaf list, dropped tags, scores) and rebuilds an :class:`AnchoredRecord`
only when a row is indexed or iterated.
"""
from __future__ import annotations

import json
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .io import (
    FINITE_RANGE,
    EmbeddingTable,
    Instance,
    _unit_rows,
    dumps_canonical,
    fallback_embedding,
    loads_line,
)
from .tree import TagTree

__all__ = [
    "AnchoredPool",
    "AnchoredRecord",
    "AnchorReport",
    "anchor_pool",
    "write_anchored",
    "load_anchored",
    "read_rows",
]

DEFAULT_MIN_SIMILARITY = 0.3


@dataclass(frozen=True)
class AnchoredRecord:
    """One row of an anchored pool file; what the sampler consumes."""

    id: str
    leaves: tuple[int, ...]
    dropped: tuple[str, ...]
    quality: float
    complexity: float


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays elementwise
class AnchoredPool(Sequence):
    """An anchored pool held as columns: a read-only sequence of :class:`AnchoredRecord`.

    Row ``i`` has id ``ids[i]``, the leaves
    ``leaf_ids[leaf_ptr[i]:leaf_ptr[i + 1]]`` as written (duplicates and
    order kept), the tags ``dropped[i]`` and the scores ``quality[i]`` and
    ``complexity[i]``. ``leaf_ptr`` and ``leaf_ids`` are int64 arrays,
    ``quality`` and ``complexity`` float64 arrays. Indexing and iteration
    rebuild each row's record.
    """

    ids: list[str]
    leaf_ptr: np.ndarray
    leaf_ids: np.ndarray
    dropped: list[tuple[str, ...]]
    quality: np.ndarray
    complexity: np.ndarray

    @classmethod
    def from_records(cls, records) -> AnchoredPool:
        """The pool of a sequence of records, in their order."""
        leaf_ptr = array("q", [0])
        leaf_ids = array("q")
        for record in records:
            leaf_ids.extend(record.leaves)
            leaf_ptr.append(len(leaf_ids))
        return cls(
            ids=[r.id for r in records],
            leaf_ptr=np.frombuffer(leaf_ptr, dtype=np.int64),
            leaf_ids=np.frombuffer(leaf_ids, dtype=np.int64),
            dropped=[r.dropped for r in records],
            quality=np.array([r.quality for r in records], dtype=np.float64),
            complexity=np.array([r.complexity for r in records], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self.ids))[index]]
        i = range(len(self.ids))[index]  # negative indices; IndexError past the end
        lo, hi = self.leaf_ptr.item(i), self.leaf_ptr.item(i + 1)
        return AnchoredRecord(
            id=self.ids[i],
            leaves=tuple(self.leaf_ids[lo:hi].tolist()),
            dropped=self.dropped[i],
            quality=self.quality.item(i),
            complexity=self.complexity.item(i),
        )

    def __iter__(self):
        ptr = self.leaf_ptr.tolist()
        leaves = self.leaf_ids.tolist()
        rows = zip(self.ids, self.dropped, self.quality.tolist(), self.complexity.tolist())
        for i, (rid, dropped, quality, complexity) in enumerate(rows):
            yield AnchoredRecord(
                id=rid,
                leaves=tuple(leaves[ptr[i] : ptr[i + 1]]),
                dropped=dropped,
                quality=quality,
                complexity=complexity,
            )


@dataclass
class AnchorReport:
    """Aggregate outcome of anchoring a pool.

    Tag occurrences are counted once per instance: ``exact_tags`` matched
    a leaf name, ``nearest_tags`` resolved to the nearest leaf and
    ``dropped_tags`` counts the rest by tag.
    """

    anchored: int = 0
    unanchorable_ids: list[str] = field(default_factory=list)
    exact_tags: int = 0
    nearest_tags: int = 0
    dropped_tags: Counter = field(default_factory=Counter)


def _leaf_vectors(tree: TagTree, embeddings: EmbeddingTable | None) -> np.ndarray:
    """Unit embedding per leaf: node embedding, else table entry, else hash."""
    dim = None
    for nid in tree.leaf_ids:
        emb = tree.node(int(nid)).embedding
        if emb is not None:
            dim = len(emb)
            break
    if dim is None and embeddings is not None:
        dim = embeddings.dimension
    if dim is None:
        dim = 32  # no embedding source at all; hash space is arbitrary but fixed
    rows = []
    for nid in tree.leaf_ids:
        node = tree.node(int(nid))
        vec = node.embedding
        if vec is None and embeddings is not None:
            vec = embeddings.get(node.name)
        if vec is None or float(np.linalg.norm(vec)) == 0.0:
            vec = fallback_embedding(node.name, dim)
        rows.append(np.asarray(vec, dtype=np.float64))
    return _unit_rows(np.vstack(rows))


def _tag_vector(tag: str, embeddings: EmbeddingTable | None, dim: int) -> np.ndarray:
    vec = embeddings.get(tag) if embeddings is not None else None
    if vec is None or float(np.linalg.norm(vec)) == 0.0:
        return fallback_embedding(tag, dim)
    return np.asarray(vec, dtype=np.float64) / float(np.linalg.norm(vec))


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


def _row_problem(row, required: tuple[str, ...]) -> str | None:
    if not isinstance(row, dict):
        return "row is not a JSON object"
    for key in required:
        if key not in row:
            return f"no '{key}' field"
    if "id" in row and not (isinstance(row["id"], str) and row["id"]):
        return f"'id' must be a non-empty string, got {row['id']!r}"
    leaves = row.get("leaves", [])
    # exact types: a JSON true is a bool, and bool subclasses int
    if not isinstance(leaves, list) or not {int}.issuperset(map(type, leaves)):
        return f"'leaves' must be a list of integers, got {leaves!r}"
    dropped = row.get("dropped", [])
    if not isinstance(dropped, list) or not {str}.issuperset(map(type, dropped)):
        return f"'dropped' must be a list of strings, got {dropped!r}"
    return None


def _parse_row(text: str, lineno: int, required: tuple[str, ...]) -> dict:
    """The row of one stripped, non-blank line; raises ``ValueError`` naming the line."""
    try:
        row = loads_line(text)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    problem = _row_problem(row, required)
    if problem is not None:
        raise ValueError(f"line {lineno}: {problem}")
    return row


def read_rows(path, required: tuple[str, ...]):
    """Yield (line number, row) for each non-blank line of a JSONL file.

    A row must be a JSON object holding every ``required`` key. Where
    present, ``id`` must be a non-empty string, ``leaves`` a list of
    integers (booleans are not integers) and ``dropped`` a list of strings.
    Anything else raises ``ValueError`` naming the line. Anchored and
    exported subset files both follow this.
    """
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if text:
                yield lineno, _parse_row(text, lineno, required)


_UNIT_INTERVAL = (0.0, 1.0)


def read_score(row: dict, key: str, lineno: int, unit_interval: bool = False) -> float:
    """Return the score ``row[key]`` as a float; raises ``ValueError`` naming the line.

    A score is a finite JSON number (see :func:`io.is_finite_number`); with
    ``unit_interval`` it must also lie in [0, 1], as ``anchor`` writes it.
    Exported subsets carry the pool's raw scores, so they need only the
    first rule.
    """
    value = row[key]
    lo, hi = _UNIT_INTERVAL if unit_interval else FINITE_RANGE
    if type(value) not in (int, float) or not lo <= value <= hi:
        span = " in [0, 1]" if unit_interval else ""
        raise ValueError(
            f"line {lineno}: '{key}' must be a finite number{span}, got {value!r}"
        )
    return float(value)


ANCHORED_KEYS = ("id", "leaves", "dropped", "quality", "complexity")


def _checked_fields(text: str, lineno: int, seen: set[str]):
    """(id, leaves, dropped, quality, complexity) of a line under the full rules.

    The rules run in order: :func:`_parse_row`, :func:`read_score` with
    ``unit_interval`` for ``quality`` and then ``complexity``, then the
    unique-id rule against ``seen``. The first broken rule raises its
    located ``ValueError``.
    """
    row = _parse_row(text, lineno, ANCHORED_KEYS)
    quality = read_score(row, "quality", lineno, unit_interval=True)
    complexity = read_score(row, "complexity", lineno, unit_interval=True)
    if row["id"] in seen:
        raise ValueError(f"line {lineno}: duplicate id '{row['id']}'")
    return row["id"], row["leaves"], row["dropped"], quality, complexity


# The decoder json.loads uses. On a stripped line, a value that ends at the
# end of the text is exactly what json.loads would return; anything else
# (no value, trailing data, a leading BOM, an over-long integer, deep
# nesting) raises or stops short, and the line is refused.
_scan_once = json.JSONDecoder().scan_once
_INT, _STR, _NUMBER = {int}, {str}, (int, float)


def load_anchored(path) -> AnchoredPool:
    """Read anchored rows into a pool; raises with the line number on malformed input.

    Rows follow :func:`read_rows` and carry all five keys. Scores must be
    finite and in [0, 1], as ``anchor`` writes them, ids must be unique
    and leaf ids must fit in 64 bits. The file is read in one pass
    straight into columns, with the rules checked inline on the parsed
    row and no record built. A line those checks refuse goes through
    :func:`_checked_fields`, which raises the located error of the first
    rule it breaks.
    """
    ids: list[str] = []
    dropped: list[tuple[str, ...]] = []
    seen: set[str] = set()
    leaf_ptr = array("q", [0])
    leaf_ids = array("q")
    quality = array("d")
    complexity = array("d")
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                row, end = _scan_once(text, 0)
                rid, leaves, tags = row["id"], row["leaves"], row["dropped"]
                q, c = row["quality"], row["complexity"]
            except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
                end = -1  # TypeError: the value is not an object; -1 refuses the line
            if not (
                end == len(text)
                and type(rid) is str
                and rid
                and rid not in seen
                and type(leaves) is list
                and _INT.issuperset(map(type, leaves))
                and type(tags) is list
                and _STR.issuperset(map(type, tags))
                and type(q) in _NUMBER
                and 0.0 <= q <= 1.0
                and type(c) in _NUMBER
                and 0.0 <= c <= 1.0
            ):
                rid, leaves, tags, q, c = _checked_fields(text, lineno, seen)
            try:
                leaf_ids.extend(leaves)
            except OverflowError:
                big = next(x for x in leaves if not -(2**63) <= x < 2**63)
                raise ValueError(
                    f"line {lineno}: 'leaves' must hold 64-bit integers, got {big}"
                ) from None
            leaf_ptr.append(len(leaf_ids))
            seen.add(rid)
            ids.append(rid)
            dropped.append(tuple(tags))
            quality.append(q)
            complexity.append(c)
    return AnchoredPool(
        ids=ids,
        leaf_ptr=np.frombuffer(leaf_ptr, dtype=np.int64),
        leaf_ids=np.frombuffer(leaf_ids, dtype=np.int64),
        dropped=dropped,
        quality=np.frombuffer(quality, dtype=np.float64),
        complexity=np.frombuffer(complexity, dtype=np.float64),
    )
