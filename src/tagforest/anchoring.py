"""Anchoring: map instance tags onto tree leaves.

Every tag of an instance is matched to its nearest leaf by cosine
similarity (an exact string match to a leaf name short-circuits with
similarity 1.0). Matches below the similarity threshold are dropped and
recorded. The surviving leaves are the record the sampler consumes.

An anchored pool is held as an :class:`AnchoredPool`, which keeps the
rows as columns (ids, a CSR-style leaf list, dropped tags, scores) and
rebuilds an :class:`AnchoredRecord` only when a row is indexed or
iterated. :func:`anchor_pool` builds one from an instance pool's id,
tag-code and score columns, never its texts: each distinct tag the loader
encoded is resolved once, and each row's leaves, dropped tags and the
counters come from array sorts and counts of the codes.
:func:`write_anchored` formats each row from the columns, a chunk of rows
at a time, and :func:`load_anchored` reads the file back into columns: in
blocks with one pattern when every row has one fixed shape, and otherwise
line by line, through :func:`read_rows`'s rules.
"""
from __future__ import annotations

import math
import re
import sys
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from json.encoder import encode_basestring

import numpy as np

from .io import (
    FALLBACK_DIMENSION,
    FINITE_RANGE,
    EmbeddingTable,
    Instance,
    InstancePool,
    _row_blocks,
    _unit_rows,
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
        """The pool of a sequence of records, in their order; a pool is returned as is."""
        if isinstance(records, AnchoredPool):
            return records
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

    def take(self, rows) -> AnchoredPool:
        """The pool of the rows at positions ``rows`` (non-negative), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        lo = self.leaf_ptr[rows]
        counts = self.leaf_ptr[rows + 1] - lo
        leaf_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=leaf_ptr[1:])
        gather = np.arange(leaf_ptr[-1]) + np.repeat(lo - leaf_ptr[:-1], counts)
        picked = rows.tolist()
        return AnchoredPool(
            ids=[self.ids[i] for i in picked],
            leaf_ptr=leaf_ptr,
            leaf_ids=self.leaf_ids[gather],
            dropped=[self.dropped[i] for i in picked],
            quality=self.quality[rows],
            complexity=self.complexity[rows],
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
    leaves = [tree.node(nid) for nid in tree.leaf_ids.tolist()]
    dim = next((len(n.embedding) for n in leaves if n.embedding is not None), None)
    if dim is None:
        dim = embeddings.dimension if embeddings is not None else FALLBACK_DIMENSION
    rows = []
    for node in leaves:
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


# How a distinct tag resolved.
_EXACT, _NEAREST, _DROPPED = 0, 1, 2


def _resolve_tags(
    distinct: list[str],
    tree: TagTree,
    embeddings: EmbeddingTable | None,
    min_similarity: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf id and kind (``_EXACT``, ``_NEAREST``, ``_DROPPED``) of each distinct tag.

    A tag that names a leaf resolves to it (the lowest leaf id on a name
    collision). Any other tag resolves to its nearest leaf by cosine
    similarity (ties: the lowest leaf id), or is dropped, with leaf id -1,
    when that similarity is below ``min_similarity``. Similarities are
    computed a block of tags at a time (:func:`io._row_blocks`: 96 tags
    against 5,000 leaves, a 3.8 MB block of float64), and each block is
    freed before the next is computed. With one BLAS thread the blocks'
    bits are those of one product over every tag, so the cut decides no
    tie or drop.
    """
    leaf_ids = tree.leaf_ids
    leaf_matrix = _leaf_vectors(tree, embeddings)
    if embeddings is not None and embeddings.dimension != leaf_matrix.shape[1]:
        raise ValueError(
            f"embedding table has dimension {embeddings.dimension} but the "
            f"tree's leaf embeddings have dimension {leaf_matrix.shape[1]}"
        )
    by_name = tree.leaves_by_name

    leaf = np.full(len(distinct), -1, dtype=np.int64)
    kind = np.full(len(distinct), _EXACT, dtype=np.int64)
    unnamed: list[int] = []
    for k, tag in enumerate(distinct):
        hit = by_name.get(tag)
        if hit is None:
            unnamed.append(k)
        else:
            leaf[k] = hit[0]  # ids ascend: the lowest on a name collision
    dim = leaf_matrix.shape[1]
    for rows in _row_blocks(len(unnamed), len(leaf_ids)):
        batch = unnamed[rows]
        mat = np.vstack([_tag_vector(distinct[k], embeddings, dim) for k in batch])
        sims = mat @ leaf_matrix.T
        best = np.argmax(sims, axis=1)  # ties: first occurrence = lowest leaf id
        drop = sims[np.arange(len(batch)), best] < min_similarity
        del mat, sims  # else they live on through the next block's product
        leaf[batch] = np.where(drop, -1, leaf_ids[best])
        kind[batch] = np.where(drop, _DROPPED, _NEAREST)
    return leaf, kind


def _first_in_runs(*keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``keys`` that differ from the entry before."""
    first = np.ones(len(keys[0]), dtype=bool)
    first[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return first


def anchor_pool(
    pool: Sequence[Instance],
    tree: TagTree,
    embeddings: EmbeddingTable | None,
    min_similarity: float = DEFAULT_MIN_SIMILARITY,
) -> tuple[AnchoredPool, AnchorReport]:
    """Anchor every instance, resolving each distinct tag once for the pool.

    A row's leaves are the distinct leaves of its tags, ascending; its
    dropped tags are listed once each, in first-seen order. Output order
    follows the input pool, which may be any sequence of instances; of an
    :class:`InstancePool` only the ids, tag codes and scores are read, so
    one loaded without texts will do, and its ``tag_names`` are resolved
    in their order. Instances whose tags all drop get no leaves and are
    listed in the report as unanchorable.
    ``min_similarity`` must be finite.
    """
    if not math.isfinite(min_similarity):
        raise ValueError(f"min_similarity must be finite, got {min_similarity}")
    pool = InstancePool.from_records(pool)
    n = len(pool)
    report = AnchorReport()
    if not n:
        return AnchoredPool.from_records([]), report

    codes, distinct = pool.tag_codes, pool.tag_names
    leaf, kind = _resolve_tags(distinct, tree, embeddings, min_similarity)

    # each row's distinct tags, at their first position in the row
    rows = np.repeat(np.arange(n), np.diff(pool.tag_ptr))
    order = np.lexsort((np.arange(len(codes)), codes, rows))
    order = order[_first_in_runs(rows[order], codes[order])]
    pair_row, pair_code = rows[order], codes[order]
    pair_kind = kind[pair_code]
    counts = np.bincount(pair_kind, minlength=3)
    report.exact_tags = int(counts[_EXACT])
    report.nearest_tags = int(counts[_NEAREST])

    # each row's distinct leaves, ascending
    kept = pair_kind != _DROPPED
    kept_row, kept_leaf = pair_row[kept], leaf[pair_code[kept]]
    by_leaf = np.lexsort((kept_leaf, kept_row))
    kept_row, kept_leaf = kept_row[by_leaf], kept_leaf[by_leaf]
    distinct_leaf = _first_in_runs(kept_row, kept_leaf)
    leaf_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_row[distinct_leaf], minlength=n), out=leaf_ptr[1:])

    # dropped tags in pool order; a tag's first drop is its first occurrence,
    # so code order is the order in which each tag was first dropped
    drop_pos = np.sort(order[pair_kind == _DROPPED])
    dropped: list[tuple[str, ...]] = [()] * n
    for code, row in zip(codes[drop_pos].tolist(), rows[drop_pos].tolist()):
        dropped[row] += (distinct[code],)
    drops = np.bincount(codes[drop_pos], minlength=len(distinct))
    report.dropped_tags = Counter(
        {distinct[k]: drops[k].item() for k in np.flatnonzero(drops)}
    )

    unanchorable = np.flatnonzero(leaf_ptr[1:] == leaf_ptr[:-1])
    report.unanchorable_ids = [pool.ids[i] for i in unanchorable.tolist()]
    report.anchored = n - len(unanchorable)
    anchored = AnchoredPool(
        ids=pool.ids,
        leaf_ptr=leaf_ptr,
        leaf_ids=kept_leaf[distinct_leaf],
        dropped=dropped,
        quality=pool.quality,
        complexity=pool.complexity,
    )
    return anchored, report


# One anchored row; "%.17g" formats a float as format(x, ".17g") does.
_ANCHORED_ROW = (
    '{"id":%s,"leaves":[%s],"dropped":[%s],"quality":%.17g,"complexity":%.17g}\n'
)
# Rows formatted and written at a time: the Python values of one chunk of
# the columns (about 1 MB) are alive at once, not those of the whole pool.
_WRITE_ROWS = 4096


def write_anchored(records: Sequence[AnchoredRecord], path) -> None:
    """Write anchored rows (id, leaves, dropped, quality, complexity).

    ``records`` is an :class:`AnchoredPool` or any sequence of records,
    converted once. Each row is formatted from the columns directly, in
    the bytes :func:`io.dumps_canonical` would write for it, and written
    ``_WRITE_ROWS`` rows at a time. A non-finite score raises before the
    file is opened.
    """
    pool = AnchoredPool.from_records(records)
    scores = np.column_stack((pool.quality, pool.complexity)).ravel()
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ValueError(f"cannot serialize non-finite number: {scores[bad[0]].item()!r}")
    del scores
    with open(path, "w", encoding="utf-8") as f:
        for lo in range(0, len(pool), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            ptr = pool.leaf_ptr[lo : hi + 1]
            leaves = pool.leaf_ids[ptr[0] : ptr[-1]].tolist()
            ptr = (ptr - ptr[0]).tolist()
            rows = zip(
                pool.ids[lo:hi],
                pool.dropped[lo:hi],
                pool.quality[lo:hi].tolist(),
                pool.complexity[lo:hi].tolist(),
            )
            f.writelines(
                _ANCHORED_ROW
                % (
                    encode_basestring(rid),
                    ",".join(map(str, leaves[ptr[i] : ptr[i + 1]])),
                    ",".join(map(encode_basestring, tags)),
                    quality,
                    complexity,
                )
                for i, (rid, tags, quality, complexity) in enumerate(rows)
            )


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


def _rows(lines, required: tuple[str, ...]):
    """Yield (line number, row) for each non-blank line of ``lines``, as :func:`read_rows` does."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            row = loads_line(text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        problem = _row_problem(row, required)
        if problem is not None:
            raise ValueError(f"line {lineno}: {problem}")
        yield lineno, row


def read_rows(path, required: tuple[str, ...]):
    """Yield (line number, row) for each non-blank line of a JSONL file.

    A row must be a JSON object holding every ``required`` key. Where
    present, ``id`` must be a non-empty string, ``leaves`` a list of
    integers (booleans are not integers) and ``dropped`` a list of strings.
    Anything else raises ``ValueError`` naming the line. Anchored and
    exported subset files both follow this.
    """
    with open(path, "r", encoding="utf-8") as f:
        yield from _rows(f, required)


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


def _read_lines(f) -> AnchoredPool:
    """Read an open anchored file line by line; raises with the line number on malformed input.

    Rows come from :func:`_rows`, as :func:`read_rows` reads them; then
    ``quality``, ``complexity``, the unique id and the 64-bit leaf ids are
    checked in that order. The first broken rule raises its located error.
    """
    ids: list[str] = []
    dropped: list[tuple[str, ...]] = []
    seen: set[str] = set()
    leaf_ptr = array("q", [0])
    leaf_ids = array("q")
    quality = array("d")
    complexity = array("d")
    for lineno, row in _rows(f, ("id", "leaves", "dropped", "quality", "complexity")):
        quality.append(read_score(row, "quality", lineno, unit_interval=True))
        complexity.append(read_score(row, "complexity", lineno, unit_interval=True))
        rid, leaves = row["id"], row["leaves"]
        if rid in seen:
            raise ValueError(f"line {lineno}: duplicate id '{rid}'")
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
        dropped.append(tuple(row["dropped"]))
    return AnchoredPool(
        ids=ids,
        leaf_ptr=np.frombuffer(leaf_ptr, dtype=np.int64),
        leaf_ids=np.frombuffer(leaf_ids, dtype=np.int64),
        dropped=dropped,
        quality=np.frombuffer(quality, dtype=np.float64),
        complexity=np.frombuffer(complexity, dtype=np.float64),
    )


# Characters read per block by the fixed-shape reader; a block is then cut
# after its last newline. 64K characters keep a block's matches small
# next to the pool's columns.
_BLOCK_CHARS = 1 << 16

# One row exactly as write_anchored (and json.dumps with compact separators)
# writes it, on a line of its own: an id and dropped tags without escapes or
# control characters, leaf ids of at most 18 digits (so they fit in int64)
# and scores that are JSON numbers with no minus sign: in [0, 1] only -0.0
# has one, which anchor never writes, and a file that holds one goes to the
# line reader, which reads each score as json does. A backtrack never leads
# to a match in this grammar, so _row_shape puts _P after every quantifier:
# "+" makes them possessive where Python has them (3.11 on), which halves
# the match time; without them the same rows match.
_P = "+" if sys.version_info >= (3, 11) else ""
_CHAR = r'[^"\\\x00-\x1f]'


def _row_shape(p: str) -> re.Pattern:
    leaf = rf"-?{p}(?:0|[1-9][0-9]{{0,17}}{p})"
    score = rf"(?:0|[1-9][0-9]*{p})(?:\.[0-9]+{p})?{p}(?:[eE][-+]?{p}[0-9]+{p})?{p}"
    return re.compile(
        rf'^\{{"id":"({_CHAR}+{p})",'
        rf'"leaves":\[((?:{leaf}(?:,{leaf})*{p})?{p})\],'
        rf'"dropped":\[((?:"{_CHAR}*{p}"(?:,"{_CHAR}*{p}")*{p})?{p})\],'
        rf'"quality":({score}),"complexity":({score})\}}\n',
        re.MULTILINE,
    )


_ROW_SHAPE = _row_shape(_P)


def _blocks(f):
    """The text of ``f`` in blocks of whole lines, each ending in a newline."""
    parts: list[str] = []
    for chunk in iter(partial(f.read, _BLOCK_CHARS), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            parts.append(chunk[:cut])
            yield "".join(parts)
            parts = [chunk[cut:]]
        else:  # a line longer than a block
            parts.append(chunk)
    tail = "".join(parts)
    if tail:
        yield tail + "\n"


def _read_fixed_shape(f) -> AnchoredPool | None:
    """Read an open anchored file whose every line is one row of ``_ROW_SHAPE``.

    Each block is parsed with one ``findall``, and its captures become
    columns: leaf ids through ``int``, scores through ``float``, as
    ``json`` parses the same tokens. Returns None, having read no further,
    at the first block with a line of any other shape (a blank line
    included), and at the end when an id repeats or a score lies outside
    [0, 1].
    """
    ids: list[str] = []
    dropped: list[tuple[str, ...]] = []
    counts, leaves, quality, complexity = [], [], [], []
    for block in _blocks(f):
        rows = _ROW_SHAPE.findall(block)
        if len(rows) != block.count("\n"):  # every block holds a newline
            return None
        block_ids, leaf_text, tag_text, q, c = zip(*rows)
        n = len(rows)
        offset = len(ids)
        ids.extend(block_ids)
        dropped.extend([()] * n)
        for i in compress(range(n), tag_text):
            dropped[offset + i] = tuple(tag_text[i][1:-1].split('","'))
        counts.append(
            np.fromiter(map(str.count, leaf_text, repeat(",")), np.int64, n)
            + np.fromiter(map(bool, leaf_text), np.int64, n)
        )
        tokens = ",".join(filter(None, leaf_text)).split(",") if any(leaf_text) else []
        leaves.append(np.fromiter(map(int, tokens), np.int64, len(tokens)))
        quality.append(np.fromiter(map(float, q), np.float64, n))
        complexity.append(np.fromiter(map(float, c), np.float64, n))

    def column(parts, dtype):
        return np.concatenate([np.zeros(0, dtype=dtype), *parts])

    leaf_ptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(column(counts, np.int64), out=leaf_ptr[1:])
    pool = AnchoredPool(
        ids=ids,
        leaf_ptr=leaf_ptr,
        leaf_ids=column(leaves, np.int64),
        dropped=dropped,
        quality=column(quality, np.float64),
        complexity=column(complexity, np.float64),
    )
    scores = np.concatenate((pool.quality, pool.complexity))
    if not ((scores >= 0.0) & (scores <= 1.0)).all() or len(set(ids)) != len(ids):
        return None
    return pool


def load_anchored(path) -> AnchoredPool:
    """Read anchored rows into a pool; raises with the line number on malformed input.

    Rows follow :func:`read_rows` and carry all five keys. Scores must be
    finite and in [0, 1], as ``anchor`` writes them, ids must be unique
    and leaf ids must fit in 64 bits. A file whose every line is a row of
    ``_ROW_SHAPE`` is read in blocks by :func:`_read_fixed_shape`; that is
    what :func:`write_anchored` writes, save a -0.0 score, written ``-0``.
    Any other file, and any file that breaks a rule, is read again from its
    start, through the same handle, by :func:`_read_lines`, which checks
    rows as :func:`read_rows` does, words the error and reads ``-0`` as 0.0.
    """
    with open(path, "r", encoding="utf-8") as f:
        pool = _read_fixed_shape(f)
        if pool is None:
            f.seek(0)
            pool = _read_lines(f)
    return pool
