"""File formats and parsing: instance pools, embeddings, trees, targets.

A pool file is read by :func:`load_instances` in one pass into an
:class:`InstancePool`, which holds the rows as columns (ids, texts, one
code per tag occurrence with each distinct tag held once, score arrays)
and rebuilds an :class:`Instance` only when a row is indexed or iterated.
Every line is checked under one rule set and every tag occurrence is
encoded once; :func:`tagforest.anchoring.anchor_pool` reads those codes as
they are. Every row's id, tags and scores are kept; its query and response
texts only when the caller asks for them, so ``anchor`` holds none and
``sample --pool`` only the picks'.
:func:`normalize_scores` rescales the score columns with numpy.

All JSON emitted by this package formats floats with 17 significant
digits, so that every value round-trips exactly and re-serialization of a
loaded artifact is byte-identical. Manifests, traces and targets go
through the general :func:`dumps_canonical`; tree files (here) and
anchored files (:mod:`tagforest.anchoring`) have fixed-shape writers that
format each row's known keys directly and write the same bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring

import numpy as np

from .tree import InvalidTreeError, TagTree, TreeNode, ValidationReport, validate_tree

__all__ = [
    "Instance",
    "InstancePool",
    "EmbeddingTable",
    "TargetDistribution",
    "DuplicateIdError",
    "dumps_canonical",
    "fallback_embedding",
    "load_instances",
    "normalize_scores",
    "load_embeddings",
    "write_embeddings",
    "save_tree",
    "load_tree",
    "load_target",
    "save_target",
    "sha256_file",
]


# the numbers a float holds finitely; comparing against these is exact for
# ints of any size and False for NaN
FINITE_RANGE = (-sys.float_info.max, sys.float_info.max)


def is_finite_number(value) -> bool:
    """True for a JSON number (an int or float, not a bool) with a finite float value.

    False for NaN, the infinities and ints too large for a float, where
    ``float()`` and ``math.isfinite`` raise ``OverflowError``.
    """
    lo, hi = FINITE_RANGE
    return type(value) in (int, float) and lo <= value <= hi


def loads_line(text: str):
    """``json.loads`` for one JSONL line; any failure raises ``ValueError("invalid JSON: ...")``.

    Besides a decode error, ``json.loads`` refuses an integer longer than
    the int-string conversion limit (4,300 digits by default) with a plain
    ``ValueError`` and deep nesting with ``RecursionError``.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None


def _load_json_file(path, object_hook=None, object_pairs_hook=None):
    """The JSON value of a whole file; any failure raises ``ValueError("invalid JSON: ...")``.

    As in :func:`loads_line`, deep nesting raises ``RecursionError`` and an
    over-long integer a plain ``ValueError``; a decode error keeps its
    position in the file. ``object_hook`` and ``object_pairs_hook`` are
    passed to ``json.loads``.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return json.loads(text, object_hook=object_hook, object_pairs_hook=object_pairs_hook)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_number(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number: {value!r}")
    return format(float(value), ".17g")


def dumps_canonical(value) -> str:
    """Serialize to JSON with 17-significant-digit floats, preserving key order."""
    kind = type(value)  # exact types first: the scalars of every row written
    if kind is float:
        return _fmt_number(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring(value)
    out: list[str] = []
    _write_canonical(value, out)
    return "".join(out)


def _write_canonical(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_fmt_number(float(value)))
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k)}")
            if i:
                out.append(",")
            out.append(encode_basestring(k))
            out.append(":")
            _write_canonical(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _write_canonical(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)} canonically")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# instance pools


@dataclass(frozen=True)
class Instance:
    """One pool record. Scores are raw on input, [0, 1] after normalization."""

    id: str
    query: str
    response: str
    tags: tuple[str, ...]
    quality: float
    complexity: float


class DuplicateIdError(ValueError):
    """Two pool records share an id; the pool is not usable as-is."""


_REQUIRED_KEYS = ("id", "query", "response", "tags", "quality", "complexity")


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays elementwise
class InstancePool(Sequence):
    """A pool held as columns: a read-only sequence of :class:`Instance`.

    Row ``i`` has id ``ids[i]``, query ``queries[i]``, response
    ``responses[i]``, the tags ``tag_codes[tag_ptr[i]:tag_ptr[i + 1]]`` as
    given (duplicates and order kept) and the scores ``quality[i]`` and
    ``complexity[i]``. A tag is held once, in ``tag_names``, the distinct
    tags in first-seen order, and each occurrence is its position there:
    ``tag_ptr`` and ``tag_codes`` are int64 arrays, ``quality`` and
    ``complexity`` float64 arrays. A row whose texts were not loaded (see
    :func:`load_instances`) has ``None`` for both. Indexing and iteration
    rebuild each row's instance, and raise ``ValueError`` at a row without
    texts.
    """

    ids: list[str]
    queries: list[str | None]
    responses: list[str | None]
    tag_ptr: np.ndarray
    tag_codes: np.ndarray
    tag_names: list[str]
    quality: np.ndarray
    complexity: np.ndarray

    @classmethod
    def from_records(cls, records) -> InstancePool:
        """The pool of a sequence of instances, in their order; a pool is returned as is."""
        if isinstance(records, InstancePool):
            return records
        index: dict[str, int] = {}  # tag -> code, in first-seen order
        codes: list[int] = []
        tag_ptr = array("q", [0])
        for inst in records:
            codes.extend([index.setdefault(tag, len(index)) for tag in inst.tags])
            tag_ptr.append(len(codes))
        return cls(
            ids=[r.id for r in records],
            queries=[r.query for r in records],
            responses=[r.response for r in records],
            tag_ptr=np.frombuffer(tag_ptr, dtype=np.int64),
            tag_codes=np.fromiter(codes, np.int64, len(codes)),
            tag_names=list(index),
            quality=np.array([r.quality for r in records], dtype=np.float64),
            complexity=np.array([r.complexity for r in records], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self.ids))[index]]
        i = range(len(self.ids))[index]  # negative indices; IndexError past the end
        query, response = self.queries[i], self.responses[i]
        if query is None:
            _no_texts(self.ids[i])
        codes = self.tag_codes[self.tag_ptr.item(i) : self.tag_ptr.item(i + 1)]
        return Instance(
            id=self.ids[i],
            query=query,
            response=response,
            tags=tuple(map(self.tag_names.__getitem__, codes.tolist())),
            quality=self.quality.item(i),
            complexity=self.complexity.item(i),
        )

    def __iter__(self):
        ptr = self.tag_ptr.tolist()
        tags = list(map(self.tag_names.__getitem__, self.tag_codes.tolist()))
        rows = zip(
            self.ids,
            self.queries,
            self.responses,
            self.quality.tolist(),
            self.complexity.tolist(),
        )
        for i, (rid, query, response, quality, complexity) in enumerate(rows):
            if query is None:
                _no_texts(rid)
            yield Instance(
                id=rid,
                query=query,
                response=response,
                tags=tuple(tags[ptr[i] : ptr[i + 1]]),
                quality=quality,
                complexity=complexity,
            )


def _no_texts(rid: str) -> None:
    """Refuse to rebuild row ``rid``, whose texts the pool does not hold."""
    raise ValueError(f"instance '{rid}': its query and response texts were not loaded")


# The decoder json.loads uses. On a stripped line, a value that ends at the
# end of the text is exactly what json.loads would return; anything else
# (no value, trailing data, a leading BOM, an over-long integer, deep
# nesting) raises or stops short, and json.loads refuses the line too.
_scan_once = json.JSONDecoder().scan_once
_STR, _NUMBER = {str}, {int, float}  # exact types: a JSON true is a bool, not an int


def load_instances(path, keep_texts=None) -> tuple[InstancePool, ValidationReport]:
    """Parse a JSONL pool file into an :class:`InstancePool`.

    Parsing is total over lines: every line yields either a row or a
    located error entry in the report, so len(pool) + len(errors) equals
    the line count. A duplicate id is a hard error and raises
    :class:`DuplicateIdError` immediately. The file is read in one pass
    straight into columns. A line is refused for the first rule it breaks,
    in this order: it is blank; it is not one JSON value (worded by
    :func:`loads_line`); the value is not an object; a required key is
    missing (the first in ``_REQUIRED_KEYS``); ``id`` is not a non-empty
    string; ``query`` or ``response`` is not a string; ``tags`` is not a
    list of strings; ``quality``, then ``complexity``, is not a number (a
    boolean is not); a score is not finite. Each tag occurrence is encoded
    once, as its code in ``tag_names``.

    ``keep_texts`` says whose query and response texts the pool keeps:
    ``None`` (the default) keeps every row's, and any container of ids
    (``in``) keeps those rows' only; the other rows hold ``None`` for both
    texts. Every line is parsed and checked under the same rules either
    way, so the report and the duplicate-id error do not change.
    """
    ids: list[str] = []
    queries: list[str | None] = []
    responses: list[str | None] = []
    index: dict[str, int] = {}  # tag -> code, in first-seen order
    codes: list[int] = []
    tag_ptr = array("q", [0])
    quality = array("d")
    complexity = array("d")
    report = ValidationReport()
    seen: set[str] = set()
    lo, hi = FINITE_RANGE
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            try:
                obj, end = _scan_once(text, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            try:
                if end != len(text):
                    if not text:
                        raise ValueError("blank line")
                    obj = loads_line(text)  # raises, worded as json.loads words it
                try:
                    rid, query, response = obj["id"], obj["query"], obj["response"]
                    row_tags, q, c = obj["tags"], obj["quality"], obj["complexity"]
                except TypeError:  # any JSON value but an object
                    raise ValueError("record is not a JSON object") from None
                except KeyError:
                    key = next(k for k in _REQUIRED_KEYS if k not in obj)
                    raise ValueError(f"missing required key '{key}'") from None
                if type(rid) is not str or not rid:
                    raise ValueError("'id' must be a non-empty string")
                if type(query) is not str or type(response) is not str:
                    raise ValueError("'query' and 'response' must be strings")
                if type(row_tags) is not list or not _STR.issuperset(map(type, row_tags)):
                    raise ValueError("'tags' must be a list of strings")
                if type(q) not in _NUMBER:
                    raise ValueError("'quality' must be a number")
                if type(c) not in _NUMBER:
                    raise ValueError("'complexity' must be a number")
                if not (lo <= q <= hi and lo <= c <= hi):
                    raise ValueError("scores must be finite")
            except ValueError as exc:
                report.error(f"line {lineno}", str(exc))
                continue
            if rid in seen:
                raise DuplicateIdError(f"line {lineno}: duplicate instance id '{rid}'")
            seen.add(rid)
            ids.append(rid)
            if keep_texts is None or rid in keep_texts:
                queries.append(query)
                responses.append(response)
            else:
                queries.append(None)
                responses.append(None)
            for tag in row_tags:  # faster here than from_records' setdefault
                code = index.get(tag)
                if code is None:
                    code = index[tag] = len(index)
                codes.append(code)
            tag_ptr.append(len(codes))
            quality.append(q)
            complexity.append(c)
    pool = InstancePool(
        ids=ids,
        queries=queries,
        responses=responses,
        tag_ptr=np.frombuffer(tag_ptr, dtype=np.int64),
        tag_codes=np.fromiter(codes, np.int64, len(codes)),
        tag_names=list(index),
        quality=np.frombuffer(quality, dtype=np.float64),
        complexity=np.frombuffer(complexity, dtype=np.float64),
    )
    return pool, report


def _unit_column(values: np.ndarray) -> np.ndarray:
    """Min-max rescale of one finite, non-empty score column; no -0.0 comes out."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full(len(values), 0.5)
    span = hi - lo
    if math.isfinite(span):
        return (values - lo) / span + 0.0
    # the span overflows, as from -1e308 to 1e308: halve every term first
    return (values * 0.5 - lo * 0.5) / (hi * 0.5 - lo * 0.5) + 0.0


def normalize_scores(pool: Sequence[Instance]) -> InstancePool:
    """Rescale quality and complexity independently onto [0, 1].

    Min-max per field; a constant field maps to 0.5 everywhere. Non-finite
    input raises with the first offending instance id. Idempotent: applying
    it to its own output changes nothing (already-spanning fields keep
    their endpoints, constants stay at 0.5). A zero comes out as +0.0,
    whatever the sign of the score it came from. Any sequence of instances is
    accepted; the result is an :class:`InstancePool` sharing the input's
    other columns. Only the ids and scores are read, so a pool loaded
    without texts will do.
    """
    pool = InstancePool.from_records(pool)
    if not len(pool):
        raise ValueError("cannot normalize an empty pool")
    finite = np.isfinite(pool.quality) & np.isfinite(pool.complexity)
    if not finite.all():
        raise ValueError(f"non-finite score on instance '{pool.ids[finite.argmin()]}'")
    return replace(
        pool,
        quality=_unit_column(pool.quality),
        complexity=_unit_column(pool.complexity),
    )


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingTable:
    """Key -> fixed-dimension float vector, all components finite."""

    dimension: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)

    def get(self, key: str) -> np.ndarray | None:
        return self.entries.get(key)

    def __len__(self) -> int:
        return len(self.entries)


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    """Scale each row to unit length; all-zero rows stay zero."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.where(norms == 0.0, 1.0, norms)


# Blocked products. A product taken a block of rows at a time holds one
# block of results, about _BLOCK_ELEMENTS float64 values (2 MB), whatever
# the number of rows. With one BLAS thread it keeps the bits of the whole
# product when every block but the last is a multiple of _BLOCK_ROWS rows
# and no block is short: OpenBLAS's SkylakeX kernel rounds the last rows
# of a product differently unless they come in multiples of 12 (for a
# width that is not a multiple of 8), and takes another kernel for small
# products. 96 is a multiple of 12 and of every power of two up to 32.
# Under this rule the blocks matched the whole product bit for bit at all
# 951 shapes tried (widths 2-5,000, inner dimensions 1-100); 64-row blocks
# did not (width 500), nor did folding only tails under 64 rows (widths
# 2-13). With more BLAS threads the whole product's own bits depend on
# where BLAS splits it.
_BLOCK_ELEMENTS = 1 << 18
_BLOCK_ROWS = 96


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices that cut ``n`` rows, each with ``width`` results, into blocks.

    A block has the largest multiple of ``_BLOCK_ROWS`` rows (at least
    ``_BLOCK_ROWS``) whose results fit in ``_BLOCK_ELEMENTS``; a tail of
    fewer than half a block joins the block before it.
    """
    step = _BLOCK_ROWS * max(1, _BLOCK_ELEMENTS // (_BLOCK_ROWS * max(width, 1)))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < step // 2:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


FALLBACK_DIMENSION = 32  # of hashed vectors where no embedding gives one


def fallback_embedding(key: str, dimension: int) -> np.ndarray:
    """Deterministic unit vector for keys missing from an embedding table.

    Derived by hashing the key in counter mode (sha256), mapping 4-byte
    words onto [-1, 1) and normalizing; stable across runs and platforms.
    """
    if dimension <= 0:
        raise ValueError("embedding dimension must be positive")
    raw = bytearray()
    counter = 0
    while len(raw) < 4 * dimension:
        block = hashlib.sha256(key.encode("utf-8") + b"\x00" + str(counter).encode()).digest()
        raw.extend(block)
        counter += 1
    words = np.frombuffer(bytes(raw[: 4 * dimension]), dtype="<u4").astype(np.float64)
    vec = words / 2147483648.0 - 1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:  # astronomically unlikely; keep the function total
        vec = np.zeros(dimension)
        vec[0] = 1.0
        return vec
    return vec / norm


def load_embeddings(path) -> EmbeddingTable:
    """Parse a TSV embedding file.

    First line is ``dim=<d> count=<n>``; every following line is
    ``key<TAB>v1 v2 ... vd``. Wrong dimension, non-finite values,
    duplicate keys, or a count mismatch raise with the offending key or
    line named.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        parts = header.split()
        if (
            len(parts) != 2
            or not parts[0].startswith("dim=")
            or not parts[1].startswith("count=")
        ):
            raise ValueError(f"malformed embedding header: {header!r}")
        try:
            dim = int(parts[0][4:])
            count = int(parts[1][6:])
        except ValueError:
            raise ValueError(f"malformed embedding header: {header!r}") from None
        if dim <= 0:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        table = EmbeddingTable(dimension=dim)
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            key, sep, rest = line.rstrip("\n").partition("\t")
            if not sep:
                raise ValueError(f"line {lineno}: missing tab separator")
            if key in table.entries:
                raise ValueError(f"line {lineno}: duplicate embedding key '{key}'")
            values = rest.split()
            if len(values) != dim:
                raise ValueError(
                    f"key '{key}': expected {dim} components, got {len(values)}"
                )
            vec = np.array([float(v) for v in values], dtype=np.float64)
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"key '{key}': non-finite embedding component")
            table.entries[key] = vec
    if len(table.entries) != count:
        raise ValueError(
            f"header declares count={count} but file has {len(table.entries)} rows"
        )
    return table


def write_embeddings(table: EmbeddingTable, path) -> None:
    """Inverse of :func:`load_embeddings`; used by fixtures and tooling."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"dim={table.dimension} count={len(table.entries)}\n")
        for key, vec in table.entries.items():
            comps = " ".join(_fmt_number(v) for v in vec)
            f.write(f"{key}\t{comps}\n")


# ---------------------------------------------------------------------------
# tree serialization


# One tree node; "%.17g" formats a float as format(x, ".17g") does.
_TREE_NODE = '{"id":%d,"name":%s,"parent":%s,"children":[%s],"depth":%d,"embedding":%s}'
_NODE_KEYS = ("id", "name", "parent", "children", "depth")  # every node holds these
_NODE_KEY_SET = frozenset(_NODE_KEYS)  # a C-level subset test for the decoding hook


def save_tree(tree: TagTree, path) -> None:
    """Write tree JSON; rejects invalid trees rather than persisting them.

    Validation runs afresh, not through the views ``TagTree`` keeps, so it
    sees nodes changed after first use, and before the file is opened it
    refuses non-finite embedding components and names that are not
    strings. Each node is formatted directly, in the bytes
    :func:`dumps_canonical` would write for it, and written as formatted.
    """
    report = validate_tree(tree)
    if not report.ok:
        raise InvalidTreeError(report)
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"nodes":[')
        f.writelines(_node_texts(tree.nodes))
        f.write("]}\n")


def _node_texts(nodes):
    """Each node's text for :func:`save_tree`, all but the first led by a comma."""
    for i, n in enumerate(nodes):
        if n.embedding is None:
            embedding = "null"
        else:
            values = tuple(np.asarray(n.embedding, dtype=np.float64).tolist())
            embedding = "[" + ",".join(["%.17g"] * len(values)) % values + "]"
        yield ("," if i else "") + _TREE_NODE % (
            n.id,
            encode_basestring(n.name),
            "null" if n.parent is None else str(n.parent),
            ",".join(map(str, n.children)),
            n.depth,
            embedding,
        )


def _decode_embedding(obj: dict) -> dict:
    """``object_hook`` for tree files: a node's ``embedding`` list of numbers becomes its array.

    ``json`` calls it on every object as soon as the object is decoded, so
    each node's float list is freed before the next node is read. An object
    without the five node keys, such as one nested in a node's values, and
    an embedding that is not such a list are left as written.
    """
    value = obj.get("embedding")
    if type(value) is list and value and obj.keys() >= _NODE_KEY_SET:
        if _NUMBER.issuperset(map(type, value)):
            try:
                obj["embedding"] = np.array(value, dtype=np.float64)
            except OverflowError:  # an int too large for a float
                pass
    return obj


def _tree_nodes(payload) -> list[TreeNode]:
    """The nodes of a tree file's JSON value, in file order, under the node rules.

    ``payload`` came through :func:`_decode_embedding`. A broken rule
    raises ``ValueError`` naming the node entry; names are taken as written,
    for :func:`validate_tree` to check.
    """
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise ValueError("tree file must be a JSON object with a 'nodes' array")
    raw_nodes = payload["nodes"]
    if not isinstance(raw_nodes, list):
        raise ValueError("'nodes' must be an array")
    nodes: list[TreeNode] = []
    for i, obj in enumerate(raw_nodes):
        if not isinstance(obj, dict):
            raise ValueError(f"node entry {i} is not an object")
        for key in _NODE_KEYS:
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
        if emb is not None and type(emb) is not np.ndarray:  # the hook made every good one
            raise ValueError(f"node entry {i}: 'embedding' must be an array of numbers")
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
    return nodes


def load_tree(path) -> TagTree:
    """Read tree JSON and validate it once, by reading ``TagTree.parents``.

    Never silently repairs a broken file, and opens and decodes it once.
    Each node's embedding becomes its float64 array as soon as ``json`` has
    decoded the node (:func:`_decode_embedding`), so the file's float lists
    never all exist at once. A name that is not a string is refused by
    :func:`validate_tree`, never converted.
    """
    nodes = _tree_nodes(_load_json_file(path, object_hook=_decode_embedding))
    nodes.sort(key=lambda n: n.id)
    tree = TagTree(nodes=nodes)
    tree.parents  # the tree's one check: raises InvalidTreeError on a broken file
    return tree


# ---------------------------------------------------------------------------
# target distributions


@dataclass
class TargetDistribution:
    """Probabilities over leaf node ids; zero-weight leaves are omitted."""

    weights: dict[int, float]

    def dense(self, leaf_ids: np.ndarray) -> np.ndarray:
        """Vector aligned to leaf positions (the order of ``leaf_ids``).

        Raises ValueError, naming the node id, for a key that is not in
        ``leaf_ids`` and for a weight that is not finite or is negative.
        """
        out = np.zeros(len(leaf_ids), dtype=np.float64)
        pos = {int(nid): j for j, nid in enumerate(leaf_ids)}
        for nid, w in self.weights.items():
            if nid not in pos:
                raise ValueError(f"target node {nid} is not a leaf")
            if not (w >= 0.0 and math.isfinite(w)):
                raise ValueError(
                    f"target weight for leaf {nid} must be finite and >= 0, got {w!r}"
                )
            out[pos[nid]] = w
        return out


def load_target(path, tree: TagTree) -> TargetDistribution:
    """Read a leaf-name-keyed weight map and bind it to the tree's leaves.

    Weights must be non-negative, keys must name leaves unambiguously, and
    the sum must land in [0.999, 1.001]; the distribution is renormalized
    to sum exactly 1. A leaf name may appear only once, and not be one
    that more than one leaf holds (``TagTree.leaves_by_name``).
    """
    # objects load as tuples of (key, value) pairs, so no repeated key is lost
    payload = _load_json_file(path, object_pairs_hook=tuple)
    if not isinstance(payload, tuple):
        raise ValueError("target file must be a JSON object of leaf name -> weight")
    weights: dict[int, float] = {}
    named: set[str] = set()
    for name, value in payload:
        if name in named:
            raise ValueError(f"duplicate leaf name '{name}'")
        named.add(name)
        leaves = tree.leaves_by_name.get(name, ())
        if len(leaves) > 1:
            raise ValueError(f"leaf name '{name}' is ambiguous in this tree")
        if not leaves:
            raise ValueError(f"'{name}' is not a leaf of this tree")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"weight for '{name}' is not a number")
        if not is_finite_number(value) or value < 0:
            raise ValueError(f"weight for '{name}' must be finite and >= 0")
        w = float(value)
        if w > 0:
            weights[leaves[0]] = w
    total = sum(weights.values())
    if not (0.999 <= total <= 1.001):
        raise ValueError(f"target weights sum to {total:.6f}, outside [0.999, 1.001]")
    return TargetDistribution(weights={k: v / total for k, v in weights.items()})


def save_target(target: TargetDistribution, tree: TagTree, path) -> None:
    """Write a target keyed by leaf name (ascending leaf id order).

    Before the file is opened it refuses a weighted key that is not a leaf,
    and a weighted leaf whose name other leaves hold too, which
    :func:`load_target` would refuse.
    """
    by_name, payload = tree.leaves_by_name, {}
    for nid in sorted(target.weights):
        if nid not in tree.leaf_pos:
            raise ValueError(f"target node {nid} is not a leaf")
        name = tree.nodes[nid].name
        if len(by_name[name]) > 1:
            raise ValueError(f"leaf name '{name}' is ambiguous in this tree; cannot write by name")
        payload[name] = target.weights[nid]
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_canonical(payload))
        f.write("\n")
