"""Record-based reading and sampler set-up, kept fixed as references.

``load_anchored`` is the anchored-file reader from before the pool was held
as columns: one ``AnchoredRecord`` per row, read line by line through
``read_rows`` and ``read_score``. ``_rank_candidates`` and ``_leaf_matrix``
are the sampler set-up that walked those records. The columnar loader and
set-up in ``tagforest`` are compared against them.
"""
from __future__ import annotations

from array import array

import numpy as np
import scipy.sparse as sp

from tagforest import AnchoredRecord, composite_score
from tagforest.anchoring import read_rows, read_score
from tagforest.sampler import _distinct_leaves


def load_anchored(path) -> list[AnchoredRecord]:
    """Read anchored rows; raises with the line number on malformed input.

    Rows follow :func:`read_rows` and carry all five keys. Scores must be
    finite and in [0, 1], as ``anchor`` writes them.
    """
    records: list[AnchoredRecord] = []
    seen: set[str] = set()
    keys = ("id", "leaves", "dropped", "quality", "complexity")
    for lineno, obj in read_rows(path, keys):
        quality = read_score(obj, "quality", lineno, unit_interval=True)
        complexity = read_score(obj, "complexity", lineno, unit_interval=True)
        if obj["id"] in seen:
            raise ValueError(f"line {lineno}: duplicate id '{obj['id']}'")
        seen.add(obj["id"])
        records.append(
            AnchoredRecord(
                id=obj["id"],
                leaves=tuple(obj["leaves"]),
                dropped=tuple(obj["dropped"]),
                quality=quality,
                complexity=complexity,
            )
        )
    return records


def _rank_candidates(
    usable: list[AnchoredRecord], alpha: float
) -> tuple[list[AnchoredRecord], np.ndarray]:
    """Candidates in tie-break order plus their composite scores.

    The order is composite score descending, then id ascending, so a
    first-occurrence argmax (or the smallest position among lazy
    re-scores) picks the documented winner on exact joint ties.
    """
    scores = composite_score(
        np.array([r.quality for r in usable], dtype=np.float64),
        np.array([r.complexity for r in usable], dtype=np.float64),
        alpha,
    )
    by_rec = scores.tolist()
    order = sorted(range(len(usable)), key=lambda i: (-by_rec[i], usable[i].id))
    return [usable[i] for i in order], scores[order]


def _leaf_matrix(
    cand: list[AnchoredRecord], leaf_pos: dict[int, int], n_leaves: int
) -> sp.csr_matrix:
    """Candidate x leaf indicator matrix; each row's positions ascend."""
    indptr = array("q", [0])
    indices = array("q")
    for record in cand:
        leaves = _distinct_leaves(record, leaf_pos)
        indices.extend(sorted(leaf_pos[leaf] for leaf in leaves))
        indptr.append(len(indices))
    return sp.csr_matrix(
        (
            np.ones(len(indices), dtype=np.float64),
            np.frombuffer(indices, dtype=np.int64),
            np.frombuffer(indptr, dtype=np.int64),
        ),
        shape=(len(cand), n_leaves),
    )
