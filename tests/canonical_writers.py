"""Writers kept fixed as references for the package's writers, byte for byte.

``export_subset`` and ``write_trace`` are the sampler's writers from before
it formatted each row and pick with one format string: each row is built
as a dict and serialized by the recursive ``dumps_canonical``, and each row
is written as soon as it is serialized. ``write_anchored`` is the anchored
writer from before it wrote in chunks: every column of the pool is turned
into Python values at once, and all rows are formatted from those lists.
"""
from __future__ import annotations

from json.encoder import encode_basestring

import numpy as np

from tagforest.anchoring import _ANCHORED_ROW, AnchoredPool
from tagforest.io import InstancePool, dumps_canonical


def write_anchored(records, path) -> None:
    """Write anchored rows (id, leaves, dropped, quality, complexity)."""
    pool = AnchoredPool.from_records(records)
    scores = np.column_stack((pool.quality, pool.complexity)).ravel()
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ValueError(f"cannot serialize non-finite number: {scores[bad[0]].item()!r}")
    ptr = pool.leaf_ptr.tolist()
    leaves = pool.leaf_ids.tolist()
    rows = zip(pool.ids, pool.dropped, pool.quality.tolist(), pool.complexity.tolist())
    with open(path, "w", encoding="utf-8") as f:
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


def export_subset(selected, trace, pool, path) -> None:
    """Write selected rows in pick order."""
    if len(selected) != len(trace.picks):
        raise ValueError("selected records and trace picks must align")
    if pool is not None:
        ids = pool.ids if isinstance(pool, InstancePool) else (inst.id for inst in pool)
        row_of = {rid: i for i, rid in enumerate(ids)}  # the last duplicate wins
    with open(path, "w", encoding="utf-8") as f:
        for record, pick in zip(selected, trace.picks):
            if record.id != pick.instance_id:
                raise ValueError("selected order does not match trace order")
            if pool is not None:
                i = row_of.get(record.id)
                if i is None:
                    raise ValueError(f"id '{record.id}' missing from original pool")
                inst = pool[i]
                row = {
                    "id": inst.id,
                    "query": inst.query,
                    "response": inst.response,
                    "tags": list(inst.tags),
                    "quality": inst.quality,
                    "complexity": inst.complexity,
                }
            else:
                row = {
                    "id": record.id,
                    "quality": record.quality,
                    "complexity": record.complexity,
                }
            row["leaves"] = list(record.leaves)
            row["iteration"] = pick.iteration
            row["gain"] = pick.gain
            row["joint"] = pick.joint
            f.write(dumps_canonical(row))
            f.write("\n")


def write_trace(trace, path) -> None:
    """Write the full trace, including per-pick KL values when present."""
    payload = {
        "mode": trace.mode,
        "budget_requested": trace.budget_requested,
        "pool_size": trace.pool_size,
        "unanchorable": trace.unanchorable,
        "selected": len(trace.picks),
        "final_information": trace.final_information,
        "final_kl": trace.final_kl,
        "picks": [
            {
                "iteration": p.iteration,
                "id": p.instance_id,
                "gain": p.gain,
                "kl": p.kl,
                "joint": p.joint,
            }
            for p in trace.picks
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_canonical(payload))
        f.write("\n")
