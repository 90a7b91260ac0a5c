"""Subset and trace writers that pass every value through ``dumps_canonical``, kept fixed as references.

These are ``export_subset`` and ``write_trace`` from before the sampler
formatted each row and pick with one format string: each row is built as a
dict and serialized by the recursive ``dumps_canonical``, and each row is
written as soon as it is serialized. The writers in ``tagforest.sampler``
are compared against them, byte for byte.
"""
from __future__ import annotations

from tagforest.io import InstancePool, dumps_canonical


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
