"""Shard-order merge of the parallel backend's per-shard scalar stubs.

The parallel backend splits a plan into trial shards.  Workers write
each shard's trial-axis arrays straight into one shared-memory result
segment (:mod:`repro.exec.shm`); only a *scalar stub* per shard — the
non-array fields (``n``, ``colors``, ``rounds``, ``strategy``, ...) as
a nested dict — travels back through the pool pipe.
:func:`merge_stubs` folds those stubs together in shard-index order:
``n_trials`` sums, nested batch results recurse, and every other field
must agree across shards — a disagreement means the shards were cut
from different workloads and is an error, never silently resolved.

Because shard boundaries sit on the plan's stream quantum
(:mod:`repro.exec.plan`), the merged result is bit-identical to what
the serial backend produces, independent of worker count and of the
order shards *complete* in.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["merge_stubs"]


def _merge_field(name: str, values: list[Any]) -> Any:
    first = values[0]
    if name == "n_trials":
        return int(sum(values))
    for index, value in enumerate(values[1:], start=1):
        if value != first:
            raise ValueError(
                f"shards disagree on field {name!r}: shard 0 has "
                f"{first!r}, shard {index} has {value!r} — the shards "
                "were cut from different workloads"
            )
    return first


def merge_stubs(
    stubs: list[Mapping[str, Any]], cls: type
) -> dict[str, Any]:
    """Merge per-shard scalar stubs of batch type ``cls``.

    The merged result's arrays are then full-length *views* of the
    result segment (:func:`repro.exec.shm.build_batch`); no array is
    ever copied.
    """
    if not stubs:
        raise ValueError("no shards to merge")
    names = list(stubs[0])
    for index, stub in enumerate(stubs[1:], start=1):
        if list(stub) != names:
            raise ValueError(
                f"cannot merge mixed shard types: shard 0 has fields "
                f"{names}, shard {index} has {list(stub)}"
            )
    nested = dict(getattr(cls, "NESTED_BATCH_FIELDS", ()))
    merged: dict[str, Any] = {}
    for name in names:
        values = [stub[name] for stub in stubs]
        if name in nested:
            merged[name] = merge_stubs(values, nested[name])
        else:
            merged[name] = _merge_field(name, values)
    return merged
