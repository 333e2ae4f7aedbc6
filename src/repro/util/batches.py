"""The one schema of the struct-of-arrays result records, and its assemblers.

Every tier that measures per-trial quantities returns a frozen
dataclass whose trial-axis arrays are declared once, on the class:

* ``ARRAY_FIELDS`` — ``(field, dtype)`` pairs, in declaration order;
* ``NESTED_BATCH_FIELDS`` — ``(field, class)`` pairs for records that
  embed other records (the strategy tier's honest/deviant pair).

The batched engines, the per-trial reference tiers and the parallel
backend all build records from that schema, here: :func:`concat_batch`
joins per-block dicts, :func:`stack_batch` stacks per-trial rows, and
:func:`merge_batches` joins the records a sharded plan's workers
return.  Every array passes the same :func:`check_dtype`, which raises
instead of casting — a silent cast would let one path produce
different bytes than another.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "check_dtype",
    "concat_batch",
    "merge_batches",
    "stack_batch",
]


def check_dtype(path: str, array: np.ndarray, dtype: Any) -> None:
    """Raise ``TypeError`` unless ``array`` has the schema's ``dtype``."""
    if array.dtype != np.dtype(dtype):
        raise TypeError(
            f"dtype mismatch for {path!r}: array has {array.dtype}, "
            f"schema declares {np.dtype(dtype)}"
        )


def _assemble(
    cls: type, scalars: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> Any:
    """``cls`` from ``scalars`` plus its schema's ``arrays``, each checked
    against its declared dtype; where ``cls`` has an ``n_trials`` field,
    it is the arrays' length."""
    for name, dtype in cls.ARRAY_FIELDS:
        check_dtype(name, arrays[name], dtype)
    kwargs = {**scalars, **arrays}
    if "n_trials" in cls.__dataclass_fields__:
        kwargs["n_trials"] = len(arrays[cls.ARRAY_FIELDS[0][0]])
    return cls(**kwargs)


def concat_batch(
    cls: type, chunks: Sequence[Mapping[str, np.ndarray]], **scalars: Any
) -> Any:
    """``cls`` joined, in order, from per-block dicts of arrays keyed by
    field name; with no chunks, an empty batch of the declared dtypes.

    ``np.concatenate`` copies even a single chunk, so the result never
    aliases a block (the strategy tier's memoised blocks are read-only).
    """
    return _assemble(cls, scalars, {
        name: (np.concatenate([c[name] for c in chunks]) if chunks
               else np.zeros(0, dtype))
        for name, dtype in cls.ARRAY_FIELDS
    })


def stack_batch(
    cls: type, rows: Sequence[Mapping[str, Any]], **scalars: Any
) -> Any:
    """``cls`` stacked from per-trial rows keyed by field name; with no
    rows, an empty batch of the declared dtypes.

    Each column takes the dtype NumPy infers from its values, so a row
    value of the wrong kind (a bool where an int is declared) raises.
    """
    return _assemble(cls, scalars, {
        name: (np.array([row[name] for row in rows]) if rows
               else np.zeros(0, dtype))
        for name, dtype in cls.ARRAY_FIELDS
    })


def _agreed(name: str, values: Sequence[Any]) -> Any:
    first = values[0]
    for index, value in enumerate(values[1:], start=1):
        if value != first:
            raise ValueError(
                f"shards disagree on field {name!r}: shard 0 has "
                f"{first!r}, shard {index} has {value!r} — the shards "
                "were cut from different workloads"
            )
    return first


def merge_batches(parts: Sequence[Any], prefix: str = "") -> Any:
    """One record joined, in order, from the records of a plan's shards.

    Each schema array is dtype-checked in every part and concatenated
    once; ``n_trials`` sums, nested records merge recursively, and
    every other field must agree across the parts — a disagreement
    means the shards were cut from different workloads and raises,
    never silently resolved.  The parts fold in the order given (shard
    index), so the merged record is the serial backend's whatever
    order the shards finished in.
    """
    if not parts:
        raise ValueError("no shards to merge")
    cls = type(parts[0])
    for index, part in enumerate(parts[1:], start=1):
        if type(part) is not cls:
            raise ValueError(
                f"cannot merge mixed shard types: shard 0 is a "
                f"{cls.__name__}, shard {index} a {type(part).__name__}"
            )
    dtypes = dict(cls.ARRAY_FIELDS)
    nested = dict(getattr(cls, "NESTED_BATCH_FIELDS", ()))
    merged: dict[str, Any] = {}
    for field in dataclasses.fields(cls):
        name = field.name
        values = [getattr(part, name) for part in parts]
        if name in dtypes:
            for value in values:
                check_dtype(prefix + name, value, dtypes[name])
            merged[name] = np.concatenate(values)
        elif name in nested:
            merged[name] = merge_batches(values, prefix=f"{prefix}{name}.")
        elif name == "n_trials":
            merged[name] = sum(values)
        else:
            merged[name] = _agreed(name, values)
    return cls(**merged)
