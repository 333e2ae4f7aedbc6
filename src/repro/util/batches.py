"""The one schema of the struct-of-arrays result records, and its assemblers.

Every tier that measures per-trial quantities returns a frozen
dataclass whose trial-axis arrays are declared once, on the class:

* ``ARRAY_FIELDS`` — ``(field, dtype)`` pairs, in declaration order;
* ``NESTED_BATCH_FIELDS`` — ``(field, class)`` pairs for records that
  embed other records (the strategy tier's honest/deviant pair).

The batched engines, the per-trial reference tiers and the shard
transport (:mod:`repro.exec.shm`) all build records from that schema,
here: :func:`concat_batch` joins per-block dicts, :func:`stack_batch`
stacks per-trial rows, and :func:`build_batch` reassembles a sharded
result from full-length arrays.  Every array passes the same
:func:`check_dtype`, which raises instead of casting — a silent cast
would let one path produce different bytes than another.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "batch_schema",
    "build_batch",
    "check_dtype",
    "concat_batch",
    "stack_batch",
]


def batch_schema(cls: type, prefix: str = "") -> tuple[
    tuple[str, np.dtype], ...
]:
    """Ordered ``(path, dtype)`` pairs of every trial-axis array.

    Nested batch results contribute dotted paths (``honest.winner``),
    so one flat schema describes the whole result tree.
    """
    entries: list[tuple[str, np.dtype]] = []
    for name, dtype in getattr(cls, "ARRAY_FIELDS", ()):
        entries.append((prefix + name, np.dtype(dtype)))
    for name, sub in getattr(cls, "NESTED_BATCH_FIELDS", ()):
        entries.extend(batch_schema(sub, prefix=f"{prefix}{name}."))
    return tuple(entries)


def check_dtype(path: str, array: np.ndarray, dtype: Any) -> None:
    """Raise ``TypeError`` unless ``array`` has the schema's ``dtype``."""
    if array.dtype != np.dtype(dtype):
        raise TypeError(
            f"dtype mismatch for {path!r}: array has {array.dtype}, "
            f"schema declares {np.dtype(dtype)}"
        )


def _assemble(
    cls: type,
    scalars: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    prefix: str = "",
) -> Any:
    """``cls`` from ``scalars`` plus its schema's ``arrays``, each checked
    against its declared dtype; where ``cls`` has an ``n_trials`` field,
    it is the arrays' length."""
    for name, dtype in cls.ARRAY_FIELDS:
        check_dtype(prefix + name, arrays[name], dtype)
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


def build_batch(
    cls: type,
    stub: Mapping[str, Any],
    views: Mapping[str, np.ndarray],
    prefix: str = "",
) -> Any:
    """Reassemble a batch result from a merged scalar stub plus
    full-length arrays, keyed by their schema paths."""
    scalars = dict(stub)
    for name, sub in getattr(cls, "NESTED_BATCH_FIELDS", ()):
        scalars[name] = build_batch(sub, stub[name], views,
                                    prefix=f"{prefix}{name}.")
    return _assemble(cls, scalars, {
        name: views[prefix + name] for name, _ in cls.ARRAY_FIELDS
    }, prefix)
