"""Zero-copy shared-memory transport for the parallel backend.

A shard's struct-of-arrays result never pickles back through the pool
pipe:

* **One result segment per run** holds the merged result's trial-axis
  tensors, laid out field by field.  Workers attach by name and write
  their shard's ``[lo, hi)`` slice of every array *in place*; only a
  tiny scalar stub (``n``, ``colors``, ``rounds``, ...) travels back.
* **The stub format** lives here too: :func:`scalar_stub` cuts a
  shard's stub, :func:`merge_stubs` folds the shards' stubs in
  shard-index order, and :func:`build_batch` rebuilds the merged
  result from full-length arrays — the parent copies each one out of
  its mapping of the segment once, with no concatenation.

The layout comes from the one record schema every tier builds from
(:mod:`repro.util.batches`): each batch-result class's
``ARRAY_FIELDS`` and ``NESTED_BATCH_FIELDS``.  :func:`batch_schema`
and :func:`build_batch` live there and are re-exported here.

Ownership and unlink contract (DESIGN.md §9)
--------------------------------------------
The **parent owns the segment, exclusively**.  Workers attach by
name, immediately deregister the attachment from their resource
tracker (the parent's registration is the only one), and never unlink.
The parent unlinks on *every* exit path — success, worker crash, shard
timeout, serial degradation, ``KeyboardInterrupt`` — via an idempotent
``close()`` in a ``finally`` block.  The merged arrays are copied out
before the segment is unlinked and its mapping closed, so neither a
``/dev/shm`` entry nor a mapping (and its two file descriptors)
outlives the run.  The only leak window is a hard kill of the parent
between create and unlink, which no userspace design can close.

A worker SIGKILLed mid-write leaves a torn slice; that is harmless by
construction, because a shard's slice is only trusted once the
worker's scalar stub returns, and every retry (and the serial
degradation path) rewrites the full slice.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, fields as _dc_fields
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Mapping

import numpy as np

from repro.util.batches import batch_schema, build_batch, check_dtype

__all__ = [
    "SEGMENT_PREFIX",
    "ResultLayout",
    "batch_schema",
    "build_batch",
    "export_batch",
    "merge_stubs",
    "plan_layout",
    "repo_segments",
    "scalar_stub",
]

#: Every segment this module creates carries this name prefix, so leak
#: checks (tests, CI) can count our segments without false positives.
SEGMENT_PREFIX = "repro_exec_"

#: Field offsets are aligned to cache lines; adjacent shards then only
#: ever share a line at their own boundary, never across fields.
_ALIGN = 64


@dataclass(frozen=True)
class ResultLayout:
    """Where each result array lives inside the result segment.

    ``slots`` maps the schema's dotted paths to ``(dtype string,
    byte offset)``; the layout is computed once by the parent and
    shipped to workers in every shard's pool task, so both sides
    address the same bytes.
    """

    n_trials: int
    slots: tuple[tuple[str, str, int], ...]   # (path, dtype.str, offset)
    size: int

    def views(self, shm: shared_memory.SharedMemory) -> dict[str, np.ndarray]:
        """Full-length array views over a mapping of the segment."""
        return {
            path: np.ndarray(
                (self.n_trials,), dtype=np.dtype(dtype), buffer=shm.buf,
                offset=offset,
            )
            for path, dtype, offset in self.slots
        }


def plan_layout(cls: type, n_trials: int) -> ResultLayout:
    """Lay the result tree of ``cls`` out field by field."""
    offset = 0
    slots: list[tuple[str, str, int]] = []
    for path, dtype in batch_schema(cls):
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        slots.append((path, dtype.str, offset))
        offset += dtype.itemsize * n_trials
    return ResultLayout(n_trials=n_trials, slots=tuple(slots),
                        size=max(offset, 1))


# ---------------------------------------------------------------------------
# Shard results: export / stub / merge
# ---------------------------------------------------------------------------

def _get_path(result: Any, path: str) -> Any:
    for part in path.split("."):
        result = getattr(result, part)
    return result


def export_batch(
    result: Any,
    views: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    *,
    fault: Any = None,
) -> None:
    """Write every array of ``result`` into its ``[lo, hi)`` slice.

    Dtype mismatches raise instead of casting — a silent cast could
    round-trip different bytes than the serial backend produced.
    ``fault`` is the chaos hook: a :class:`~repro.exec.chaos.ShardChaos`
    with ``kill_mid_write`` set makes the worker die after half the
    fields, leaving a genuinely torn slice for the recovery paths.
    """
    schema = batch_schema(type(result))
    kill_after = len(schema) // 2 if (
        fault is not None and getattr(fault, "kill_mid_write", False)
    ) else None
    for index, (path, dtype) in enumerate(schema):
        if kill_after is not None and index == kill_after:
            fault.die()
        arr = _get_path(result, path)
        check_dtype(path, arr, dtype)
        views[path][lo:hi] = arr


def scalar_stub(result: Any) -> dict[str, Any]:
    """The non-array fields of a batch result, nested as dicts.

    This is all that travels back from a worker;
    :func:`merge_stubs` cross-checks the stubs across shards.
    """
    cls = type(result)
    array_names = {name for name, _ in getattr(cls, "ARRAY_FIELDS", ())}
    nested = dict(getattr(cls, "NESTED_BATCH_FIELDS", ()))
    stub: dict[str, Any] = {}
    for field in _dc_fields(cls):
        if field.name in array_names:
            continue
        value = getattr(result, field.name)
        stub[field.name] = (
            scalar_stub(value) if field.name in nested else value
        )
    return stub


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

    Folds in shard-index order: ``n_trials`` sums, nested batch
    results recurse, and every other field must agree across shards —
    a disagreement means the shards were cut from different workloads
    and is an error, never silently resolved.  Because shard
    boundaries sit on the plan's stream quantum, the merged result is
    bit-identical to the serial backend's, independent of worker count
    and of the order shards *complete* in.
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


# ---------------------------------------------------------------------------
# Segments: parent-owned blocks, worker-side attach cache
# ---------------------------------------------------------------------------

def _fresh_name() -> str:
    return f"{SEGMENT_PREFIX}{secrets.token_hex(8)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering with a resource tracker.

    ``SharedMemory(name=...)`` registers every attachment for cleanup,
    but the parent's registration (made at create time) is the one and
    only canonical owner.  A second registration is actively harmful:
    under the ``fork`` context the tracker is *shared*, so a worker
    unregistering its attachment would delete the parent's entry (and a
    worker exiting without unregistering would unlink the segment out
    from under the parent).  Suppressing the register call during
    attach keeps the tracker's books exactly right on every start
    method.  Pool tasks run single-threaded, so the swap is race-free.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class OwnedSegment:
    """A parent-owned shared-memory block with an idempotent unlink.

    ``unlink()`` removes the name system-wide and closes this process's
    mapping, so every view over ``buf`` must be dropped first; it is
    safe (and expected) to call from ``finally`` blocks on every path.
    """

    def __init__(self, size: int) -> None:
        self._shm = shared_memory.SharedMemory(
            create=True, size=size, name=_fresh_name()
        )
        self._linked = True

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def shm(self) -> shared_memory.SharedMemory:
        return self._shm

    def unlink(self) -> None:
        if self._linked:
            self._linked = False
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            try:
                self._shm.close()
            except BufferError:
                # A view still lives (an exception traceback can hold
                # one); the mapping then closes when the segment object
                # is collected after it.
                pass


# Worker-side attach cache: pool workers are long-lived, so one run's
# result segment is attached once per worker, not once per shard.  A
# task naming a different segment evicts the old one (its per-task
# views are gone by then, so the close cannot fail).
_attached: tuple[str, shared_memory.SharedMemory] | None = None


def attached(name: str) -> shared_memory.SharedMemory:
    """Attach (or reuse) the named segment inside a pool worker."""
    global _attached
    if _attached is not None:
        if _attached[0] == name:
            return _attached[1]
        try:
            _attached[1].close()
        except BufferError:
            # A live export view (shouldn't happen between tasks);
            # dropping the reference still frees it with the process.
            pass
    shm = _attach_untracked(name)
    _attached = (name, shm)
    return shm


def repo_segments() -> list[str]:
    """Names of live ``repro_exec_*`` segments (the leak check).

    Reads ``/dev/shm`` where it exists (Linux); elsewhere returns an
    empty list, which keeps the leak tests vacuously green rather than
    wrong.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    return sorted(
        entry for entry in os.listdir(root)
        if entry.startswith(SEGMENT_PREFIX)
    )

