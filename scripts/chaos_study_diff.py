#!/usr/bin/env python
"""CI acceptance check: a SIGKILLed study resumes byte-identically.

Runs one multi-cell :class:`repro.study.Study` three ways —

1. uninterrupted at ``jobs=1`` (the reference archive),
2. in a child process at ``jobs=2`` that is SIGKILLed after its first
   cell completes — so the kill lands while cells are in flight on the
   pool and finishing out of order — then resumed in-process (only
   incomplete cells re-run),
3. the resumed archive again (everything must now load from cache),

— and diffs the per-cell payload bytes (``payload_json``, metadata
stripped) across all three.  Any mismatch, a resume that recomputes an
already-journaled cell, or a process of the child's pool (workers,
forkserver, resource tracker) alive 10 s after the kill fails the job.

Usage::

    PYTHONPATH=src python scripts/chaos_study_diff.py [workdir]

Exit status 0 on success, 1 on any divergence.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.study import Study, StudyJournal  # noqa: E402

# batch-parity (the per-run fastpath, one call per trial) at these sizes
# takes ~0.5-1 s per cell on a 2-CPU VM, so the SIGKILL genuinely lands
# mid-sweep instead of after the study already finished.
GRID = {"gamma": [1.5, 2.0, 3.0, 4.0]}
BASE = dict(trials=3000, sizes=(64,), workloads=("balanced",),
            engine="batch-parity")

_CHILD = textwrap.dedent("""
    import sys
    from repro.study import Study
    Study("e1", {"gamma": [1.5, 2.0, 3.0, 4.0]}, trials=3000, sizes=(64,),
          workloads=("balanced",),
          engine="batch-parity").run(out_dir=sys.argv[1], jobs=2)
""")
#: How long the killed child's pool processes may outlive it.
POOL_EXIT_S = 10.0


def _payloads(study_result) -> list[str]:
    return [cell.result.payload_json() for cell in study_result.cells]


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an unreaped zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _descendants(pid: int) -> set[int]:
    """The live descendants of ``pid``, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _alive(int(entry)):
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
    found, todo = set(), [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.add(child)
            todo.append(child)
    return found


def _run_and_kill(out_dir: Path) -> tuple[int, set[int]]:
    """Start the study in a child, SIGKILL it after >=1 journaled cell.

    Returns the number of cells the child completed before the kill,
    and the pool processes (the child's descendants) still alive
    :data:`POOL_EXIT_S` seconds after it.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(out_dir)],
        env={"PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    journal = StudyJournal.for_study(out_dir, "e1")
    deadline = time.monotonic() + 300
    done = 0
    while time.monotonic() < deadline:
        if journal.path.is_file():
            done = len(journal.done_keys())
            if done >= 1:
                break
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    family = _descendants(proc.pid)
    proc.kill()
    proc.wait(timeout=60)
    deadline = time.monotonic() + POOL_EXIT_S
    while any(map(_alive, family)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return done, {pid for pid in family if _alive(pid)}


def main(argv: list[str]) -> int:
    if argv:
        work = Path(argv[0])
        work.mkdir(parents=True, exist_ok=True)
    else:
        work = Path(tempfile.mkdtemp(prefix="chaos-study-diff-"))
    print(f"workdir: {work}")

    reference = Study("e1", GRID, **BASE).run(
        out_dir=work / "reference", jobs=1
    )
    ref_payloads = _payloads(reference)
    print(f"reference: {len(ref_payloads)} cells")

    killed_dir = work / "killed"
    done_before_kill, survivors = _run_and_kill(killed_dir)
    print(f"child SIGKILLed after {done_before_kill} journaled cell(s)")

    resumed = Study("e1", GRID, **BASE).run(out_dir=killed_dir)
    cached = sum(cell.cached for cell in resumed.cells)
    print(f"resume: {cached} cell(s) loaded from cache, "
          f"{len(resumed.cells) - cached} recomputed, "
          f"{len(resumed.quarantined)} quarantined")

    failures = []
    if survivors:
        failures.append(
            f"pool processes {sorted(survivors)} outlived the killed "
            f"child by {POOL_EXIT_S:.0f} s"
        )
    if _payloads(resumed) != ref_payloads:
        failures.append("resumed payloads differ from uninterrupted run")
    if cached < done_before_kill:
        failures.append(
            f"resume recomputed journaled cells "
            f"(journal had {done_before_kill}, cache served {cached})"
        )

    rerun = Study("e1", GRID, **BASE).run(out_dir=killed_dir)
    if not all(cell.cached for cell in rerun.cells):
        failures.append("post-resume archive is not fully cached")
    if _payloads(rerun) != ref_payloads:
        failures.append("post-resume cached payloads differ")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: killed-and-resumed archive is byte-identical "
          "to the uninterrupted run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
