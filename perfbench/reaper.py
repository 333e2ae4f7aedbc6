"""Process-tree bookkeeping for the benchmark driver (Linux only).

The workload processes start helpers that outlive them: the
multiprocessing forkserver (numpy and repro preloaded) and resource
tracker notice their parent's death only when their pipe closes, pool
workers killed by an ``atexit`` hook linger as zombies, and a crashed
workload can orphan its ``repro serve`` process.  The driver therefore
makes itself a *child subreaper*: every orphan of its tree is
re-parented to the driver instead of PID 1, so the driver can wait for
it, interrupt it or kill it, and reap it before returning.

This module imports only the standard library, so the driver stays
cheap and never loads numpy.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from dataclasses import dataclass

__all__ = ["ReapReport", "become_subreaper", "descendants", "reap_tree",
           "tree_peak_rss_mb"]

_PR_SET_CHILD_SUBREAPER = 36
#: Command-line fragment of a ``repro serve`` process (plain or traced).
_SERVE_MARK = " serve --store "


def become_subreaper() -> None:
    """Mark this process as a child subreaper (``prctl``)."""
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): "
                           f"{os.strerror(err)}")


def _proc_table() -> dict[int, tuple[int, str]]:
    """pid -> (ppid, state) for every process visible in /proc."""
    table: dict[int, tuple[int, str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("utf-8", "replace")
        except OSError:  # exited between listdir and open
            continue
        # comm may hold spaces and parentheses; fields resume after
        # the last ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) >= 2:
            table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(root: int | None = None) -> dict[int, str]:
    """Every descendant of ``root`` (default: this process) -> state."""
    root = os.getpid() if root is None else root
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _state) in table.items():
        children.setdefault(ppid, []).append(pid)
    out: dict[int, str] = {}
    stack = list(children.get(root, ()))
    while stack:
        pid = stack.pop()
        if pid in out:
            continue
        out[pid] = table[pid][1]
        stack.extend(children.get(pid, ()))
    return out


def tree_peak_rss_mb(root: int | None = None) -> float:
    """Largest peak RSS (``VmHWM``) of ``root`` and its live descendants."""
    root = os.getpid() if root is None else root
    peak_kb = 0
    for pid in [root, *descendants(root)]:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:  # exited meanwhile
            continue
    return peak_kb / 1024


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def _reap_children() -> None:
    """Collect every exited child of this process without blocking."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


@dataclass(frozen=True)
class ReapReport:
    """What was left of a workload's tree after its root process exited.

    ``orphans`` counts the distinct processes found still alive or
    unreaped (zombies included), ``killed`` those that had to be
    SIGKILLed after the grace period, ``reap_s`` the time until the
    tree was empty.
    """

    orphans: int
    killed: int
    reap_s: float


def reap_tree(grace_s: float = 3.0, hard_limit_s: float = 20.0) -> ReapReport:
    """Wait for, interrupt, kill and reap every descendant of this process.

    A ``repro serve`` process is sent SIGINT at once (its clean shutdown
    path); other helpers get ``grace_s`` to exit on their own, then
    SIGKILL.  Returns when no descendant is left, or raises
    ``RuntimeError`` past ``hard_limit_s``.
    """
    start = time.monotonic()
    seen: set[int] = set()
    interrupted: set[int] = set()
    killed: set[int] = set()
    while True:
        _reap_children()
        tree = descendants()
        if not tree:
            break
        seen.update(tree)
        elapsed = time.monotonic() - start
        for pid, state in tree.items():
            if state == "Z":
                continue
            if pid not in interrupted and _SERVE_MARK in _cmdline(pid):
                interrupted.add(pid)
                _signal(pid, signal.SIGINT)
            elif elapsed > grace_s and pid not in killed:
                killed.add(pid)
                _signal(pid, signal.SIGKILL)
        if elapsed > hard_limit_s:
            raise RuntimeError(
                f"processes {sorted(tree)} survived {hard_limit_s:.0f}s "
                "of reaping")
        time.sleep(0.01)
    return ReapReport(orphans=len(seen), killed=len(killed),
                      reap_s=time.monotonic() - start)


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass
