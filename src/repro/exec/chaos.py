"""Deterministic fault injection for the execution layer.

The fault-tolerance machinery in :mod:`repro.exec.backends` (shard
retry, pool respawn, timeout recovery, serial degradation) and the
crash-safe persistence in :mod:`repro.results`/:mod:`repro.study` are
only trustworthy if they are *exercised* — this module is the harness
that exercises them from ordinary pytest tests and the CI chaos job.

A :class:`ChaosConfig` is a pure description of a fault schedule: every
decision ("does shard 3's first attempt get killed?", "is this archive
write truncated?") is a SHA-256 hash of the chaos seed and the
injection site, so a given config injects *exactly* the same faults on
every run, on every machine — chaos runs are as reproducible as the
experiments they disturb.

Two injection sites:

``shard_chaos(shard, attempt)``
    Consulted by the parallel backend when it submits a shard to the
    process pool.  The resulting :class:`ShardChaos` travels to the
    worker (it is picklable) and is applied *before* the shard
    computes: ``kill`` terminates the worker with ``os._exit`` (the
    pool observes ``BrokenProcessPool``), ``delay_s`` sleeps first
    (driving the shard past a configured timeout).  Attempts at or
    beyond ``max_faulty_attempts`` always run clean, so recovery is
    guaranteed to converge; the serial degradation path never consults
    chaos at all — it is the trusted fallback.

``truncates(name)``
    Consulted after an archive file is (atomically) published: a hit
    truncates the *final* file to half its bytes, simulating the torn
    write a crash mid-write would have left behind a non-atomic writer
    (or a corrupted disk).  Resume paths must quarantine and recompute
    such files, never crash on them.

Activation is explicit and scoped: :func:`install` sets the active
config for a ``with`` block (the backend and the archive writers check
:func:`active_config`).  Nothing is injected unless a config is
installed — ``REPRO_CHAOS=1`` does not silently fault ordinary runs;
it gates the heavier chaos *tests* (:func:`chaos_enabled`) and
:meth:`ChaosConfig.from_env` builds the config those tests install.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

__all__ = [
    "ChaosConfig",
    "ShardChaos",
    "active_config",
    "chaos_enabled",
    "install",
]

#: Exit status a chaos-killed worker dies with (visible in core dumps /
#: strace sessions as "this was injected, not a real crash").
KILL_EXIT_CODE = 113

_TRUTHY = ("1", "true", "yes", "on")


def chaos_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """Whether the environment opts into the heavy chaos suite
    (``REPRO_CHAOS=1``, the CI chaos job's switch)."""
    env = os.environ if environ is None else environ
    return env.get("REPRO_CHAOS", "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class ShardChaos:
    """The faults injected into one (shard, attempt) worker execution.

    ``delay_s`` sleeps and ``kill`` terminates the worker, both
    *before* the shard computes, so a killed attempt never returns a
    record.
    """

    kill: bool = False
    delay_s: float = 0.0

    def apply(self) -> None:
        """Run inside the pool worker, before the shard computes."""
        if self.delay_s > 0.0:
            time.sleep(self.delay_s)
        if self.kill:
            os._exit(KILL_EXIT_CODE)


@dataclass(frozen=True)
class ChaosConfig:
    """A seed-derived, fully deterministic fault schedule.

    Rates are per-site probabilities in ``[0, 1]``; the draw for a site
    is ``sha256(seed | site | indices)`` mapped to ``[0, 1)``, so two
    runs with the same config fault identically.  ``max_faulty_attempts``
    bounds how many consecutive submissions of one shard may fault
    (attempts past it always run clean), which keeps every schedule
    recoverable by bounded retry.
    """

    seed: int = 0
    kill_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.25
    truncate_rate: float = 0.0
    max_faulty_attempts: int = 1

    def _uniform(self, *site: object) -> float:
        payload = "|".join(str(s) for s in (self.seed, *site))
        digest = hashlib.sha256(payload.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def shard_chaos(self, shard: int, attempt: int) -> ShardChaos:
        """The fault plan for submission ``attempt`` of ``shard``."""
        if attempt >= self.max_faulty_attempts:
            return ShardChaos()
        kill = self._uniform("kill", shard, attempt) < self.kill_rate
        delay = self._uniform("delay", shard, attempt) < self.delay_rate
        return ShardChaos(kill=kill, delay_s=self.delay_s if delay else 0.0)

    def truncates(self, name: str) -> bool:
        """Whether the archive file ``name`` gets a torn (half) write."""
        return self._uniform("truncate", name) < self.truncate_rate

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None
    ) -> "ChaosConfig | None":
        """The config the CI chaos job's environment describes.

        Returns ``None`` unless ``REPRO_CHAOS`` is truthy; the
        individual knobs default to a schedule that exercises every
        recovery path (kills, delays and truncations all enabled).
        """
        env = os.environ if environ is None else environ
        if not chaos_enabled(env):
            return None
        return cls(
            seed=int(env.get("REPRO_CHAOS_SEED", "0")),
            kill_rate=float(env.get("REPRO_CHAOS_KILL_RATE", "0.5")),
            delay_rate=float(env.get("REPRO_CHAOS_DELAY_RATE", "0.25")),
            delay_s=float(env.get("REPRO_CHAOS_DELAY_S", "0.25")),
            truncate_rate=float(env.get("REPRO_CHAOS_TRUNCATE_RATE", "0.5")),
        )


_active: ChaosConfig | None = None


def active_config() -> ChaosConfig | None:
    """The installed chaos config, or ``None`` (no injection)."""
    return _active


@contextmanager
def install(config: ChaosConfig) -> Iterator[ChaosConfig]:
    """Activate ``config`` for the block (restores the previous one).

    Chaos decisions are made in the parent process (the backend ships
    each worker its precomputed :class:`ShardChaos`), so installing in
    the test process is enough — pool workers need no setup.
    """
    global _active
    previous = _active
    _active = config
    try:
        yield config
    finally:
        _active = previous
