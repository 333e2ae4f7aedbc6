"""Initial color configurations used across experiments.

The paper's fairness property is quantified over *any* initial
configuration; the suite exercises the standard corners:

* ``balanced`` — two colors, 50/50 (maximum entropy for two colors);
* ``skewed``  — two colors, 90/10 (fairness must track the minority
  exactly, the regime where biased protocols are easiest to expose);
* ``multiway`` — four colors, 40/30/20/10;
* ``leader_election`` — every agent supports a unique color (his own
  label): the fair-leader-election special case from the paper.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

__all__ = ["balanced", "skewed", "multiway", "leader_election", "WORKLOADS"]


def balanced(n: int) -> list[str]:
    """Two colors, as close to 50/50 as n allows."""
    half = n // 2
    return ["red"] * half + ["blue"] * (n - half)


def skewed(n: int, minority: float = 0.1) -> list[str]:
    """Two colors with a ``minority`` fraction of 'blue' (at least one
    blue); ``minority`` must lie strictly between 0 and 1."""
    if not 0 < minority < 1:
        raise ValueError(f"minority must be in (0, 1), got {minority!r}")
    blues = max(1, round(n * minority))
    return ["red"] * (n - blues) + ["blue"] * blues


def multiway(n: int) -> list[str]:
    """Four colors at 40/30/20/10."""
    a = round(0.4 * n)
    b = round(0.3 * n)
    c = round(0.2 * n)
    d = n - a - b - c
    return ["c0"] * a + ["c1"] * b + ["c2"] * c + ["c3"] * max(d, 0)


def leader_election(n: int) -> list[str]:
    """Unique color per agent — fair leader election."""
    return [f"id{i}" for i in range(n)]


WORKLOADS: dict[str, Callable[[int], Sequence[Hashable]]] = {
    "balanced": balanced,
    "skewed": skewed,
    "multiway": multiway,
    "leader_election": leader_election,
}
