"""Fairness analysis: is Pr[c wins] the initial active-support fraction?

Theorem 4's fairness property says the winning distribution over colors
equals the distribution of initial support among *active* agents.  Given
a batch of run outcomes we measure:

* the empirical winning distribution (failures tracked separately),
* its total-variation distance from the expected distribution,
* a chi-square goodness-of-fit p-value — "not rejected at 5%" is the
  reproduction criterion E1 reports.  :func:`chi_square_gof`
  computes it from ``scipy.special.chdtrc`` and reproduces
  ``scipy.stats.chisquare`` bit for bit, so importing this module does
  not load ``scipy.stats`` (DESIGN.md §4).

Two entry-point families feed the same measures: the original
outcome-sequence functions, and count-based ones
(``empirical_distribution_from_counts`` / ``chi_square_from_counts``)
that consume the win tallies a :class:`repro.fastpath.FastBatchResult`
produces with one ``bincount`` — so batched experiments never build
per-trial Python objects on the hot path.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import chdtrc

__all__ = [
    "chi_square_fairness",
    "chi_square_from_counts",
    "chi_square_gof",
    "empirical_distribution",
    "empirical_distribution_from_counts",
    "expected_distribution",
    "fail_rate",
    "total_variation",
]


def expected_distribution(
    colors: Sequence[Hashable], active: Iterable[int] | None = None
) -> dict[Hashable, float]:
    """Initial support fractions among active agents (the fairness target)."""
    if active is None:
        pool = list(colors)
    else:
        pool = [colors[i] for i in active]
    if not pool:
        raise ValueError("no active agent")
    counts = Counter(pool)
    total = len(pool)
    return {c: counts[c] / total for c in counts}


def empirical_distribution(
    outcomes: Iterable[Hashable | None],
) -> dict[Hashable, float]:
    """Winning frequencies over *successful* runs (⊥ excluded)."""
    return empirical_distribution_from_counts(
        Counter(o for o in outcomes if o is not None)
    )


def empirical_distribution_from_counts(
    counts: Mapping[Hashable, int],
) -> dict[Hashable, float]:
    """Winning frequencies from per-color win tallies (e.g.
    ``FastBatchResult.winning_counts()``)."""
    total = sum(counts.values())
    if total == 0:
        return {}
    return {c: k / total for c, k in counts.items() if k > 0}


def fail_rate(outcomes: Sequence[Hashable | None]) -> float:
    """Fraction of runs that ended in ⊥."""
    if not outcomes:
        raise ValueError("no outcomes")
    return sum(1 for o in outcomes if o is None) / len(outcomes)


def total_variation(
    p: Mapping[Hashable, float], q: Mapping[Hashable, float]
) -> float:
    """Total-variation distance between two color distributions.

    Keys are summed in a sorted order: set iteration follows the string
    hash seed, and float summation is not associative, so an unordered
    sum makes the last ulp of the result differ from process to process
    — which the byte-identical result-JSON contract (DESIGN.md §9)
    cannot tolerate.
    """
    keys = sorted(set(p) | set(q), key=repr)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def chi_square_fairness(
    outcomes: Sequence[Hashable | None],
    expected: Mapping[Hashable, float],
) -> tuple[float, float]:
    """Chi-square GoF of winning outcomes against expected fractions."""
    return chi_square_from_counts(
        Counter(o for o in outcomes if o is not None), expected
    )


def chi_square_from_counts(
    counts: Mapping[Hashable, int],
    expected: Mapping[Hashable, float],
) -> tuple[float, float]:
    """Chi-square GoF of per-color win tallies against expected fractions.

    Returns ``(statistic, p-value)``.  Colors with expected probability 0
    must not win (if one does, returns ``(inf, 0.0)``); categories are the
    support of ``expected``.
    """
    counts = {c: k for c, k in counts.items() if k > 0}
    if not counts:
        raise ValueError("no successful runs to test")
    unexpected = set(counts) - set(expected)
    if unexpected or any(
        counts.get(c, 0) > 0 and expected[c] == 0.0 for c in expected
    ):
        return float("inf"), 0.0
    categories = sorted(expected, key=repr)
    observed = [counts.get(c, 0) for c in categories]
    probs = [expected[c] for c in categories]
    total = sum(observed)
    exp_counts = [p * total for p in probs]
    # Drop zero-expected categories (the test needs positive expectations).
    pairs = [(o, e) for o, e in zip(observed, exp_counts) if e > 0]
    obs, exp = zip(*pairs)
    return chi_square_gof(obs, exp)


def chi_square_gof(
    observed: Sequence[float], expected: Sequence[float]
) -> tuple[float, float]:
    """Pearson's chi-square goodness of fit: ``(statistic, p-value)``.

    The statistic is summed in float64 and the p-value is the upper tail
    of chi-square with ``len(observed) - 1`` degrees of freedom, as
    ``scipy.stats.chisquare(observed, expected)`` computes them, bit for
    bit (``tests/test_scipy_parity.py``).  Like scipy, it raises
    ``ValueError`` when the two sums differ by more than ``sqrt(eps)``
    relative to the smaller one; one category gives a NaN p-value.
    """
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    obs_sum, exp_sum = obs.sum(), exp.sum()
    rtol = np.finfo(np.float64).eps ** 0.5
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_diff = abs(obs_sum - exp_sum) / min(obs_sum, exp_sum)
    if rel_diff > rtol:
        raise ValueError(
            f"observed and expected sums differ: {obs_sum} vs {exp_sum} "
            f"(relative difference {rel_diff} > {rtol})"
        )
    stat = ((obs - exp) ** 2 / exp).sum()
    return float(stat), float(chdtrc(obs.size - 1, stat))
