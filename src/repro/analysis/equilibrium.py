"""Expected-utility estimation for coalition members (Theorem 7).

The paper's payoff scheme for agent ``u`` supporting color ``c_u``:
``util = 1`` if the outcome is ``c_u``, ``0`` for any other color and
``-chi`` for ⊥ (failure), with ``chi >= 0``.

For a batch of runs, a member's expected utility is::

    E[util] = Pr[outcome = c_u] - chi * Pr[outcome = ⊥]

A deviation is *profitable for the coalition* only if **every** member
strictly gains (Definition 1 requires some member not to improve; we
report per-color utilities so both readings are checkable).  E7 estimates
these quantities for honest play and for each strategy with *paired
seeds* (same root seed for both runs), a classic variance-reduction
device: everything the deviation does not touch is identical between the
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.analysis.stats import wilson_interval

__all__ = ["UtilityEstimate", "estimate_utility", "gain"]


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte-Carlo estimate of one color's utility under one protocol."""

    color: Hashable
    trials: int
    wins: int
    failures: int
    chi: float

    @property
    def win_prob(self) -> float:
        return self.wins / self.trials

    @property
    def fail_prob(self) -> float:
        return self.failures / self.trials

    @property
    def expected_utility(self) -> float:
        return self.win_prob - self.chi * self.fail_prob

    def win_prob_ci(self) -> tuple[float, float]:
        return wilson_interval(self.wins, self.trials)


def estimate_utility(
    outcomes: Sequence[Hashable | None], color: Hashable, chi: float = 1.0
) -> UtilityEstimate:
    """Estimate a supporter-of-``color``'s expected utility from outcomes."""
    if not outcomes:
        raise ValueError("no outcomes")
    wins = sum(1 for o in outcomes if o == color)
    failures = sum(1 for o in outcomes if o is None)
    return UtilityEstimate(
        color=color, trials=len(outcomes), wins=wins,
        failures=failures, chi=chi,
    )


def gain(honest: UtilityEstimate, deviant: UtilityEstimate) -> float:
    """Deviation gain: E[util | deviate] - E[util | honest].

    Theorem 7 says this is <= 0 (w.h.p., for some member) for every
    strategy; the E7 table reports it with confidence intervals.
    """
    if honest.color != deviant.color:
        raise ValueError("estimates compare different colors")
    if honest.chi != deviant.chi:
        raise ValueError("estimates use different chi")
    return deviant.expected_utility - honest.expected_utility
