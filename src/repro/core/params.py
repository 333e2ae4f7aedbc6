"""Protocol parameters and the fixed round schedule.

Algorithm 1 is parameterised by the network size ``n`` and the constant
``gamma`` (the paper's γ, chosen as a function of the fault-tolerance
parameter α).  Derived quantities:

* ``m = n^3`` — the vote value domain; chosen so that all ``k_u`` are
  distinct w.h.p. (Lemma 3.2);
* ``q = ceil(gamma * log2 n)`` — the length, in rounds, of each
  communication phase.  The paper writes ``γ log n``; we fix base 2 and
  absorb the base change into γ (documented in DESIGN.md §6);
* a fixed schedule of four communication phases of ``q`` rounds each
  (Voting-Intention and Verification are local computations and consume
  no rounds), so a run lasts exactly ``4q = O(log n)`` rounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from repro.util.bits import bits_for_range, label_bits, round_index_bits, vote_bits

__all__ = ["Phase", "ProtocolParams"]


class Phase(enum.Enum):
    """The four communication phases of Algorithm 1, in schedule order."""

    COMMITMENT = "commitment"
    VOTING = "voting"
    FIND_MIN = "find_min"
    COHERENCE = "coherence"


_PHASE_ORDER = (Phase.COMMITMENT, Phase.VOTING, Phase.FIND_MIN, Phase.COHERENCE)


@dataclass(frozen=True)
class ProtocolParams:
    """Immutable parameters of one protocol instance.

    Parameters
    ----------
    n:
        Number of agents (labels ``0 .. n-1``).
    gamma:
        Phase-length constant γ; each phase lasts ``ceil(gamma * log2 n)``
        rounds.  Larger γ tolerates more faults (Lemma 3 / Lemma 6 choose
        γ = γ(α)) at the cost of proportionally more rounds.
    num_colors:
        Size of the color space Σ used only for bit accounting; defaults
        to ``n`` (the fair-leader-election case, the largest sensible Σ).
    """

    n: int
    gamma: float = 3.0
    num_colors: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 agents, got n={self.n}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(
                f"gamma must be finite and > 0, got {self.gamma!r}"
            )
        if self.num_colors is not None and self.num_colors < 1:
            raise ValueError(f"num_colors must be >= 1, got {self.num_colors}")

    # -- derived quantities -------------------------------------------------
    @cached_property
    def m(self) -> int:
        """Vote value domain size, the paper's ``m = n^3``."""
        return self.n ** 3

    @cached_property
    def q(self) -> int:
        """Rounds per communication phase, ``ceil(gamma * log2 n)``."""
        return max(1, math.ceil(self.gamma * math.log2(self.n)))

    @property
    def total_rounds(self) -> int:
        """Total communication rounds of one run (four phases of q)."""
        return 4 * self.q

    # -- schedule -----------------------------------------------------------
    def phase_of(self, rnd: int) -> tuple[Phase, int]:
        """Map a global round number to (phase, index within phase)."""
        if not 0 <= rnd < self.total_rounds:
            raise ValueError(
                f"round {rnd} outside schedule [0, {self.total_rounds})"
            )
        return _PHASE_ORDER[rnd // self.q], rnd % self.q

    def phase_range(self, phase: Phase) -> range:
        """Global round numbers belonging to ``phase``."""
        i = _PHASE_ORDER.index(phase)
        return range(i * self.q, (i + 1) * self.q)

    # -- bit-size model -----------------------------------------------------
    @property
    def label_bits(self) -> int:
        return label_bits(self.n)

    @property
    def vote_bits(self) -> int:
        return vote_bits(self.m)

    @property
    def round_bits(self) -> int:
        return round_index_bits(self.q)

    @property
    def color_bits(self) -> int:
        return bits_for_range(self.num_colors if self.num_colors else self.n)

    def intention_bits(self) -> int:
        """Encoded size of a vote-intention list ``H_u`` (q votes)."""
        return self.q * (self.vote_bits + self.label_bits)

    def vote_message_bits(self) -> int:
        """Encoded size of a single vote push (one value in [m])."""
        return self.vote_bits

    def certificate_bits(self, num_votes: int) -> int:
        """Encoded size of a certificate carrying ``num_votes`` votes.

        ``k`` plus the vote list (voter label, round index, value each)
        plus color and owner label.  With Theta(log n) votes this is the
        Theorem 4 ``O(log^2 n)`` quantity.
        """
        per_vote = self.label_bits + self.round_bits + self.vote_bits
        return (
            self.vote_bits          # k lives in [m]
            + num_votes * per_vote  # W
            + self.color_bits       # c
            + self.label_bits       # owner
        )
