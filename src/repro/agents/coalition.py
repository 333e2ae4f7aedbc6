"""Shared coalition state.

Members of a coalition may coordinate arbitrarily outside the network
(that is exactly what a t-*strong* equilibrium must resist), so strategies
share a :class:`CoalitionState`: a blackboard carrying membership, shared
randomness and whatever observations a concrete strategy pools.

The base state tracks the observation every strategy needs: *exposure* —
which members have been pulled by a non-member during the Commitment
phase.  An exposed member's declared intention sits in at least one honest
ledger and can no longer be contradicted safely; Lemma 6.1 says w.h.p.
every agent is exposed, which is precisely what makes forgery unprofitable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.params import ProtocolParams
from repro.util.rng import SeedTree

if TYPE_CHECKING:  # pragma: no cover
    from repro.agents.base import DeviantAgent

__all__ = ["CoalitionState"]


class CoalitionState:
    """Blackboard shared by all members of one coalition, one run."""

    def __init__(self, params: ProtocolParams, members: frozenset[int],
                 tree: SeedTree):
        self.params = params
        self.members = members
        self.tree = tree
        self.rng = tree.child("shared").generator()
        self.agents: dict[int, "DeviantAgent"] = {}
        # member -> labels of non-members that pulled it in Commitment
        self.exposure: dict[int, set[int]] = {m: set() for m in members}

    # -- registration -------------------------------------------------------
    def register(self, agent: "DeviantAgent") -> None:
        """Called by each member agent at construction."""
        self.agents[agent.node_id] = agent

    # -- observations ---------------------------------------------------------
    def record_commitment_pull(self, member: int, requester: int) -> None:
        if requester not in self.members:
            self.exposure[member].add(requester)

    def exposed(self, member: int) -> bool:
        """Has any non-member pulled this member's intention?"""
        return bool(self.exposure[member])

    # -- conveniences ---------------------------------------------------------
    def coalition_colors(self) -> list[object]:
        """Colors supported by members (by label order)."""
        return [self.agents[m].color for m in sorted(self.agents)]

    def most_common_color(self) -> object | None:
        colors = self.coalition_colors()
        if not colors:
            return None
        counts: dict[object, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        return max(counts, key=lambda c: (counts[c],))

    def members_supporting(self, color: object) -> list[int]:
        return sorted(
            m for m, a in self.agents.items() if a.color == color
        )
