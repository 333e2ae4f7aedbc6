"""Shared coalition state.

Members of a coalition may coordinate arbitrarily outside the network
(that is exactly what a t-*strong* equilibrium must resist), so they
share a :class:`CoalitionState`: a blackboard carrying membership, the
members themselves, what they observed and the pooled forgery.

*Exposure* is the observation every strategy can use: which members
have been pulled by a non-member during the Commitment phase.  An
exposed member's declared intention sits in at least one honest ledger
and can no longer be contradicted safely; Lemma 6.1 says w.h.p. every
agent is exposed, which is precisely what makes forgery unprofitable.

The pooled attack plays Theorem 7's proof against the protocol with
:meth:`CoalitionState.prepare`: once every member's ``W`` is complete,
it rewrites a vote that a fellow member sent while *unexposed* (no
honest ledger can contradict it) so the receiving member's ``k`` is 0 —
an undetectable win.  When every member is exposed it plays honest,
unless it gambles on an honest vote's sender being unpulled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

from repro.core.certificate import Certificate, ReceivedVote, compute_k
from repro.core.params import ProtocolParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.agents.spec_agent import SpecAgent

__all__ = ["CoalitionState", "zero_k_certificate"]


def zero_k_certificate(votes: Sequence[ReceivedVote], index: int,
                       color: Hashable, owner: int, m: int) -> Certificate:
    """A self-consistent certificate over ``votes`` with the value of
    ``votes[index]`` rewritten so that ``k = 0``."""
    votes = list(votes)
    old = votes[index]
    votes[index] = ReceivedVote(
        old.voter, old.round_index, (old.value - compute_k(votes, m)) % m
    )
    return Certificate.build(votes, color, owner, m)


class CoalitionState:
    """Blackboard shared by all members of one coalition, one run."""

    def __init__(self, params: ProtocolParams, members: frozenset[int]):
        self.params = params
        self.members = members
        self.agents: dict[int, "SpecAgent"] = {}
        # member -> labels of non-members that pulled it in Commitment
        self.exposure: dict[int, set[int]] = {m: set() for m in members}
        # The pooled forgery, settled once by prepare().
        self.prepared = False
        self.forged: Certificate | None = None
        self.designated: int | None = None

    def register(self, agent: "SpecAgent") -> None:
        """Called by each member agent at construction."""
        self.agents[agent.node_id] = agent

    def record_commitment_pull(self, member: int, requester: int) -> None:
        if requester not in self.members:
            self.exposure[member].add(requester)

    def exposed(self, member: int) -> bool:
        """Has any non-member pulled this member's intention?"""
        return bool(self.exposure[member])

    def most_common_color(self) -> object | None:
        """The colour most members support (first seen by label wins a
        tie), or ``None`` before any member registered."""
        colors = [self.agents[m].color for m in sorted(self.agents)]
        return max(colors, key=colors.count) if colors else None

    def prepare(self, gamble: bool) -> None:
        """Pick a designated winner and forge, or decide to play honest.

        Called by every member at Find-Min's first round; the first call
        decides, when every member's ``W`` is complete.  Members that
        support the coalition's main colour are designated first.
        """
        if self.prepared:
            return
        self.prepared = True
        preferred = self.most_common_color()
        candidates = sorted(
            self.agents.values(),
            key=lambda a: (a.color != preferred, a.node_id),
        )
        for agent in candidates:
            for i, vote in enumerate(agent.received_votes):
                if vote.voter in self.members and not self.exposed(vote.voter):
                    self._forge(agent, i)
                    return
        if gamble:
            # Alter an honest vote and hope its sender was pulled by
            # nobody.  Loses w.h.p. (-> protocol failure).
            for agent in candidates:
                if agent.received_votes:
                    self._forge(agent, 0)
                    return
        # Every member is exposed: play honest (the rational fallback;
        # Lemma 6.1 is what forces it w.h.p.).

    def _forge(self, agent: "SpecAgent", index: int) -> None:
        self.forged = zero_k_certificate(
            agent.received_votes, index, agent.color, agent.node_id,
            self.params.m,
        )
        self.designated = agent.node_id
