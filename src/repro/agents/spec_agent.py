"""One deviating agent: Protocol P, departed from where a spec says.

A :class:`SpecAgent` is an :class:`~repro.core.agent.HonestAgent` that
reads its coalition's :class:`~repro.agents.effects.EffectSpec` phase by
phase.  Every registered strategy, and any other spec, runs through this
one class on the agent engine; the strategy fastpath reads the same spec
as tensor effects.  All strategies obey the communication model (the
engine enforces it); they only choose payloads, targets and whether to
reply — the paper's feasible local rules.

The rules by which a member reads its spec:

* **Streams.**  A member draws peers and its intention from the honest
  streams in the honest order.  An equivocator's second intention comes
  from its own ``alt-intention`` stream, and fresh votes from ``switch``
  (the value first, then the target).
* **Exposure.**  A member that answers Commitment pulls records every
  non-member puller on the blackboard; one that does not is never
  exposed.
* **Defences.**  Members run with every defence on, whatever the honest
  agents' ablation: they still pull in Commitment when honest agents do
  not.
* **Find-Min.**  At Find-Min's first round every member builds its own
  certificate, whether or not it pulls.  A forger then holds its
  forgery as its minimum: its own underbid, or the coalition's pooled
  forgery (:meth:`CoalitionState.prepare`).  A forger pulls if its spec
  says so but never adopts.
* **Coherence.**  A member that pushes anything but its honest minimum,
  or holds a forgery, ignores incoming Coherence pushes.
* **Decisions.**  Members run honest Verification on what they hold.
  ``run_protocol`` decides over protocol-following agents only, so a
  member's decision never reaches a result.
"""

from __future__ import annotations

from typing import Hashable

from repro.agents.coalition import CoalitionState, zero_k_certificate
from repro.agents.effects import EffectSpec
from repro.core.agent import TOPIC_CERTIFICATE, TOPIC_INTENTION, HonestAgent
from repro.core.certificate import Certificate, ReceivedVote
from repro.core.params import Phase, ProtocolParams
from repro.core.votes import (
    IntentionPayload,
    PlannedVote,
    VoteIntention,
    VotePayload,
    generate_intention,
)
from repro.gossip.actions import Action, Push
from repro.gossip.messages import NO_REPLY, Payload
from repro.gossip.node import PullResponse
from repro.util.rng import SeedTree

__all__ = ["SpecAgent"]


class SpecAgent(HonestAgent):
    """A coalition member running Protocol P as its spec amends it."""

    def __init__(self, node_id: int, params: ProtocolParams, color: Hashable,
                 seed_tree: SeedTree, shared: CoalitionState,
                 spec: EffectSpec):
        super().__init__(node_id, params, color, seed_tree)
        self.shared = shared
        self.spec = spec
        self.forged: Certificate | None = None
        self.alt_intention: VoteIntention | None = None
        if spec.equivocates:
            self.alt_intention = generate_intention(
                params, seed_tree.child("alt-intention").generator(), node_id
            )
        self._answers = 0
        self._switch_rng = (
            seed_tree.child("switch").generator()
            if spec.fresh_vote_values else None
        )
        if spec.intra_fraction > 0.0:
            self._aim_at_coalition(spec.intra_fraction)
        shared.register(self)

    def _aim_at_coalition(self, fraction: float) -> None:
        """Aim a slice of our votes at fellow members (round-robin).

        Values stay as originally drawn (uniform); only targets change.
        This is legal: intentions are self-chosen, and we declare the
        rewritten intention consistently to every puller.
        """
        others = sorted(self.shared.members - {self.node_id})
        if not others:
            return
        q = self.params.q
        votes = list(self.intention.votes)
        # Stagger the round-robin by our label so coverage is even.
        for slot in range(min(q, max(1, round(q * fraction)))):
            target = others[(slot + self.node_id) % len(others)]
            votes[slot] = PlannedVote(votes[slot].value, target)
        self.intention = VoteIntention(tuple(votes))

    def _forge_own(self, mode: str) -> Certificate:
        """Our own certificate cooked to claim ``k = 0``."""
        m = self.params.m
        votes = self.received_votes
        if mode == "klie":
            # The genuine W under a lie about k (not self-consistent).
            return Certificate(0, self.certificate.votes, self.color,
                               self.node_id)
        if mode == "alter" and votes:
            return zero_k_certificate(votes, 0, self.color, self.node_id, m)
        if mode == "alter":
            # Nothing to rewrite: claim one vote of value 0 from another
            # label (nothing stops a certificate from *claiming* a
            # receipt; that claim is what Verification cross-checks).
            votes = [ReceivedVote(0 if self.node_id != 0 else 1, 0, 0)]
        elif mode == "fabricate":
            voters = [v for v in range(min(3, self.params.n))
                      if v != self.node_id][:2]
            votes = [ReceivedVote(v, r, 0) for r, v in enumerate(voters)]
        else:  # drop_all
            votes = []
        return Certificate.build(votes, self.color, self.node_id, m)

    def _start_find_min(self) -> None:
        self._ensure_certificate()
        if self.spec.forge == "pooled":
            self.shared.prepare(self.spec.pooled_gamble)
            self.forged = self.shared.forged
        elif self.spec.forge is not None:
            self.forged = self._forge_own(self.spec.forge)
        if self.forged is not None:
            self.min_certificate = self.forged

    # -- active behaviour ----------------------------------------------
    def begin_round(self, rnd: int) -> Action | None:
        phase, idx = self.params.phase_of(rnd)
        spec = self.spec
        if phase is Phase.COMMITMENT and not spec.pulls_commitment:
            return None
        if phase is Phase.VOTING:
            if not spec.casts_votes:
                return None
            if self._switch_rng is not None:
                value = int(self._switch_rng.integers(self.params.m))
                target = self.intention[idx].target
                if spec.fresh_vote_targets:
                    target = int(self._switch_rng.integers(self.params.n - 1))
                    if target >= self.node_id:
                        target += 1
                return Push(target, VotePayload(
                    value, self.params.vote_message_bits()))
        if phase is Phase.FIND_MIN:
            if idx == 0:
                self._start_find_min()
            if not spec.pulls_findmin:
                return None
        if phase is Phase.COHERENCE:
            if spec.coherence_push == "none":
                return None
            if spec.coherence_push == "bogus":
                bogus = Certificate.build([], self.color, self.node_id,
                                          self.params.m)
                return Push(self._random_peer(),
                            self._certificate_payload(bogus))
        return super().begin_round(rnd)

    # -- passive behaviour ----------------------------------------------
    def on_pull_request(self, requester: int, topic: str, rnd: int) -> PullResponse:
        phase, _ = self.params.phase_of(rnd)
        if phase is Phase.COMMITMENT and topic == TOPIC_INTENTION:
            if not self.spec.answers_commitment:
                return NO_REPLY  # the puller marks us faulty instead
            self.shared.record_commitment_pull(self.node_id, requester)
            if self.alt_intention is not None:
                self._answers += 1
                if self._answers % 2 == 0:
                    return IntentionPayload(self.alt_intention,
                                            self.params.intention_bits())
        if topic == TOPIC_CERTIFICATE and not self.spec.serves_findmin:
            return NO_REPLY
        return super().on_pull_request(requester, topic, rnd)

    def on_push(self, sender: int, payload: Payload, rnd: int) -> None:
        phase, _ = self.params.phase_of(rnd)
        if phase is Phase.COHERENCE and (
                self.spec.coherence_push != "honest"
                or self.forged is not None):
            return
        super().on_push(sender, payload, rnd)

    def on_pull_reply(self, responder: int, payload: Payload, rnd: int) -> None:
        phase, _ = self.params.phase_of(rnd)
        if phase is Phase.FIND_MIN and self.forged is not None:
            return  # the forgery is our minimum; adopt nothing
        super().on_pull_reply(responder, payload, rnd)
