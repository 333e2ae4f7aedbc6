"""Declarative effect specs: the one definition of each strategy.

An :class:`EffectSpec` records which protocol obligations a coalition
honours (answering Commitment pulls, casting the declared votes, serving
Find-Min, pushing in Coherence) and which forgery it attempts.  Both
simulation tiers run a strategy from its spec alone:

* the message-level agent engine (tier 1) through
  :class:`~repro.agents.spec_agent.SpecAgent`, which departs from
  Protocol P exactly where the spec says, and
* the strategy fastpath (:mod:`repro.fastpath.strategies`, tier 3) as
  vectorised effects on the batched trial tensors.

:data:`EFFECT_SPECS` is the strategy registry: a map from each
registered name to its spec, with the reason it fails next to it.  The
cross-tier conformance matrix (``tests/test_strategy_conformance.py``)
holds the two tiers to the same verdicts on every registered strategy.

The spec describes *intent*; the detection machinery (which verifier
fails, Lemma 6's exposure event for the pooled attack) is derived from
the actual message flow by the agent engine and from the sampled
pull/vote tensors by the strategy fastpath.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EffectSpec", "EFFECT_SPECS", "FORGE_MODES"]

#: ``EffectSpec.forge`` values besides ``None``: the four own-certificate
#: underbids, then the coalition's pooled forgery.
FORGE_MODES = ("alter", "drop_all", "fabricate", "klie", "pooled")


@dataclass(frozen=True)
class EffectSpec:
    """How coalition members deviate, phase by phase.

    Commitment
    ----------
    ``pulls_commitment``
        Member initiates its own Commitment pulls (accounting + ledger
        building; a member's ledger never matters for the outcome).
    ``answers_commitment``
        ``False`` makes every puller mark the member faulty (footnote 4)
        and expect zero votes from it.
    ``equivocates``
        Answer pulls with two alternating intention versions (A first);
        votes follow version A.

    Voting
    ------
    ``casts_votes``
        ``False`` drops all of the member's vote pushes.
    ``fresh_vote_values`` / ``fresh_vote_targets``
        Push freshly drawn values / values and targets instead of the
        declared ones (the vote-switch family); fresh targets need
        fresh values.
    ``intra_fraction``
        Fraction of the member's votes re-aimed at fellow members
        round-robin (the pooled attack's pre-coordination); targets are
        rewritten *and declared consistently*.

    Find-Min / forgery
    ------------------
    ``forge``
        ``None`` for honest certificates, or one of the underbid modes
        (``alter`` / ``drop_all`` / ``fabricate`` / ``klie``) applied by
        every member to its own certificate, or ``pooled`` for the
        adaptive exposure-gated coalition forgery (Lemma 6).
    ``pooled_gamble``
        Pooled fallback: when every member is exposed, recklessly alter
        an honest vote instead of playing honest.
    ``serves_findmin``
        ``False``: certificate pulls aimed at the member time out.
    ``pulls_findmin``
        ``False``: the member initiates no Find-Min pulls (its own
        adoption never affects honest agents either way; forgers pull
        but never adopt).

    Coherence
    ---------
    ``coherence_push``
        ``"honest"`` — push the member's current minimum (which is the
        forged certificate when one exists); ``"none"`` — stay silent;
        ``"bogus"`` — push a fresh empty k=0 certificate (griefing).
    """

    name: str
    # Commitment
    pulls_commitment: bool = True
    answers_commitment: bool = True
    equivocates: bool = False
    # Voting
    casts_votes: bool = True
    fresh_vote_values: bool = False
    fresh_vote_targets: bool = False
    intra_fraction: float = 0.0
    # Find-Min
    forge: str | None = None
    pooled_gamble: bool = False
    serves_findmin: bool = True
    pulls_findmin: bool = True
    # Coherence
    coherence_push: str = "honest"

    def __post_init__(self) -> None:
        if self.coherence_push not in ("honest", "none", "bogus"):
            raise ValueError(
                f"unknown coherence_push {self.coherence_push!r}"
            )
        if self.forge is not None and self.forge not in FORGE_MODES:
            raise ValueError(f"unknown forge mode {self.forge!r}")
        if not 0.0 <= self.intra_fraction <= 1.0:
            raise ValueError("intra_fraction must lie in [0, 1]")
        if self.fresh_vote_targets and not self.fresh_vote_values:
            raise ValueError(
                "fresh_vote_targets needs fresh_vote_values: a member "
                "that switches targets pushes fresh values too"
            )


#: The strategy registry: one spec per registered name.  Each comment
#: says why the strategy cannot pay (the Lemma 6 ingredient and the
#: defence that stops it); E7 measures it.
EFFECT_SPECS: dict[str, EffectSpec] = {
    # A coalition that follows P: undetectable, and gains nothing.
    "honest_shadow": EffectSpec(name="honest_shadow"),
    # Full abstention, indistinguishable from crashed nodes (the paper's
    # "pretend to be faulty").  It shrinks A to A \ C, so each colour wins
    # with its support among the rest: abstention never raises a
    # member's colour unless every active agent supports it already.
    "silent": EffectSpec(
        name="silent",
        pulls_commitment=False, answers_commitment=False,
        casts_votes=False, serves_findmin=False, pulls_findmin=False,
        coherence_push="none",
    ),
    # Dodge the commitment, keep voting.  Every puller marks the member
    # faulty and expects no votes from it, so a winning certificate that
    # carries one of its votes is rejected (VOTE_FROM_FAULTY); votes that
    # reach only losing certificates change nothing (Lemma 6.3).
    "pretend_faulty": EffectSpec(
        name="pretend_faulty", answers_commitment=False,
    ),
    # Underbid Find-Min with a forged k = 0 certificate.  ``alter``
    # rewrites one received vote so the sum is 0: VOTE_ALTERED at any
    # verifier that pulled its sender (Lemma 6.1 makes that near-sure).
    "underbid_alter": EffectSpec(name="underbid_alter", forge="alter"),
    # ``drop_all`` presents an empty W: VOTE_OMITTED at any verifier that
    # pulled an agent who declared a vote for the forger (Claim 1).
    "underbid_drop": EffectSpec(name="underbid_drop", forge="drop_all"),
    # ``fabricate`` invents a W from scratch: the ledger checks refute the
    # invented votes, and the omission check the dropped real ones.
    "underbid_fabricate": EffectSpec(
        name="underbid_fabricate", forge="fabricate",
    ),
    # ``klie`` claims k = 0 over the genuine W: the k = sum(W) mod m check
    # alone catches it, so E9's verify_k ablation re-opens it.  Against
    # the unverified baseline every underbid wins (E8).
    "underbid_klie": EffectSpec(name="underbid_klie", forge="klie"),
    # Two intentions to different pullers.  The ledger is a set union
    # (Lemma 6.1): a verifier that heard both versions, or only the one
    # the member does not vote, refutes its votes in a winning
    # certificate; if they never win, the deviation was pointless.
    "equivocate": EffectSpec(name="equivocate", equivocates=True),
    # Declare honestly, vote fresh values: k stays uniform (an honest
    # vote the member cannot see is still added, Lemma 6.3), and a
    # winning certificate carrying a switched vote fails VOTE_ALTERED.
    "vote_switch": EffectSpec(name="vote_switch", fresh_vote_values=True),
    # Fresh targets as well: VOTE_OMITTED at the declared target too.
    "vote_switch_targets": EffectSpec(
        name="vote_switch_targets",
        fresh_vote_values=True, fresh_vote_targets=True,
    ),
    # Split-brain certificates in Coherence (Lemma 6.2): sabotage works
    # (every receiver fails) but never pays, since util(⊥) = -chi.
    "griefing": EffectSpec(name="griefing", coherence_push="bogus"),
    # Go dark for Find-Min and Coherence.  With t = o(n / log n) members
    # this is t extra faults, which the pull-broadcast schedule absorbs
    # (Lemma 3.3): no failure, and the winning distribution holds.
    "findmin_suppress": EffectSpec(
        name="findmin_suppress",
        serves_findmin=False, pulls_findmin=False, coherence_push="none",
    ),
    # The adaptive coalition: aim half its votes at fellow members, then
    # forge only a vote whose sender no honest agent pulled, else play
    # honest.  It wins only when a member is unexposed, which decays as
    # n^-Theta(gamma) (Lemma 6 property 1); E9's low-gamma and
    # no-Commitment rows re-open that window.
    "pooled": EffectSpec(name="pooled", forge="pooled", intra_fraction=0.5),
    # Reckless fallback: alter an honest vote when every member is
    # exposed, betting its sender went unpulled; it loses w.h.p.
    "pooled_gamble": EffectSpec(
        name="pooled_gamble", forge="pooled", intra_fraction=0.5,
        pooled_gamble=True,
    ),
}
