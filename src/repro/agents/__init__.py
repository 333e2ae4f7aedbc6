"""Rational deviation strategies (the coalition's side of Theorem 7).

Theorem 7 quantifies over *every* restricted protocol P'_C of a coalition
C.  A simulation cannot enumerate all strategies, but the proof machinery
identifies exactly the deviation surfaces that could pay off.  Each
registered strategy is one :class:`EffectSpec` in :data:`EFFECT_SPECS`
(which also says why it fails); the agent engine runs it through the one
deviating agent, :class:`SpecAgent`, and the strategy fastpath as tensor
effects.  The same attacks demolish the unverified baseline (see
``repro.baselines``), the positive control.

=========================  ===============================================
Strategy                   Deviation surface / proof ingredient it probes
=========================  ===============================================
``honest_shadow``          None: a coalition that follows P gains nothing.
``silent``                 Full abstention (pretend faulty everywhere);
                           shrinking A never helps a color.
``pretend_faulty``         Ignore Commitment pulls only (footnote 4's
                           faulty-marking) but still vote.
``underbid_alter``,        Lie about ``k`` in Find-Min: underbid with
``_drop``, ``_fabricate``  altered / dropped / fabricated votes, or a
and ``_klie``              bare ``k`` lie (Verification's checks).
``equivocate``             Declare different intentions to different
                           pullers (set-union ledger, Lemma 6.1).
``vote_switch``,           Vote differently than declared: values, or
``vote_switch_targets``    values and targets (alteration/omission).
``griefing``               Split-brain certificates in Coherence
                           (Lemma 6.2); pure sabotage, utility -chi.
``findmin_suppress``       Refuse Find-Min service and Coherence: t
                           extra faults, absorbed by the schedule.
``pooled``,                Adaptive coalition: pool exposure knowledge,
``pooled_gamble``          forge only votes no honest agent can check
                           (Lemma 6 properties 1+3); or gamble.
=========================  ===============================================

``StrategyPlan(members, spec)`` runs any spec, registered or not, on
both tiers; :func:`plan` builds a registered one by name.
"""

from repro.agents.coalition import CoalitionState
from repro.agents.effects import EFFECT_SPECS, EffectSpec
from repro.agents.plans import STRATEGY_NAMES, StrategyPlan, plan
from repro.agents.spec_agent import SpecAgent

__all__ = [
    "CoalitionState",
    "EFFECT_SPECS",
    "EffectSpec",
    "STRATEGY_NAMES",
    "SpecAgent",
    "StrategyPlan",
    "plan",
]
