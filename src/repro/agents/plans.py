"""Deviation plans: bind a coalition to a strategy's effect spec.

A :class:`StrategyPlan` implements the
:class:`repro.core.protocol.DeviationPlan` protocol: it owns the member
set and the :class:`~repro.agents.effects.EffectSpec`, builds the shared
blackboard once per run, and one :class:`~repro.agents.spec_agent.
SpecAgent` per member.  The batched strategy engine
(:mod:`repro.fastpath.strategies`) reads the same two fields, so
``StrategyPlan(members, spec)`` runs any spec on both tiers.  The
:func:`plan` factory builds a registered strategy's plan by name — the
experiment harness and benchmarks select strategies by these names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.agents.coalition import CoalitionState
from repro.agents.effects import EFFECT_SPECS, EffectSpec
from repro.agents.spec_agent import SpecAgent
from repro.core.params import ProtocolParams
from repro.gossip.node import Node
from repro.util.rng import SeedTree

__all__ = ["StrategyPlan", "plan", "STRATEGY_NAMES"]

STRATEGY_NAMES = tuple(sorted(EFFECT_SPECS))


@dataclass(frozen=True)
class StrategyPlan:
    """A coalition and its spec, satisfying ``DeviationPlan``."""

    members: frozenset[int]
    effects: EffectSpec

    @property
    def name(self) -> str:
        return self.effects.name

    def build_shared(self, params: ProtocolParams, tree: SeedTree) -> object:
        return CoalitionState(params, self.members)

    def build_agent(self, node_id: int, params: ProtocolParams,
                    color: Hashable, tree: SeedTree, shared: object) -> Node:
        return SpecAgent(node_id, params, color, tree, shared, self.effects)


def plan(strategy: str, members: frozenset[int] | set[int]) -> StrategyPlan:
    """Build the named strategy's plan for the given coalition."""
    try:
        spec = EFFECT_SPECS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; known: {', '.join(STRATEGY_NAMES)}"
        ) from None
    return StrategyPlan(frozenset(members), spec)
