"""The one deviating agent, :class:`SpecAgent`, on the agent engine.

Two safety nets:

* pinned bytes — the ``engine=agent`` payloads of E7 (every registered
  strategy), E8 and E9, and every strategy's observer arrays, hash to
  recorded digests, so a change in what a member draws from its
  streams, in which order, or what it records shows;
* combined specs — a seeded sample of the effect-spec lattice (specs no
  registered strategy expresses) runs to completion, and each member's
  exposure and forgery follow its spec.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from repro.agents.effects import FORGE_MODES, EffectSpec
from repro.agents.plans import STRATEGY_NAMES, StrategyPlan
from repro.agents.spec_agent import SpecAgent
from repro.core.protocol import ProtocolConfig, run_protocol
from repro.experiments.dispatch import run_deviation_trials_fast
from repro.experiments.registry import run_experiment
from repro.experiments.workloads import skewed

#: sha256 of ``payload_json()`` per experiment, on the agent engine.
PAYLOAD_DIGESTS = {
    "e7": ("5d6be77941f6f0cdeeee8cac75f7fcbaf26cac77dd53b4a20d11f6f6c39aeca7",
           dict(n=16, strategies=STRATEGY_NAMES, coalition_sizes=(1, 3),
                trials=2, engine="agent")),
    "e8": ("2ee98f8bfe0d8ff6e4af286c1f3ce841f058eb02f260664f9a1684461b4909ee",
           dict(n=20, trials=2, scaling_n=16, engine="agent")),
    "e9": ("ba50b660012f5c4944dfde2b14cd5ae6835cd573613bedc6ac4249919594e62f",
           dict(n=16, trials=2, engine="agent")),
}


#: sha256 of every registered strategy's observer arrays (``detected``,
#: ``split``, ``forged``, ``exposed_members``), which no payload shows.
ROWS_DIGEST = "cd3da7ebfd2b8f2a792d7cd6940cd9ceb35e9aca0d8f85ed0fada30e7ff34eb6"

N = 16
COLORS = skewed(N, minority=0.25)
BLUES = [i for i, c in enumerate(COLORS) if c == "blue"]


@pytest.mark.parametrize("name", sorted(PAYLOAD_DIGESTS))
def test_agent_engine_payload_bytes(name):
    digest, opts = PAYLOAD_DIGESTS[name]
    payload = run_experiment(name, **opts).payload_json()
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_agent_engine_observer_bytes():
    h = hashlib.sha256()
    for name in STRATEGY_NAMES:
        res = run_deviation_trials_fast(COLORS, [0], name, BLUES[:3],
                                        gamma=2.0, engine="agent")
        for field, _ in res.ARRAY_FIELDS:
            h.update(getattr(res, field).tobytes())
    assert h.hexdigest() == ROWS_DIGEST


_FLAGS = ("pulls_commitment", "answers_commitment", "equivocates",
          "casts_votes", "serves_findmin", "pulls_findmin")


def _lattice() -> list[EffectSpec]:
    """Every spec of 8 flags x 6 forge modes x 3 coherence modes: fresh
    targets only with fresh values, intra-coalition votes only (and
    always) with the pooled forgery, and no gamble."""
    return [
        EffectSpec(
            name="lattice", **dict(zip(_FLAGS, bits)),
            fresh_vote_values=values, fresh_vote_targets=targets,
            intra_fraction=0.5 if forge == "pooled" else 0.0,
            forge=forge, coherence_push=coherence,
        )
        for bits in itertools.product((True, False), repeat=len(_FLAGS))
        for values, targets in ((False, False), (True, False), (True, True))
        for forge in (None, *FORGE_MODES)
        for coherence in ("honest", "none", "bogus")
    ]


SAMPLE = random.Random(0).sample(_lattice(), 24)


def test_sample_reaches_a_member_that_neither_forges_nor_pulls():
    # Such a member still builds its certificate when Find-Min starts,
    # or its honest Coherence push would have nothing to push.
    assert any(
        s.forge is None and not s.pulls_findmin
        and s.coherence_push == "honest" for s in SAMPLE
    )


@pytest.mark.parametrize("index", range(len(SAMPLE)))
def test_combined_spec_runs_as_specified(index):
    spec = SAMPLE[index]
    for t, seed in itertools.product((1, 3), (0, 1)):
        res = run_protocol(ProtocolConfig(
            colors=COLORS, gamma=2.0, seed=seed,
            deviation=StrategyPlan(frozenset(BLUES[:t]), spec),
        ))
        nodes = res.extras["nodes"]
        honest = [a for a in nodes.values() if not isinstance(a, SpecAgent)]
        for member in (a for a in nodes.values() if isinstance(a, SpecAgent)):
            exposure = member.shared.exposure[member.node_id]
            if spec.answers_commitment:
                assert exposure == {
                    a.node_id for a in honest if a.ledger.knows(member.node_id)
                }
            else:
                assert exposure == set()
            if spec.forge is None:
                assert member.forged is None
            elif spec.forge == "pooled":
                assert member.forged is member.shared.forged
            else:
                assert member.forged is not None
