"""Behavioural tests for the remaining strategies (suppress, target
switching, fabrication) and coalition-blackboard mechanics."""

from __future__ import annotations

from repro.agents.plans import plan
from repro.agents.spec_agent import SpecAgent
from repro.core.protocol import ProtocolConfig, run_protocol
from tests.conftest import two_color_split


def run_with(strategy, members, seed=0, n=48, gamma=2.5):
    colors = two_color_split(n, 0.75)
    blues = [i for i, c in enumerate(colors) if c == "blue"]
    chosen = frozenset(blues[: members])
    return run_protocol(ProtocolConfig(
        colors=colors, gamma=gamma, seed=seed,
        deviation=plan(strategy, chosen),
    ))


class TestFindMinSuppression:
    def test_network_converges_despite_suppressors(self):
        # t = o(n/log n) suppressors are indistinguishable from extra
        # faults; the schedule absorbs them.
        ok = sum(run_with("findmin_suppress", 4, seed=s).succeeded
                 for s in range(6))
        assert ok == 6

    def test_suppressors_never_fail_the_network(self):
        for s in range(4):
            res = run_with("findmin_suppress", 4, seed=s)
            assert res.failed_agents == ()

    def test_win_distribution_not_biased(self):
        # Suppression cannot make blue win beyond its fair share; over a
        # few runs blue must not sweep.
        wins = sum(run_with("findmin_suppress", 4, seed=s).outcome == "blue"
                   for s in range(8))
        assert wins <= 5


class TestVoteSwitchTargets:
    def test_target_switching_detected_or_neutral(self):
        # Switching targets triggers VOTE_OMITTED at the declared target's
        # certificate whenever that certificate wins; otherwise neutral.
        fails = wins = 0
        for s in range(6):
            res = run_with("vote_switch_targets", 1, seed=s)
            fails += res.outcome is None
            wins += res.outcome == "blue"
        assert wins <= 2  # no systematic gain


class TestFabricatedCertificates:
    def test_fabricated_votes_never_survive(self):
        for s in range(4):
            res = run_with("underbid_fabricate", 1, seed=s)
            assert res.outcome is None  # always detected


class TestCoalitionBlackboard:
    def test_members_register_and_share(self):
        res = run_with("pooled", 3, seed=1)
        nodes = res.extras["nodes"]
        members = [a for a in nodes.values() if isinstance(a, SpecAgent)]
        shared = members[0].shared
        assert all(m.shared is shared for m in members)
        assert set(shared.agents) == {m.node_id for m in members}

    def test_most_common_color_is_blue(self):
        res = run_with("pooled", 3, seed=2)
        nodes = res.extras["nodes"]
        shared = next(a for a in nodes.values()
                      if isinstance(a, SpecAgent)).shared
        assert shared.most_common_color() == "blue"
        assert all(shared.agents[m].color == "blue" for m in shared.members)

    def test_intra_coalition_votes_rewired(self):
        res = run_with("pooled", 3, seed=3)
        nodes = res.extras["nodes"]
        members = {a.node_id: a for a in nodes.values()
                   if isinstance(a, SpecAgent)}
        assert len(members) == 3
        for m in members.values():
            intra = [pv for pv in m.intention if pv.target in members]
            assert intra  # every member aims some votes at the coalition
            assert all(pv.target != m.node_id for pv in m.intention)
