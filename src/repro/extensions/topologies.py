"""Protocol P on non-complete graphs (open problem 1).

The protocol text assumes the complete graph: peers are sampled u.a.r.
from ``[n]``.  The natural generalisation samples u.a.r. *neighbours*
instead — both for the protocol's pulls/pushes and for the vote-intention
targets.  :class:`GraphAgent` does exactly that; everything else
(certificates, verification, schedule) is unchanged.

What degrades, and why (measured in E10):

* **Termination**: Find-Min becomes pull-broadcast on the graph; its
  convergence time is governed by conductance, so the fixed O(log n)
  schedule fails on poorly-connected graphs (rings need Theta(n)).
* **Fairness**: an agent's ``k_u`` is uniform only if it receives at
  least one vote.  Isolated or low-degree vertices may receive none,
  giving them ``k = 0`` — on sparse Erdős–Rényi graphs below the
  connectivity threshold this visibly skews the election.

This module is the *reference tier* for graph-restricted runs: the
batched CSR simulator (:mod:`repro.fastpath.graphs`) reproduces its
per-trial observables bit-exactly in seed-parity mode
(``tests/test_graph_conformance.py``) and carries the E10 Monte-Carlo
load; this engine remains the ground truth and the only tier that can
host deviating agents on graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from repro.core.agent import HonestAgent
from repro.core.params import ProtocolParams
from repro.core.votes import PlannedVote, VoteIntention
from repro.gossip.engine import GossipEngine
from repro.gossip.node import FaultyNode, Node
from repro.util.rng import SeedTree

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["GraphAgent", "GraphRunResult", "run_graph_protocol"]


class GraphAgent(HonestAgent):
    """Honest Protocol-P agent restricted to a neighbour set."""

    def __init__(self, node_id: int, params: ProtocolParams, color: Hashable,
                 seed_tree: SeedTree, neighbors: Sequence[int]):
        super().__init__(node_id, params, color, seed_tree)
        if not neighbors:
            raise ValueError(f"agent {node_id} has no neighbours")
        self.neighbors = sorted(neighbors)
        # Redraw the vote intention over neighbours (a dedicated named
        # stream keeps the draw reproducible given the seed tree).
        rng = seed_tree.child("graph-intention").generator()
        values = rng.integers(params.m, size=params.q)
        targets = rng.integers(len(self.neighbors), size=params.q)
        self.intention = VoteIntention(tuple(
            PlannedVote(int(v), self.neighbors[int(t)])
            for v, t in zip(values, targets)
        ))

    def _random_peer(self) -> int:
        return self.neighbors[int(self._peer_rng.integers(len(self.neighbors)))]


@dataclass
class GraphRunResult:
    """Outcome of one graph-restricted run."""

    outcome: Hashable | None
    winner: int | None
    decisions: Mapping[int, Hashable | None]
    zero_vote_agents: int
    split: bool  # agreement violated without detected failure
    failed_agents: int


def run_graph_protocol(
    graph: nx.Graph,
    colors: Sequence[Hashable],
    gamma: float = 3.0,
    seed: int = 0,
    faulty: frozenset[int] = frozenset(),
) -> GraphRunResult:
    """Run Protocol P with neighbour-restricted gossip on ``graph``.

    Nodes must be labelled ``0..n-1``; isolated active vertices are
    rejected (they cannot gossip at all).
    """
    n = len(colors)
    if set(graph.nodes) != set(range(n)):
        raise ValueError("graph nodes must be exactly 0..n-1")
    params = ProtocolParams(n=n, gamma=gamma, num_colors=len(set(colors)))
    tree = SeedTree(seed)

    nodes: dict[int, Node] = {}
    for i in range(n):
        if i in faulty:
            nodes[i] = FaultyNode(i)
        else:
            nodes[i] = GraphAgent(
                i, params, colors[i], tree.child("agent", i),
                neighbors=list(graph.neighbors(i)),
            )
    engine = GossipEngine(nodes)
    engine.run(params.total_rounds)
    engine.finalize()

    agents = [
        nodes[i] for i in range(n) if i not in faulty
    ]
    decisions = {a.node_id: a.decision for a in agents}  # type: ignore[union-attr]
    distinct = set(decisions.values())
    failed = sum(1 for a in agents if a.failed)  # type: ignore[union-attr]
    zero_votes = sum(
        1 for a in agents if not a.received_votes  # type: ignore[union-attr]
    )

    if len(distinct) == 1 and None not in distinct:
        outcome: Hashable | None = next(iter(distinct))
        winners = {a.min_certificate.owner for a in agents  # type: ignore[union-attr]
                   if a.min_certificate is not None}
        winner = winners.pop() if len(winners) == 1 else None
        split = False
    else:
        outcome, winner = None, None
        # "split": several colors decided and nobody noticed (no ⊥ vote)
        split = None not in distinct and len(distinct) > 1

    return GraphRunResult(
        outcome=outcome,
        winner=winner,
        decisions=decisions,
        zero_vote_agents=zero_votes,
        split=split,
        failed_agents=failed,
    )
