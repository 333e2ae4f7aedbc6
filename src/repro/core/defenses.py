"""Toggleable defence layers of Protocol P (for the ablation study E9).

Protocol P stacks four defences on top of plain min-gossip leader
election; the equilibrium proof (Theorem 7) uses each one:

* ``commitment`` — the Commitment phase itself: without it no agent holds
  any declared intention and Verification has nothing to check;
* ``verify_k`` — check ``k = sum(W) mod m``;
* ``verify_ledger`` — cross-check carried votes against declared
  intentions (catches altered/mistargeted votes and equivocation);
* ``verify_omissions`` — require declared votes for the winner to be
  present (catches vote dropping; Claim 1);
* ``coherence`` — the Coherence phase (catches split-brain certificates).

The full protocol runs with everything enabled (:data:`FULL_DEFENSES`).
Ablations switch layers off to show that each one is necessary: the
attack it guards against then succeeds (E9; its claims are checked in
``tests/test_paper_claims.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Defenses", "FULL_DEFENSES", "NO_DEFENSES"]


@dataclass(frozen=True)
class Defenses:
    commitment: bool = True
    verify_k: bool = True
    verify_ledger: bool = True
    verify_omissions: bool = True
    coherence: bool = True

    def describe(self) -> str:
        off = [
            name
            for name in (
                "commitment",
                "verify_k",
                "verify_ledger",
                "verify_omissions",
                "coherence",
            )
            if not getattr(self, name)
        ]
        return "full" if not off else "without " + "+".join(off)


FULL_DEFENSES = Defenses()
NO_DEFENSES = Defenses(
    commitment=False,
    verify_k=False,
    verify_ledger=False,
    verify_omissions=False,
    coherence=False,
)
