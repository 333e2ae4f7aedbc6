"""Vectorised fast paths for honest(+faulty) executions of Protocol P.

The agent engine (``repro.gossip`` + ``repro.core``) supports arbitrary
deviating strategies but dispatches Python objects per agent per round.
The scaling experiments (E1–E6) need thousands of honest runs at large n,
where nothing strategic happens — so this package simulates the *same*
process with NumPy array operations, orders of magnitude faster:

* :func:`simulate_protocol_fast` — one run, vectorised within the run;
* :func:`simulate_protocol_fast_batch` — B runs in one batched pass
  (trial-axis vectorisation over sufficient statistics, see
  :mod:`repro.fastpath.batch`); the bit-exact ``batch-parity`` tier is
  :func:`simulate_protocol_fast` looped over seeds and stacked with
  :func:`batch_from_runs`;
* :func:`simulate_strategy_fast_batch` — B *paired* honest/deviant runs
  for every registered coalition strategy, compiled from the same plan
  registry as the agent engine (:mod:`repro.fastpath.strategies`).

Each batch result type declares its trial-axis arrays once, in
``ARRAY_FIELDS``: the one schema that the engines, the per-trial tiers
and the shard merge all build records from
(:mod:`repro.util.batches`).

The fastpaths are cross-validated against the agent engine in
``tests/test_fastpath.py`` / ``tests/test_strategy_conformance.py`` and
against each other in ``tests/test_fastpath_batch.py``: identical
invariants, statistically identical outcome distributions, and
message/size accounting within the documented modelling simplifications
(DESIGN.md §2–§3, §5).
"""

from repro.fastpath.batch import (
    FastBatchResult,
    batch_from_runs,
    simulate_protocol_fast_batch,
)
from repro.fastpath.graphs import GraphBatchResult, simulate_graph_fast_batch
from repro.fastpath.simulate import FastRunResult, simulate_protocol_fast
from repro.fastpath.strategies import (
    StrategyBatchResult,
    simulate_strategy_fast_batch,
)

__all__ = [
    "FastBatchResult",
    "FastRunResult",
    "GraphBatchResult",
    "StrategyBatchResult",
    "batch_from_runs",
    "simulate_graph_fast_batch",
    "simulate_protocol_fast",
    "simulate_protocol_fast_batch",
    "simulate_strategy_fast_batch",
]
