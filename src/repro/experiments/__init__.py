"""The experiment harness: one module per claim of the paper.

Every experiment registers itself via the :func:`experiment` decorator
(binding its options dataclass to its runner) and exposes a
``run(options) -> ExperimentResult``: typed row sections plus run
metadata, whose ``.tables()`` render matches the classic text report
byte-for-byte.  ``results/paper/`` archives every experiment at its
defaults, and ``tests/test_paper_claims.py`` checks each claim against
that archive.  Discover experiments through
:func:`get_experiment`/:func:`iter_experiments`.

===========  ==============================================================
Experiment   Claim
===========  ==============================================================
E1           Theorem 4 — fairness of the winning distribution
E2           Theorem 4 — O(log n) rounds
E3           Theorem 4 — O(log^2 n) message size
E4           headline — o(n^2) messages vs LOCAL baselines
E5           Lemma 3 — good executions happen w.h.p.
E6           Theorem 4 — tolerance of alpha*n worst-case permanent faults
E7           Theorem 7 — whp t-strong equilibrium (deviation gains <= 0)
E8           motivation — undefended baselines are exploitable
E9           ablations — each defence layer is necessary
E10          conclusions — other graphs; sequential GOSSIP
===========  ==============================================================
"""

from repro.experiments import workloads
from repro.experiments.dispatch import (
    AsyncBatchResult,
    run_async_trials_fast,
    run_deviation_trials_fast,
    run_graph_trials_fast,
    run_trials_fast,
)
from repro.experiments.registry import (
    ExperimentSpec,
    experiment,
    experiment_names,
    get_experiment,
    iter_experiments,
    run_experiment,
)

__all__ = [
    "AsyncBatchResult",
    "ExperimentSpec",
    "experiment",
    "experiment_names",
    "get_experiment",
    "iter_experiments",
    "run_async_trials_fast",
    "run_deviation_trials_fast",
    "run_experiment",
    "run_graph_trials_fast",
    "run_trials_fast",
    "workloads",
]
