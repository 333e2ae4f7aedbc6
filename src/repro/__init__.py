"""repro — Rational Fair Consensus in the GOSSIP model.

A from-scratch reproduction of Clementi, Gualà, Proietti, Scornavacca,
*Rational Fair Consensus in the GOSSIP Model* (IPDPS 2017,
arXiv:1705.09566): the GOSSIP substrate, Protocol P, a library of
rational deviation strategies, prior-work baselines, and the experiment
harness regenerating every claim of the paper.

Quickstart::

    from repro import ProtocolConfig, run_protocol

    colors = ["red"] * 60 + ["blue"] * 40
    result = run_protocol(ProtocolConfig(colors=colors, seed=7))
    print(result.outcome, result.metrics.total_messages)

See ``examples/`` and README.md for more.
"""

__version__ = "1.7.1"

from repro.core import (
    Certificate,
    Defenses,
    DeviationPlan,
    FULL_DEFENSES,
    FailReason,
    GoodExecutionReport,
    NO_DEFENSES,
    Phase,
    ProtocolConfig,
    ProtocolParams,
    RunResult,
    run_protocol,
)
from repro.exec import ExecutionPlan, run_plan
from repro.experiments.registry import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    iter_experiments,
    run_experiment,
)
from repro.gossip import GossipEngine, MessageMetrics, Node
from repro.results import (
    ExperimentResult,
    ResultMeta,
    ResultSection,
    load_result,
    result_key,
    save_result,
)
from repro.study import Study, StudyCell, StudyResult
from repro.util import SeedTree, Table

__all__ = [
    "Certificate",
    "Defenses",
    "DeviationPlan",
    "ExecutionPlan",
    "ExperimentResult",
    "ExperimentSpec",
    "FULL_DEFENSES",
    "FailReason",
    "GoodExecutionReport",
    "GossipEngine",
    "MessageMetrics",
    "NO_DEFENSES",
    "Node",
    "Phase",
    "ProtocolConfig",
    "ProtocolParams",
    "ResultMeta",
    "ResultSection",
    "RunResult",
    "SeedTree",
    "Study",
    "StudyCell",
    "StudyResult",
    "Table",
    "experiment_names",
    "get_experiment",
    "iter_experiments",
    "load_result",
    "result_key",
    "run_experiment",
    "run_plan",
    "run_protocol",
    "save_result",
    "__version__",
]
