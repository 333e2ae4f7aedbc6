"""perfbench's layer tracer against the tree it traces.

``perfbench/tracing.py`` wraps entry points of ``src/`` by attribute
name: the plan compilers, ``run_plan``, the kernels, the experiment
registry, the study journal, the result store and more.  perfbench's
own tests run untraced, so a change that renamed one of those
attributes would break every ``--trace 1`` run and nothing else.  This
test installs the tracer, runs an E1 cell and a sharded plan through
it, replays the sharded plan serially and uninstalls, as a traced
perfbench run does.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments.dispatch import run_trials_fast
from repro.experiments.e1_fairness import E1Options
from repro.experiments.registry import run_experiment
from repro.experiments.workloads import balanced

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py``, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr: str):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def test_traced_run_spans_the_layers_and_uninstalls(tracing):
    tracer = tracing.Tracer().install()
    patched = list(tracer._patches)
    try:
        tracer.set_cell("e1")
        run_experiment("e1", E1Options(sizes=(16,), workloads=("balanced",),
                                       trials=4))
        tracer.set_cell("sharded")
        run_trials_fast(balanced(16), list(range(6)), engine="agent",
                        jobs=2)
        tracer.replay_sharded()
    finally:
        tracer.uninstall()

    names = {span.name for span in tracer.spans}
    assert {"experiment.run", "plan.compile", "backend.run_plan",
            "kernel.honest"} <= names
    [sharded] = [run for run in tracer.plans if run.shards > 1]
    assert (sharded.kind, sharded.shards) == ("honest", 2)
    assert sharded.replay_kernel_s is not None
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, attr
