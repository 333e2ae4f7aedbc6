"""The public API surface: what README promises must import and work."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestTopLevelExports:
    def test_all_names_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart_runs(self):
        from repro import ProtocolConfig, run_protocol

        colors = ["red"] * 60 + ["blue"] * 40
        result = run_protocol(ProtocolConfig(colors=colors, seed=7))
        assert result.outcome in {"red", "blue"}
        assert result.metrics.total_messages > 0

    def test_version_present(self):
        import repro

        assert repro.__version__ == "1.7.1"


class TestImportContract:
    def test_startup_loads_neither_scipy_stats_nor_networkx(self):
        # A fresh interpreter: this test process may already hold both.
        # repro.exec.backends is what the pool's forkserver preloads.
        code = (
            "import sys, repro, repro.cli, repro.exec.backends\n"
            "print(sorted(m for m in ('scipy.stats', 'networkx')"
            " if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": _SRC},
        ).stdout
        assert out.strip() == "[]"

    def test_sampling_loads_no_networkx(self):
        # regular8 samples through the module's own pairing-model port,
        # so no graph family (churn included) needs networkx.
        code = (
            "import sys\n"
            "from repro.extensions.families import (\n"
            "    GRAPH_KINDS, sample_scenario_workload)\n"
            "for scenario in GRAPH_KINDS + ('regular8+churn',):\n"
            "    sample_scenario_workload(scenario, 16, 2, 1010)\n"
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": _SRC},
        ).stdout
        assert out.strip() == "False"


class TestSubpackagesImportClean:
    @pytest.mark.parametrize("module", [
        "repro.gossip", "repro.gossip.primitives",
        "repro.core", "repro.agents", "repro.adversary",
        "repro.baselines", "repro.fastpath", "repro.analysis",
        "repro.analysis.theory",
        "repro.experiments", "repro.experiments.workloads",
        "repro.experiments.registry", "repro.results", "repro.study",
        "repro.extensions", "repro.cli", "repro.util",
        "repro.exec", "repro.exec.plan", "repro.exec.backends",
        "repro.exec.pool", "repro.exec.chaos",
    ])
    def test_import(self, module):
        mod = importlib.import_module(module)
        assert mod is not None

    @pytest.mark.parametrize("module", [
        "repro.gossip", "repro.core", "repro.agents", "repro.adversary",
        "repro.baselines", "repro.fastpath", "repro.analysis",
        "repro.extensions", "repro.util", "repro.exec",
    ])
    def test_package_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestDocstrings:
    @pytest.mark.parametrize("module", [
        "repro", "repro.gossip.engine", "repro.core.agent",
        "repro.core.verification", "repro.agents.spec_agent",
        "repro.fastpath.simulate", "repro.baselines.halpern_vilaca",
    ])
    def test_key_modules_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 100

    def test_public_classes_documented(self):
        from repro.core.agent import HonestAgent
        from repro.core.protocol import ProtocolConfig, run_protocol
        from repro.gossip.engine import GossipEngine

        for obj in (HonestAgent, ProtocolConfig, run_protocol, GossipEngine):
            assert obj.__doc__
