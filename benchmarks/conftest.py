"""Shared fixtures for the experiment benchmarks.

Each ``bench_e*.py`` regenerates one experiment (the experiment ↔ claim
wiring is tabulated in DESIGN.md §4), prints the rendered tables to the
terminal (so ``pytest benchmarks/ --benchmark-only`` output is the full
results report) and archives both forms under ``results/``: the classic
``<name>.txt`` render and, for structured :class:`ExperimentResult`
inputs, the round-trippable ``<name>.json`` document next to it.  E7
and E10 also check their claim at paper scale (n = 512) in a second,
untimed test.  The shared writer lives in :mod:`common`
(``benchmarks/common.py``), which also powers the scripts' standalone
``__main__`` paths.
"""

from __future__ import annotations

import pytest

from common import archive
from repro.results import ExperimentResult
from repro.util.tables import Table


@pytest.fixture
def emit(capsys):
    """Print rendered tables unbuffered and archive them to results/."""

    def _emit(name: str, *items: Table | ExperimentResult) -> None:
        text = archive(name, *items)
        with capsys.disabled():
            print()
            print(text)
            print()

    return _emit
