"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.util.rng import SeedTree


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: heavyweight suites (cross-tier conformance matrix, "
        "experiment smoke tests, the speed bars); CI's fast job "
        "deselects them with -m 'not slow', tier 1 and the nightly "
        "full job run everything",
    )


@pytest.fixture
def params16() -> ProtocolParams:
    """Small but non-trivial parameters (n=16, gamma=2 -> q=8)."""
    return ProtocolParams(n=16, gamma=2.0)


@pytest.fixture
def params64() -> ProtocolParams:
    """Medium parameters for integration tests (n=64, gamma=2 -> q=12)."""
    return ProtocolParams(n=64, gamma=2.0)


@pytest.fixture
def tree() -> SeedTree:
    return SeedTree(123456789)


def two_color_split(n: int, frac_red: float) -> list[str]:
    """A deterministic red/blue initial configuration."""
    reds = round(n * frac_red)
    return ["red"] * reds + ["blue"] * (n - reds)


def fields_equal(a, b) -> bool:
    """Every dataclass field of two batch results compares equal; arrays
    must match in dtype too (``np.array_equal`` alone takes
    ``[True, False]`` for ``[1, 0]``)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            if not fields_equal(x, y):
                return False
        elif x != y:
            return False
    return True
