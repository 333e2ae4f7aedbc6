"""Tests for the permanent fault patterns."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.faults import (
    color_targeted_faults,
    prefix_faults,
    random_faults,
)
from repro.util.rng import SeedTree


class TestFaultPatterns:
    def test_prefix_count(self):
        assert prefix_faults(100, 0.25) == frozenset(range(25))

    def test_zero_alpha_no_faults(self):
        assert prefix_faults(64, 0.0) == frozenset()

    def test_random_count_and_range(self):
        rng = SeedTree(1).generator()
        faults = random_faults(100, 0.3, rng)
        assert len(faults) == 30
        assert all(0 <= f < 100 for f in faults)

    def test_random_deterministic_given_stream(self):
        a = random_faults(50, 0.2, SeedTree(5).generator())
        b = random_faults(50, 0.2, SeedTree(5).generator())
        assert a == b

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            prefix_faults(10, 1.0)
        with pytest.raises(ValueError):
            random_faults(10, -0.1, SeedTree(0).generator())

    def test_color_targeted_hits_target_first(self):
        colors = ["r"] * 10 + ["b"] * 10
        faults = color_targeted_faults(colors, "r", 0.25)  # 5 faults
        assert all(colors[f] == "r" for f in faults)
        assert len(faults) == 5

    def test_color_targeted_spills_over(self):
        colors = ["r"] * 3 + ["b"] * 17
        faults = color_targeted_faults(colors, "r", 0.5)  # 10 faults
        assert len(faults) == 10
        assert {0, 1, 2} <= faults  # all reds crashed first

    @given(st.integers(min_value=4, max_value=256),
           st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=40)
    def test_property_never_crashes_everyone(self, n, alpha):
        faults = prefix_faults(n, alpha)
        assert len(faults) < n

