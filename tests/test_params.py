"""Tests for protocol parameters and the round schedule."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import Phase, ProtocolParams


class TestDerivedQuantities:
    def test_m_is_n_cubed(self):
        assert ProtocolParams(n=10).m == 1000

    def test_q_formula(self):
        p = ProtocolParams(n=64, gamma=2.0)
        assert p.q == math.ceil(2.0 * math.log2(64)) == 12

    def test_q_at_least_one(self):
        assert ProtocolParams(n=2, gamma=0.1).q == 1

    def test_total_rounds_is_four_phases(self):
        p = ProtocolParams(n=64, gamma=2.0)
        assert p.total_rounds == 4 * p.q

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=1)
        with pytest.raises(ValueError):
            ProtocolParams(n=8, gamma=0)
        for gamma in (float("nan"), float("inf")):
            msg = f"gamma must be finite and > 0, got {gamma}"
            with pytest.raises(ValueError, match=msg):
                ProtocolParams(n=16, gamma=gamma)
        with pytest.raises(ValueError):
            ProtocolParams(n=8, num_colors=0)


class TestSchedule:
    def test_phase_order(self):
        p = ProtocolParams(n=16, gamma=1.0)
        q = p.q
        assert p.phase_of(0) == (Phase.COMMITMENT, 0)
        assert p.phase_of(q) == (Phase.VOTING, 0)
        assert p.phase_of(2 * q) == (Phase.FIND_MIN, 0)
        assert p.phase_of(3 * q) == (Phase.COHERENCE, 0)
        assert p.phase_of(4 * q - 1) == (Phase.COHERENCE, q - 1)

    def test_phase_of_out_of_range(self):
        p = ProtocolParams(n=16)
        with pytest.raises(ValueError):
            p.phase_of(-1)
        with pytest.raises(ValueError):
            p.phase_of(p.total_rounds)

    def test_phase_range_partition(self):
        p = ProtocolParams(n=32, gamma=1.5)
        covered = []
        for phase in Phase:
            covered.extend(p.phase_range(phase))
        assert sorted(covered) == list(range(p.total_rounds))

    @given(st.integers(min_value=2, max_value=4096),
           st.floats(min_value=0.25, max_value=8, allow_nan=False))
    def test_property_schedule_consistency(self, n, gamma):
        p = ProtocolParams(n=n, gamma=gamma)
        for phase in Phase:
            r = p.phase_range(phase)
            assert p.phase_of(r.start) == (phase, 0)
            assert p.phase_of(r.stop - 1) == (phase, p.q - 1)


class TestBitModel:
    def test_vote_bits_triple_label_bits_for_pow2(self):
        p = ProtocolParams(n=128)
        assert p.vote_bits == 3 * p.label_bits

    def test_certificate_bits_grow_linearly_in_votes(self):
        p = ProtocolParams(n=64)
        c0 = p.certificate_bits(0)
        c10 = p.certificate_bits(10)
        c20 = p.certificate_bits(20)
        assert c20 - c10 == c10 - c0  # constant per-vote cost

    def test_certificate_is_polylog(self):
        # With Theta(log n) votes the certificate must be O(log^2 n):
        # check the constant is modest at a concrete size.
        p = ProtocolParams(n=1024, gamma=3.0)
        bits = p.certificate_bits(p.q)  # q = Theta(log n) votes
        log2n = math.log2(p.n)
        # Per vote: ~(3+1)*log2 n bits, times q = gamma*log2 n votes,
        # so the constant is about 4*gamma + slack for k/color/owner.
        assert bits <= (4 * 3.0 + 4) * log2n ** 2

    def test_intention_bits(self):
        p = ProtocolParams(n=16, gamma=2.0)
        assert p.intention_bits() == p.q * (p.vote_bits + p.label_bits)
