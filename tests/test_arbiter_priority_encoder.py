"""Fixed priority encoder: behavioral, gate-level, and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiter.priority_encoder import (
    PriorityEncoder,
    build_flat_encoder_netlist,
    priority_encode,
)
from repro.errors import ConfigurationError


class TestBehavioral:
    def test_selects_leftmost(self):
        grant, remaining, no_r = priority_encode(np.array([0, 1, 0, 1]))
        assert grant.tolist() == [False, True, False, False]
        assert remaining.tolist() == [False, False, False, True]
        assert not no_r

    def test_empty_vector_sets_noR(self):
        grant, remaining, no_r = priority_encode(np.zeros(8))
        assert not grant.any()
        assert no_r

    def test_single_request(self):
        grant, remaining, no_r = priority_encode(np.eye(8, dtype=bool)[5])
        assert grant[5]
        assert not remaining.any()

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            priority_encode(np.zeros((2, 2)))


class TestEncoderClass:
    def test_shape_checked(self):
        pe = PriorityEncoder(16)
        with pytest.raises(ConfigurationError):
            pe.encode(np.zeros(8))

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            PriorityEncoder(0)

    def test_critical_path_linear_in_width(self):
        """The select-chain ripple motivates the tree (section 3.3)."""
        short = PriorityEncoder(16).critical_path_ps()
        long = PriorityEncoder(64).critical_path_ps()
        assert long > 3.0 * short


class TestGateLevelEquivalence:
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_behavioral_16bit(self, pattern):
        pe = PriorityEncoder(16)
        r = np.array([(pattern >> i) & 1 for i in range(16)], dtype=bool)
        g1, m1, n1 = pe.encode(r)
        g2, m2, n2 = pe.encode_gate_level(r)
        assert (g1 == g2).all()
        assert (m1 == m2).all()
        assert n1 == n2

    def test_all_zeros_and_ones(self):
        pe = PriorityEncoder(32)
        for r in (np.zeros(32, bool), np.ones(32, bool)):
            g1, m1, n1 = pe.encode(r)
            g2, m2, n2 = pe.encode_gate_level(r)
            assert (g1 == g2).all() and (m1 == m2).all() and n1 == n2


class TestNetlistStructure:
    def test_has_repeaters(self):
        net = build_flat_encoder_netlist(64)
        arrivals = net.arrival_times_ps()
        assert "pe_srep16" in arrivals
        assert "pe_srep48" in arrivals

    def test_noR_present(self):
        net = build_flat_encoder_netlist(8)
        values = net.evaluate(
            {"pe_s0": True, **{f"pe_r{i}": False for i in range(8)}}
        )
        assert values["pe_noR"] is True


class TestProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=96))
    @settings(max_examples=100, deadline=None)
    def test_grant_is_subset_and_onehot(self, bits):
        r = np.array(bits, dtype=bool)
        grant, remaining, no_r = priority_encode(r)
        # Grant is one-hot (or empty) and only where requested.
        assert grant.sum() == (0 if no_r else 1)
        assert not (grant & ~r).any()
        # Remaining = requests minus grant, disjoint from the grant.
        assert (remaining == (r & ~grant)).all()
        assert not (grant & remaining).any()

    @given(st.lists(st.booleans(), min_size=1, max_size=96))
    @settings(max_examples=100, deadline=None)
    def test_granted_bit_is_first(self, bits):
        r = np.array(bits, dtype=bool)
        grant, _, no_r = priority_encode(r)
        if not no_r:
            assert int(np.flatnonzero(grant)[0]) == int(np.flatnonzero(r)[0])
