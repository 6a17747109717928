"""Stochastic 1-bit STDP rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.learning.stdp import StochasticSTDP


class TestUpdateColumn:
    def test_output_binary(self, rng):
        rule = StochasticSTDP(seed=1)
        w = rng.integers(0, 2, 64)
        new = rule.update_column(w, rng.integers(0, 2, 64))
        assert set(np.unique(new)).issubset({0, 1})

    def test_deterministic_probabilities(self):
        """p=1 rules are deterministic: potentiate where pre fired,
        depress where silent."""
        rule = StochasticSTDP(p_potentiate=1.0, p_depress=1.0, seed=2)
        w = np.array([0, 0, 1, 1], dtype=np.uint8)
        pre = np.array([1, 0, 1, 0], dtype=np.uint8)
        new = rule.update_column(w, pre)
        assert new.tolist() == [1, 0, 1, 0]

    def test_zero_probability_is_identity(self, rng, binary_dtype):
        rule = StochasticSTDP(p_potentiate=0.0, p_depress=0.0, seed=3)
        w = rng.integers(0, 2, 32).astype(binary_dtype)
        assert (rule.update_column(w, rng.integers(0, 2, 32)) == w).all()

    def test_does_not_mutate_input(self, rng):
        rule = StochasticSTDP(p_potentiate=1.0, p_depress=1.0)
        w = np.zeros(16, dtype=np.uint8)
        rule.update_column(w, np.ones(16))
        assert (w == 0).all()

    def test_shape_mismatch_rejected(self):
        rule = StochasticSTDP()
        with pytest.raises(ConfigurationError):
            rule.update_column(np.zeros(8), np.zeros(4))

    def test_non_binary_weights_rejected(self, non_binary):
        rule = StochasticSTDP()
        with pytest.raises(ConfigurationError):
            rule.update_column(np.full(8, 2), np.zeros(8))
        with pytest.raises(ConfigurationError, match="binary"):
            rule.update_column(non_binary(8), np.zeros(8))


class TestStationaryDistribution:
    @pytest.mark.parametrize("correlation", [0.2, 0.5, 0.8])
    def test_converges_to_expected_weight(self, correlation):
        """Empirical stationary E[w] tracks the analytic prediction."""
        rule = StochasticSTDP(p_potentiate=0.3, p_depress=0.15, seed=5)
        sampler = np.random.default_rng(6)
        n = 2000
        w = np.zeros(n, dtype=np.uint8)
        for _ in range(200):
            pre = (sampler.random(n) < correlation).astype(np.uint8)
            w = rule.update_column(w, pre)
        expected = rule.expected_weight(correlation)
        assert w.mean() == pytest.approx(expected, abs=0.05)

    def test_expected_weight_monotonic(self):
        rule = StochasticSTDP(p_potentiate=0.2, p_depress=0.1)
        values = [rule.expected_weight(c) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_expected_weight_extremes(self):
        rule = StochasticSTDP(p_potentiate=0.2, p_depress=0.1)
        assert rule.expected_weight(0.0) == 0.0
        assert rule.expected_weight(1.0) == 1.0


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_updates_respect_pre_direction(self, seed):
        """Weights only flip up where pre fired, only down where silent."""
        rng = np.random.default_rng(seed)
        rule = StochasticSTDP(p_potentiate=0.5, p_depress=0.5, seed=seed)
        w = rng.integers(0, 2, 64).astype(np.uint8)
        pre = rng.integers(0, 2, 64).astype(np.uint8)
        new = rule.update_column(w, pre)
        flipped_up = (new == 1) & (w == 0)
        flipped_down = (new == 0) & (w == 1)
        assert not (flipped_up & (pre == 0)).any()
        assert not (flipped_down & (pre == 1)).any()


class TestValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            StochasticSTDP(p_potentiate=1.5)
        with pytest.raises(ConfigurationError):
            StochasticSTDP(p_depress=-0.1)

    def test_rejects_bad_correlation(self):
        with pytest.raises(ConfigurationError):
            StochasticSTDP().expected_weight(2.0)
