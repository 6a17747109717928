"""System energy/power roll-up."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.system.energy import SystemEnergyModel, SystemMetrics
from repro.tile.network import EsamNetwork, InferenceTrace


@pytest.fixture()
def small_network(rng) -> EsamNetwork:
    sizes = (128, 64, 10)
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(sizes[:-1], sizes[1:])
    ]
    thresholds = [rng.integers(-5, 10, 64), np.full(10, 511)]
    return EsamNetwork(weights, thresholds)


class TestMetrics:
    def test_roll_up(self, small_network, rng):
        model = SystemEnergyModel(small_network)
        trace = InferenceTrace()
        for _ in range(4):
            small_network.infer(rng.random(128) < 0.3, trace)
        metrics = model.metrics(trace)
        assert metrics.energy_per_inference_pj > 0.0
        assert metrics.throughput_inf_s > 0.0
        assert metrics.cycles_per_inference >= 1.0
        assert metrics.latency_ns >= metrics.inference_time_ns

    def test_power_identity(self, small_network, rng):
        """power = energy/inference x throughput."""
        model = SystemEnergyModel(small_network)
        trace = InferenceTrace()
        small_network.infer(rng.random(128) < 0.3, trace)
        m = model.metrics(trace)
        assert m.power_mw == pytest.approx(
            m.energy_per_inference_pj * m.throughput_inf_s * 1e-9
        )

    def test_bottleneck_is_max_tile(self, small_network, rng):
        model = SystemEnergyModel(small_network)
        trace = InferenceTrace()
        small_network.infer(rng.random(128) < 0.3, trace)
        assert trace.bottleneck_cycles == max(trace.per_tile_cycles)
        m = model.metrics(trace)
        assert m.inference_time_ns == pytest.approx(
            trace.bottleneck_cycles * small_network.clock_period_ns
        )

    def test_empty_trace_rejected(self, small_network):
        with pytest.raises(ConfigurationError):
            SystemEnergyModel(small_network).metrics(InferenceTrace())

    def test_energy_components_sum(self, small_network, rng):
        model = SystemEnergyModel(small_network)
        trace = InferenceTrace()
        small_network.infer(rng.random(128) < 0.3, trace)
        m = model.metrics(trace)
        assert m.energy_per_inference_pj == pytest.approx(
            m.dynamic_energy_pj + m.clock_energy_pj + m.leakage_energy_pj
        )

    def test_more_spikes_cost_more(self, small_network, rng):
        model = SystemEnergyModel(small_network)
        sparse_trace = InferenceTrace()
        small_network.infer(rng.random(128) < 0.05, sparse_trace)
        sparse = model.metrics(sparse_trace).dynamic_energy_pj
        small_network.reset_stats()
        dense_trace = InferenceTrace()
        small_network.infer(rng.random(128) < 0.8, dense_trace)
        dense = model.metrics(dense_trace).dynamic_energy_pj
        assert dense > sparse
