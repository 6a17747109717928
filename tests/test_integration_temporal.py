"""Temporal mode: cycle-accurate hardware vs the functional model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.snn.model import BinarySNN
from repro.snn.temporal import TemporalBinarySNN, rate_encode
from repro.sram.bitcell import CellType
from repro.tile.network import EsamNetwork


def build_pair(rng, sizes=(64, 32, 8)):
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(sizes[:-1], sizes[1:])
    ]
    thresholds = [rng.integers(2, 8, b) for b in sizes[1:]]
    bias = rng.normal(0, 1, sizes[-1])
    network = EsamNetwork(weights, thresholds, output_bias=bias)
    functional = TemporalBinarySNN(BinarySNN(weights, thresholds, bias))
    return network, functional


class TestHardwareFunctionalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spike_counts_identical(self, seed):
        rng = np.random.default_rng(seed)
        network, functional = build_pair(rng)
        trains = (rng.random((10, 64)) < 0.3).astype(np.uint8)
        hw = network.run_temporal(trains)
        sw = functional.run(trains)
        assert (hw.spike_counts == sw.spike_counts).all()
        assert np.allclose(hw.final_vmem, sw.final_vmem)
        assert (hw.hidden_spike_totals == sw.hidden_spike_totals).all()

    def test_classification_identical(self, rng):
        network, functional = build_pair(rng)
        trains = rate_encode(rng.random(64), 12, rng)
        hw = network.run_temporal(trains)
        sw = functional.run(trains)
        assert hw.classify().tolist() == sw.classify().tolist()

    def test_membranes_persist_between_timesteps(self, rng):
        """Sub-threshold charge must carry over on the hardware."""
        w = np.ones((64, 4), dtype=np.uint8)
        network = EsamNetwork(
            [w], [np.full(4, 5)],
            config=HardwareConfig(cell_type=CellType.C1RW2R),
        )
        spikes = np.zeros(64, dtype=bool)
        spikes[:2] = True  # +2 per timestep, threshold 5
        fired_t0 = network.tiles[0].run_timestep(spikes)
        fired_t1 = network.tiles[0].run_timestep(spikes)
        fired_t2 = network.tiles[0].run_timestep(spikes)
        assert not fired_t0.any() and not fired_t1.any()
        assert fired_t2.all()  # 6 >= 5 on the third step
        # Membranes reset after firing.
        assert (network.tiles[0].membrane_potentials() == 0).all()

    def test_width_checked(self, rng):
        network, _ = build_pair(rng)
        with pytest.raises(ConfigurationError):
            network.run_temporal(np.zeros((3, 32), dtype=bool))

    def test_static_mode_unaffected(self, rng):
        """The default (time-static) path still resets every membrane."""
        network, _ = build_pair(rng)
        spikes = rng.random(64) < 0.5
        network.infer(spikes)
        for tile in network.tiles:
            assert (tile.membrane_potentials() == 0).all()
