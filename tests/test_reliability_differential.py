"""Differential testing: every engine pair agrees on faulted networks.

Two pins, each over a grid of (cell x BER x corner):

1. the *functional* fault path (``flip_bits`` on the layer matrices)
   and the *hardware* fault path (``FaultInjector`` loading macros
   through their normal write path) produce identical predictions;
2. the fast and cycle engines stay trace-identical on faulted
   networks — extending ``test_engine_equivalence.py`` to the fault
   scenario, so the reliability campaigns may run entirely on the
   fast engine.

The per-trial mask streams themselves are pinned to the config seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw.config import HardwareConfig
from repro.snn.model import BinarySNN
from repro.sram.bitcell import CellType
from repro.sram.faults import FaultInjector, trial_seed_sequence
from repro.tile.network import EsamNetwork
from tests.test_engine_equivalence import assert_hardware_state_equal

pytestmark = pytest.mark.campaign

#: Cross block boundaries (160 > 128 rows, 130 > 128 cols) so faults
#: land in partial blocks too.
LAYER_SIZES = (160, 130, 10)

CELLS = [CellType.C6T, CellType.C1RW2R, CellType.C1RW4R]
BERS = [1e-3, 5e-2]
CORNERS = ["typical", "slow"]


def clean_parameters(seed: int = 7):
    rng = np.random.default_rng(seed)
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])
    ]
    thresholds = [
        rng.integers(0, max(2, a // 8), b)
        for a, b in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])
    ]
    bias = rng.normal(0.0, 0.5, LAYER_SIZES[-1])
    return weights, thresholds, bias


def make_network(config: HardwareConfig) -> EsamNetwork:
    weights, thresholds, bias = clean_parameters()
    return EsamNetwork(weights, thresholds, output_bias=bias, config=config)


def sample_spikes(images: int = 8) -> np.ndarray:
    rng = np.random.default_rng(12345)
    return rng.random((images, LAYER_SIZES[0])) < 0.3


@pytest.mark.parametrize("corner", CORNERS)
@pytest.mark.parametrize("ber", BERS)
@pytest.mark.parametrize("cell", CELLS, ids=[c.value for c in CELLS])
class TestFaultPathEquivalence:
    def test_functional_and_hardware_paths_agree(self, cell, ber, corner):
        """Same config seed, same trial => same faults, same predictions
        whether injected into arrays or into the hardware macros."""
        config = HardwareConfig(cell_type=cell, corner=corner, seed=99)
        weights, thresholds, bias = clean_parameters()
        injector = FaultInjector(weights, thresholds, bias, config=config)
        spikes = sample_spikes()

        # Functional path: flip_bits on the layer matrices via the
        # trial stream, evaluated by the batched reference model.
        faulty, flips = injector.faulty_weights_for_trial(ber, trial=0)
        functional = BinarySNN(faulty, thresholds, bias)
        functional_preds = functional.classify(spikes)

        # Hardware path: the same trial loaded into the macros.
        network = make_network(config)
        hw_flips = injector.apply_trial(network, ber, trial=0)
        hardware_preds = network.classify_batch(spikes, engine="fast")

        assert hw_flips == flips > 0
        assert np.array_equal(network.tiles[0].weight_matrix(), faulty[0])
        assert np.array_equal(hardware_preds, functional_preds)

    def test_fast_and_cycle_engines_identical_on_faulted_network(
            self, cell, ber, corner):
        """The engine-equivalence guarantee survives fault injection:
        predictions, traces, ledgers and counters all match."""
        config = HardwareConfig(cell_type=cell, corner=corner, seed=99)
        fast_net = make_network(config)
        cycle_net = make_network(config)
        FaultInjector(*clean_parameters(), config=config).apply_trial(
            fast_net, ber, trial=0
        )
        FaultInjector(*clean_parameters(), config=config).apply_trial(
            cycle_net, ber, trial=0
        )
        spikes = sample_spikes()
        fast_scores = fast_net.infer_batch(spikes, engine="fast")
        cycle_scores = np.stack(
            [cycle_net.infer(row) for row in spikes]
        )
        assert np.array_equal(fast_scores, cycle_scores)
        assert_hardware_state_equal(fast_net, cycle_net)


class TestInjectorStreams:
    def test_injector_seed_follows_config(self):
        """Regression (latent seed bug): the injector's stream derives
        from the HardwareConfig seed, so configs differing only by seed
        draw different masks, and equal seeds draw equal masks."""
        weights, thresholds, bias = clean_parameters()
        a = FaultInjector(weights, thresholds, bias,
                          config=HardwareConfig(seed=1))
        b = FaultInjector(weights, thresholds, bias,
                          config=HardwareConfig(seed=1))
        c = FaultInjector(weights, thresholds, bias,
                          config=HardwareConfig(seed=2))
        assert a.seed == b.seed == 1 and c.seed == 2
        fa, _ = a.faulty_weights_for_trial(0.05, trial=0)
        fb, _ = b.faulty_weights_for_trial(0.05, trial=0)
        fc, _ = c.faulty_weights_for_trial(0.05, trial=0)
        assert all(np.array_equal(x, y) for x, y in zip(fa, fb))
        assert any(not np.array_equal(x, y) for x, y in zip(fa, fc))

    def test_trial_streams_are_ber_and_trial_specific(self):
        """Distinct (BER, trial) cells never share a stream; the same
        cell always reproduces it."""
        ss = trial_seed_sequence(42, 1e-3, 0)
        assert (np.random.default_rng(ss).random(4)
                == np.random.default_rng(
                    trial_seed_sequence(42, 1e-3, 0)).random(4)).all()
        streams = {
            tuple(np.random.default_rng(
                trial_seed_sequence(seed, ber, trial)).random(4))
            for seed in (42, 7)
            for ber in (1e-3, 1e-2)
            for trial in (0, 1)
        }
        assert len(streams) == 8
