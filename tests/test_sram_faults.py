"""Weight-memory fault injection."""

import inspect

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.snn.encode import encode_images
from repro.sram.bitcell import CellType
from repro.sram.faults import FaultInjector, flip_bits
from repro.tile.network import EsamNetwork


class TestFlipBits:
    def test_zero_rate_is_identity(self, rng, binary_dtype):
        w = rng.integers(0, 2, (32, 32)).astype(binary_dtype)
        faulty, flips = flip_bits(w, 0.0, rng)
        assert flips == 0
        assert (faulty == w).all()

    def test_full_rate_inverts(self, rng):
        w = rng.integers(0, 2, (16, 16))
        faulty, flips = flip_bits(w, 1.0, rng)
        assert flips == 256
        assert (faulty == 1 - w).all()

    def test_rate_statistics(self, rng):
        w = np.zeros((200, 200), dtype=np.uint8)
        _, flips = flip_bits(w, 0.1, rng)
        assert flips == pytest.approx(4000, rel=0.15)

    def test_result_binary(self, rng):
        w = rng.integers(0, 2, (16, 16))
        faulty, _ = flip_bits(w, 0.5, rng)
        assert set(np.unique(faulty)).issubset({0, 1})

    def test_input_not_mutated(self, rng):
        w = np.zeros((8, 8), dtype=np.uint8)
        flip_bits(w, 1.0, rng)
        assert (w == 0).all()

    def test_validation(self, rng, non_binary):
        with pytest.raises(ConfigurationError):
            flip_bits(np.zeros((4, 4)), 1.5, rng)
        with pytest.raises(ConfigurationError):
            flip_bits(np.full((4, 4), 2), 0.1, rng)
        with pytest.raises(ConfigurationError, match="binary"):
            flip_bits(non_binary((4, 4)), 0.1, rng)


def mean_accuracy(injector, spikes, labels, rate, trials):
    """Mean functional-model accuracy over ``trials`` fault masks."""
    accuracies = []
    for trial in range(trials if rate > 0.0 else 1):
        model, _ = injector.faulty_model_for_trial(rate, trial)
        accuracies.append(float((model.classify(spikes) == labels).mean()))
    return float(np.mean(accuracies))


class TestFaultSweep:
    def test_accuracy_degrades_monotonically_on_average(self, fast_model):
        injector = FaultInjector(
            fast_model.snn.weights,
            fast_model.snn.thresholds,
            fast_model.snn.output_bias,
        )
        spikes = encode_images(fast_model.dataset.test_images[:300])
        labels = fast_model.dataset.test_labels[:300]
        accuracies = [
            mean_accuracy(injector, spikes, labels, rate, trials=2)
            for rate in (0.0, 1e-3, 5e-2, 0.3)
        ]
        # Clean accuracy first; heavy corruption approaches chance.
        assert accuracies[0] > 0.9
        assert accuracies[0] >= accuracies[1] - 0.02
        assert accuracies[-1] < 0.6

    def test_small_ber_is_tolerated(self, fast_model):
        """The BNN's redundancy absorbs isolated flips — a practical
        robustness property for always-on edge SRAM."""
        injector = FaultInjector(
            fast_model.snn.weights,
            fast_model.snn.thresholds,
            fast_model.snn.output_bias,
        )
        spikes = encode_images(fast_model.dataset.test_images[:300])
        labels = fast_model.dataset.test_labels[:300]
        clean = mean_accuracy(injector, spikes, labels, 0.0, trials=3)
        faulty = mean_accuracy(injector, spikes, labels, 1e-3, trials=3)
        assert faulty > clean - 0.03

    def test_zero_rate_reports_zero_flips(self, fast_model):
        injector = FaultInjector(
            fast_model.snn.weights, fast_model.snn.thresholds,
        )
        _, flips = injector.faulty_model_for_trial(0.0, trial=0)
        assert flips == 0


class TestNetworkInjection:
    def test_apply_trial_changes_weights(self, rng):
        weights = [rng.integers(0, 2, (128, 16)).astype(np.uint8)]
        net = EsamNetwork(weights, [np.full(16, 511)],
                          config=HardwareConfig(cell_type=CellType.C1RW2R))
        injector = FaultInjector(weights, [np.full(16, 511)])
        flips = injector.apply_trial(net, 0.05, trial=0)
        assert flips > 0
        # The network's stored bits now differ from the originals.
        stored = net.tiles[0].weight_matrix()
        assert (stored != weights[0]).sum() > 0

    def test_hardware_matches_faulty_functional_model(self, rng):
        """Faults injected into the macros behave exactly like faults in
        the functional model (same math, same storage)."""
        weights = [rng.integers(0, 2, (64, 12)).astype(np.uint8)]
        thresholds = [np.full(12, 511)]
        net = EsamNetwork(weights, thresholds)
        injector = FaultInjector(weights, thresholds,
                                 config=HardwareConfig(seed=3))
        injector.apply_trial(net, 0.1, trial=0)
        faulty_bits = net.tiles[0].weight_matrix()
        from repro.snn.model import BinarySNN

        reference = BinarySNN([faulty_bits], thresholds)
        spikes = rng.random(64) < 0.4
        assert np.allclose(
            net.infer(spikes), reference.forward(spikes)[0]
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultInjector([], [])


class TestSeedDerivation:
    """Regression for the latent seed bug: a bare ``seed=77`` default
    used to ignore the network's ``HardwareConfig.seed``, so two
    configs differing only by seed shared fault masks."""

    def make_injectors(self, rng, seed_a: int, seed_b: int):
        weights = [rng.integers(0, 2, (64, 12)).astype(np.uint8)]
        thresholds = [np.full(12, 511)]
        return (
            FaultInjector(weights, thresholds,
                          config=HardwareConfig(seed=seed_a)),
            FaultInjector(weights, thresholds,
                          config=HardwareConfig(seed=seed_b)),
        )

    def test_configs_differing_only_by_seed_draw_different_masks(self, rng):
        a, b = self.make_injectors(rng, 1, 2)
        fa, _ = a.faulty_weights_for_trial(0.1, trial=0)
        fb, _ = b.faulty_weights_for_trial(0.1, trial=0)
        assert not np.array_equal(fa[0], fb[0])

    def test_equal_config_seeds_reproduce_masks(self, rng):
        a, b = self.make_injectors(rng, 5, 5)
        fa, na = a.faulty_weights_for_trial(0.1, trial=3)
        fb, nb = b.faulty_weights_for_trial(0.1, trial=3)
        assert na == nb
        assert np.array_equal(fa[0], fb[0])

    def test_seed_comes_only_from_the_config(self, rng):
        weights = [rng.integers(0, 2, (16, 8)).astype(np.uint8)]
        assert "seed" not in inspect.signature(FaultInjector).parameters
        default = FaultInjector(weights, [np.full(8, 511)])
        assert default.seed == HardwareConfig().seed

    def test_negative_trial_rejected(self, rng):
        from repro.sram.faults import trial_seed_sequence

        with pytest.raises(ConfigurationError):
            trial_seed_sequence(42, 0.1, -1)
