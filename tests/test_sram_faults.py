"""Weight-memory fault injection."""

import inspect

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.snn.encode import encode_images
from repro.sram import faults
from repro.sram.bitcell import CellType
from repro.sram.faults import FaultInjector, flip_bits
from repro.tile.network import EsamNetwork

pytestmark = pytest.mark.campaign


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

    def test_zero_rate_still_draws(self, rng):
        """The caller's generator advances by the mask size at rate 0 as
        at any other rate; only an injector's private trial skips it."""
        w = rng.integers(0, 2, (40, 30))
        drawn, skipped = np.random.default_rng(9), np.random.default_rng(9)
        flip_bits(w, 0.0, drawn)
        skipped.random(w.shape)
        assert drawn.random() == skipped.random()


#: Layer sizes crossing the 128-row and 128-column block boundaries.
LAYERS = (160, 130, 10)


def clean_layers(rng) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights = [rng.integers(0, 2, (a, b)).astype(np.uint8)
               for a, b in zip(LAYERS[:-1], LAYERS[1:])]
    return weights, [np.full(b, 511) for b in LAYERS[1:]]


class TestCleanWeights:
    def test_non_binary_weights_are_rejected(self, non_binary):
        """The injector cast to uint8 before any check, so 257 became 1
        and 0.5 became 0, and every trial faulted that matrix."""
        with pytest.raises(ConfigurationError, match="binary 0/1"):
            FaultInjector([np.array([[257, 0], [0.5, 1]])], [np.zeros(2)])
        with pytest.raises(ConfigurationError, match="binary 0/1"):
            FaultInjector([np.zeros((4, 4)), non_binary((4, 4))],
                          [np.zeros(4), np.zeros(4)])

    def test_weights_are_a_private_uint8_copy(self, rng, binary_dtype):
        w = rng.integers(0, 2, (8, 8)).astype(binary_dtype)
        expected = w.astype(np.uint8)
        injector = FaultInjector([w], [np.zeros(8)])
        w.fill(0)
        assert injector.weights[0].dtype == np.uint8
        assert np.array_equal(injector.weights[0], expected)


class TestTrialDraws:
    """A trial's masks are pinned to flip_bits on one trial stream."""

    @pytest.mark.parametrize("ber", [0.0, 1e-4, 5e-2, 1.0])
    def test_trial_equals_flip_bits_on_its_stream(self, rng, ber):
        weights, thresholds = clean_layers(rng)
        injector = FaultInjector(weights, thresholds,
                                 config=HardwareConfig(seed=11))
        for trial in (0, 3):
            faulty, flips = injector.faulty_weights_for_trial(ber, trial)
            stream = injector.trial_rng(ber, trial)
            expected = [flip_bits(w, ber, stream) for w in weights]
            assert flips == sum(n for _, n in expected)
            for got, (want, _) in zip(faulty, expected):
                assert got.dtype == np.uint8
                assert np.array_equal(got, want)

    def test_zero_rate_builds_no_generator(self, rng, monkeypatch):
        weights, thresholds = clean_layers(rng)
        injector = FaultInjector(weights, thresholds)

        def no_generator(*args):
            raise AssertionError("a BER-0 trial built a generator")

        monkeypatch.setattr(FaultInjector, "trial_rng", no_generator)
        monkeypatch.setattr(faults, "trial_seed_sequence", no_generator)
        faulty, flips = injector.faulty_weights_for_trial(0.0, 5)
        assert flips == 0
        for got, clean in zip(faulty, injector.weights):
            assert np.array_equal(got, clean) and got is not clean
        network = EsamNetwork(weights, thresholds)
        assert injector.apply_trial(network, 0.0, 2) == 0
        assert np.array_equal(network.tiles[0].weight_matrix(), weights[0])

    @pytest.mark.parametrize("ber, trial", [
        (0.0, -1), (0.1, -1), (-0.1, 0), (1.5, 0), (np.nan, 0),
    ])
    def test_bad_trial_or_rate_is_rejected(self, rng, ber, trial):
        injector = FaultInjector(*clean_layers(rng))
        with pytest.raises(ConfigurationError):
            injector.faulty_weights_for_trial(ber, trial)


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
