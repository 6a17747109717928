"""Top-level EsamSystem facade."""

import numpy as np
import pytest

from repro.core.esam import EsamSystem
from repro.errors import ConfigurationError


@pytest.fixture()
def random_system() -> EsamSystem:
    return EsamSystem.from_random((128, 64, 10), seed=1)


class TestFromRandom:
    def test_structure(self, random_system):
        assert random_system.snn.layer_sizes == [128, 64, 10]
        assert len(random_system.network.tiles) == 2

    def test_rejects_single_layer(self):
        with pytest.raises(ConfigurationError):
            EsamSystem.from_random((128,))


class TestClassification:
    def test_classify_spikes_matches_functional(self, random_system, rng):
        spikes = (rng.random((6, 128)) < 0.3).astype(np.uint8)
        result = random_system.classify_spikes(spikes)
        expected = random_system.functional_model().classify(spikes)
        assert (result.predictions == expected).all()

    def test_report_populated(self, random_system, rng):
        spikes = (rng.random((3, 128)) < 0.3).astype(np.uint8)
        result = random_system.classify_spikes(spikes)
        assert result.report.images == 3
        assert result.report.energy_per_inference_pj > 0.0
        assert result.report.throughput_minf_s > 0.0
        assert "MInf/s" in result.report.summary()

    def test_accuracy_with_labels(self, random_system, rng):
        spikes = (rng.random((4, 128)) < 0.3).astype(np.uint8)
        labels = random_system.functional_model().classify(spikes)
        result = random_system.classify_spikes(spikes, labels)
        assert result.accuracy == 1.0

    def test_accuracy_none_without_labels(self, random_system, rng):
        spikes = (rng.random((2, 128)) < 0.3).astype(np.uint8)
        assert random_system.classify_spikes(spikes).accuracy is None


class TestOnlineLearning:
    def test_engine_attached_to_layer(self, random_system):
        engine = random_system.online_learning_engine(layer=0)
        assert engine.tile is random_system.network.tiles[0]

    def test_layer_range_checked(self, random_system):
        with pytest.raises(ConfigurationError):
            random_system.online_learning_engine(layer=5)

    def test_learning_updates_hardware_weights(self, random_system, rng):
        from repro.learning.stdp import StochasticSTDP

        engine = random_system.online_learning_engine(
            layer=0, rule=StochasticSTDP(p_potentiate=1.0, p_depress=1.0)
        )
        pre = rng.integers(0, 2, 128).astype(np.uint8)
        engine.learn(pre, np.array([0]))
        assert (random_system.network.tiles[0].weight_matrix()[:, 0] == pre).all()


class TestPretrainedPath:
    def test_from_pretrained_fast(self, fast_model):
        system = EsamSystem(fast_model.snn)
        assert system.snn.layer_sizes == [768, 256, 256, 256, 10]

    def test_pretrained_accuracy_reasonable(self, fast_model):
        """Even the fast training preset should classify well."""
        assert fast_model.test_accuracy > 0.9

    def test_hardware_matches_functional_on_real_images(self, fast_model, rng):
        from repro.snn.encode import encode_images

        system = EsamSystem(fast_model.snn)
        images = fast_model.dataset.test_images[:5]
        result = system.classify_images(images)
        expected = fast_model.snn.to_model().classify(encode_images(images))
        assert (result.predictions == expected).all()

    def test_repr(self, fast_model):
        system = EsamSystem(fast_model.snn)
        assert "768:256:256:256:10" in repr(system)
