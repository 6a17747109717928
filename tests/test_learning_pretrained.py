"""Pretrained-model cache: save/load round-trips and presets."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.learning import pretrained
from repro.learning.pretrained import (
    _load,
    _save,
    get_reference_model,
)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path, fast_model):
        path = tmp_path / "model.npz"
        _save(path, fast_model.snn, fast_model.test_accuracy)
        loaded, accuracy = _load(path)
        assert accuracy == pytest.approx(fast_model.test_accuracy)
        assert loaded.layer_sizes == fast_model.snn.layer_sizes
        for a, b in zip(loaded.weights, fast_model.snn.weights):
            assert (a == b).all()
        for a, b in zip(loaded.thresholds, fast_model.snn.thresholds):
            assert (a == b).all()
        assert np.allclose(loaded.output_bias, fast_model.snn.output_bias)

    def test_loaded_model_classifies_identically(self, tmp_path, fast_model, rng):
        path = tmp_path / "model.npz"
        _save(path, fast_model.snn, fast_model.test_accuracy)
        loaded, _ = _load(path)
        x = (rng.random((16, 768)) < 0.2).astype(np.uint8)
        assert (
            loaded.to_model().classify(x)
            == fast_model.snn.to_model().classify(x)
        ).all()


class TestPresets:
    def test_memory_cache_returns_same_object(self):
        a = get_reference_model(quality="fast", seed=42)
        b = get_reference_model(quality="fast", seed=42)
        assert a is b

    def test_unknown_quality_rejected(self):
        with pytest.raises(ConfigurationError):
            get_reference_model(quality="gigantic")

    @pytest.mark.parametrize("seed", [True, 42.0, "42"], ids=repr)
    def test_rejects_a_seed_that_is_not_an_integer(self, seed, tmp_path,
                                                   monkeypatch):
        """``seed=True`` looked for ``esam_bnn_full_seedTrue.npz`` and,
        with the file missing, trained a model and saved it there."""
        monkeypatch.setattr(pretrained, "_ARTIFACT_DIR", tmp_path)
        with pytest.raises(ConfigurationError, match="seed"):
            get_reference_model("full", seed)
        assert list(tmp_path.iterdir()) == []

    def test_a_numpy_seed_is_the_same_model(self, fast_model):
        assert get_reference_model("fast", np.int64(42)) is fast_model

    def test_fast_model_shape(self, fast_model):
        assert fast_model.snn.layer_sizes == [768, 256, 256, 256, 10]
        assert fast_model.dataset.n_test == 500
