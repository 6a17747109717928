"""Functional binary-SNN reference model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.snn.model import BinarySNN


@pytest.fixture()
def tiny_model(rng) -> BinarySNN:
    w1 = rng.integers(0, 2, (16, 8)).astype(np.uint8)
    w2 = rng.integers(0, 2, (8, 4)).astype(np.uint8)
    return BinarySNN(
        [w1, w2],
        [rng.integers(-3, 5, 8), np.full(4, 100)],
        output_bias=np.array([0.5, -0.5, 1.0, 0.0]),
    )


class TestMembranePotentials:
    def test_plus_minus_one_semantics(self, binary_dtype):
        """w=1 contributes +1, w=0 contributes -1, silent inputs nothing."""
        w = np.array([[1], [0], [1]]).astype(binary_dtype)
        model = BinarySNN([w], [np.zeros(1)])
        vmem = model.membrane_potentials(np.array([1, 1, 0]), layer=0)
        assert vmem[0, 0] == 0  # +1 - 1 + nothing

    def test_all_inputs_firing(self):
        w = np.array([[1], [1], [0]], dtype=np.uint8)
        model = BinarySNN([w], [np.zeros(1)])
        assert model.membrane_potentials(np.ones(3), 0)[0, 0] == 1


class TestForward:
    def test_output_shape(self, tiny_model, rng):
        x = rng.integers(0, 2, (5, 16))
        assert tiny_model.forward(x).shape == (5, 4)

    def test_bias_applied(self, rng):
        w = rng.integers(0, 2, (8, 3)).astype(np.uint8)
        bias = np.array([10.0, 0.0, -10.0])
        with_bias = BinarySNN([w], [np.zeros(3)], output_bias=bias)
        without = BinarySNN([w], [np.zeros(3)])
        x = rng.integers(0, 2, (2, 8))
        assert np.allclose(with_bias.forward(x), without.forward(x) + bias)

    def test_activity_returned(self, tiny_model, rng):
        x = rng.integers(0, 2, (4, 16))
        _, activity = tiny_model.forward(x, return_activity=True)
        # One spike matrix per tile input: the image and the hidden layer.
        assert len(activity) == 2
        assert activity[0].shape == (4, 16)
        assert activity[1].shape == (4, 8)

    def test_spike_counts(self, tiny_model, rng):
        x = rng.integers(0, 2, (10, 16))
        counts = tiny_model.spike_counts(x)
        assert counts.shape == (2,)
        assert counts[0] == pytest.approx(x.sum(axis=1).mean())

    def test_classify(self, tiny_model, rng):
        x = rng.integers(0, 2, (6, 16))
        preds = tiny_model.classify(x)
        assert (preds == np.argmax(tiny_model.forward(x), axis=1)).all()

    def test_input_width_checked(self, tiny_model):
        with pytest.raises(ConfigurationError):
            tiny_model.forward(np.zeros((2, 8)))


class TestValidation:
    def test_rejects_non_binary_weights(self, non_binary):
        with pytest.raises(ConfigurationError):
            BinarySNN([np.full((4, 2), 2)], [np.zeros(2)])
        with pytest.raises(ConfigurationError, match="binary"):
            BinarySNN([non_binary((4, 2))], [np.zeros(2)])

    def test_rejects_threshold_mismatch(self, rng):
        w = rng.integers(0, 2, (4, 2)).astype(np.uint8)
        with pytest.raises(ConfigurationError):
            BinarySNN([w], [np.zeros(3)])

    def test_rejects_layer_mismatch(self, rng):
        w1 = rng.integers(0, 2, (4, 2)).astype(np.uint8)
        w2 = rng.integers(0, 2, (3, 2)).astype(np.uint8)
        with pytest.raises(ConfigurationError):
            BinarySNN([w1, w2], [np.zeros(2), np.zeros(2)])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            BinarySNN([], [])
