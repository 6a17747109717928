"""Functional binary-SNN reference model.

Mathematically identical to the ESAM hardware (proven by equivalence
tests against the cycle-accurate simulator), but evaluated with batched
matrix arithmetic — used for accuracy evaluation over thousands of
images where per-spike simulation is unnecessary.

Semantics per layer (XNOR-free BNN scheme, ref [15]):

* stored weight bit ``w`` contributes ``+1`` if ``w = 1`` else ``-1``
  for every *firing* pre-neuron;
* membrane potential ``Vmem = sum_{i: x_i = 1} (2 w_i - 1)``;
* hidden neurons fire iff ``Vmem >= Vth``;
* the output layer is read out as ``Vmem + bias`` and arg-maxed.
"""

from __future__ import annotations

import numpy as np

from repro.binary import is_binary
from repro.errors import ConfigurationError


class BinarySNN:
    """Batched functional model of the converted binary SNN."""

    def __init__(self, weights: list[np.ndarray], thresholds: list[np.ndarray],
                 output_bias: np.ndarray | None = None) -> None:
        if not weights:
            raise ConfigurationError("at least one layer is required")
        if len(weights) != len(thresholds):
            raise ConfigurationError("need one threshold vector per layer")
        self.weights: list[np.ndarray] = []
        self.thresholds: list[np.ndarray] = []
        for k, (w, t) in enumerate(zip(weights, thresholds)):
            w = np.asarray(w)
            t = np.asarray(t)
            if not is_binary(w):
                raise ConfigurationError(f"layer {k}: weights must be binary 0/1")
            if t.shape != (w.shape[1],):
                raise ConfigurationError(
                    f"layer {k}: thresholds {t.shape} != ({w.shape[1]},)"
                )
            if k > 0 and w.shape[0] != self.weights[-1].shape[1]:
                raise ConfigurationError(f"layer {k}: width mismatch")
            self.weights.append(w.astype(np.int64))
            self.thresholds.append(t.astype(np.int64))
        if output_bias is not None:
            output_bias = np.asarray(output_bias, dtype=np.float64)
            if output_bias.shape != (self.weights[-1].shape[1],):
                raise ConfigurationError("output bias width mismatch")
        self.output_bias = output_bias

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def membrane_potentials(self, spikes: np.ndarray, layer: int) -> np.ndarray:
        """Vmem of ``layer`` given its input spike batch ``(n, fan_in)``."""
        x = np.atleast_2d(np.asarray(spikes)).astype(np.int64)
        signed = 2 * self.weights[layer] - 1
        return x @ signed

    def forward(self, spikes: np.ndarray,
                return_activity: bool = False):
        """Run a spike batch through all layers.

        Returns output scores ``(n, n_classes)``; with
        ``return_activity`` also a list of per-layer spike matrices
        (the input of each tile — used to calibrate the energy model).
        """
        x = np.atleast_2d(np.asarray(spikes)).astype(np.int64)
        if x.shape[1] != self.layer_sizes[0]:
            raise ConfigurationError(
                f"input width {x.shape[1]} != {self.layer_sizes[0]}"
            )
        activity = [x.astype(np.uint8)]
        for layer in range(len(self.weights) - 1):
            vmem = self.membrane_potentials(x, layer)
            x = (vmem >= self.thresholds[layer]).astype(np.int64)
            activity.append(x.astype(np.uint8))
        scores = self.membrane_potentials(x, len(self.weights) - 1).astype(np.float64)
        if self.output_bias is not None:
            scores = scores + self.output_bias
        if return_activity:
            return scores, activity
        return scores

    def classify(self, spikes: np.ndarray) -> np.ndarray:
        """Predicted class per input row."""
        return np.argmax(self.forward(spikes), axis=1)

    def spike_counts(self, spikes: np.ndarray) -> np.ndarray:
        """Average spikes entering each layer (workload statistics).

        Returns an array of shape ``(n_layers,)`` with the mean number
        of input spikes per image for each tile — the quantity that
        drives the system-level energy/throughput model.
        """
        _, activity = self.forward(spikes, return_activity=True)
        return np.array([a.sum(axis=1).mean() for a in activity])
