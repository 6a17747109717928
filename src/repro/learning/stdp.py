"""Stochastic 1-bit STDP rule (refs [16], [17] of the paper).

With binary synapses there is no weight magnitude to nudge, so plasticity
is probabilistic: when a post-synaptic neuron emits a *learning event*,
every one of its synapses is updated as

* pre-neuron fired in the coincidence window  ->  potentiate
  (``w -> 1``) with probability ``p_pot``;
* pre-neuron silent                            ->  depress
  (``w -> 0``) with probability ``p_dep``.

The expected stationary weight tracks the pre/post correlation, which
is the classic stochastic-STDP result for 1-bit synapses.  On ESAM the
update is applied column-wise through the transposed port — one read
plus one write of the post-neuron's synapse column (section 4.4.1).
"""

from __future__ import annotations

import numpy as np

from repro.binary import is_binary
from repro.errors import ConfigurationError


class StochasticSTDP:
    """Column-wise stochastic binary STDP."""

    def __init__(self, p_potentiate: float = 0.10, p_depress: float = 0.05,
                 seed: int = 99) -> None:
        for name, p in (("p_potentiate", p_potentiate), ("p_depress", p_depress)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self.p_potentiate = p_potentiate
        self.p_depress = p_depress
        self._rng = np.random.default_rng(seed)

    def update_column(self, weights: np.ndarray,
                      pre_spikes: np.ndarray) -> np.ndarray:
        """New weight column after one learning event.

        Parameters
        ----------
        weights:
            Current binary synapse column (shape ``(fan_in,)``).
        pre_spikes:
            Pre-synaptic activity in the coincidence window (0/1).
        """
        w = np.asarray(weights)
        pre = np.asarray(pre_spikes).astype(bool)
        if w.shape != pre.shape:
            raise ConfigurationError(
                f"weights {w.shape} and pre_spikes {pre.shape} must align"
            )
        if not is_binary(w):
            raise ConfigurationError("weights must be binary 0/1")
        draw = self._rng.random(w.shape)
        potentiate = pre & (draw < self.p_potentiate)
        depress = ~pre & (draw < self.p_depress)
        new = w.astype(np.uint8).copy()
        new[potentiate] = 1
        new[depress] = 0
        return new

    def expected_weight(self, correlation: float) -> float:
        """Stationary E[w] for a synapse whose pre fires with probability
        ``correlation`` at post learning events (analytic reference used
        by the property tests)."""
        if not 0.0 <= correlation <= 1.0:
            raise ConfigurationError("correlation must be in [0, 1]")
        up = correlation * self.p_potentiate
        down = (1.0 - correlation) * self.p_depress
        if up + down == 0.0:
            return 0.5
        return up / (up + down)
