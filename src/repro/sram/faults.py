"""Weight-memory fault injection (soft-error robustness study).

SRAM-based weight storage at advanced nodes is exposed to soft errors
(SEUs) and retention faults; a practical deployment question for an
edge accelerator like ESAM is how gracefully classification degrades
as stored weight bits flip.  This module injects uniform random bit
flips into the binary weight matrices and measures the effect — the
foundation of the Monte-Carlo campaigns in :mod:`repro.reliability`.

Two injection targets, driven by the *same* random draws so they are
provably interchangeable (``tests/test_reliability_differential.py``):

* :meth:`FaultInjector.faulty_model_for_trial` — pure-array fault
  injection (:func:`flip_bits`) into the functional model (fast, used
  for bit-error-rate sweeps);
* :meth:`FaultInjector.apply_trial` — injection into a hardware
  network's macros through their normal load path, so the
  cycle-accurate and fast engines see the same faults.

Both paths draw their masks through one helper, :func:`_flip`, which
draws each layer's flipped positions directly: it walks the flattened
layer by geometric gaps between successive flips, one uniform a flip,
and XORs the positions into a copy of the weights.  A layer of ``n``
bits thus costs about ``n * rate`` draws, not ``n``.  :func:`flip_bits`
checks its input and then calls it; an injector checks its clean
weights once, at construction, and then draws every trial's layers
with it.  A trial at bit-error rate 0 builds no generator: the walk
draws nothing at rate 0, so skipping it changes no mask, no count and
no other trial.

Seeding contract
----------------
Fault masks derive from the network's :class:`~repro.hw.config.
HardwareConfig` seed (``config=``, default the paper's design point):
two configs that differ only by seed draw *different* masks,
and two runs of the same config draw identical ones.  Per-trial streams
come from :func:`trial_seed_sequence` — a ``np.random.SeedSequence``
spawned off the config seed keyed by (bit-error rate, trial index) —
so a Monte-Carlo campaign evaluates trial ``k`` to the same mask no
matter how trials are partitioned across points, shards or workers.
"""

from __future__ import annotations

import numpy as np

from repro.binary import is_binary
from repro.errors import ConfigurationError
from repro.snn.model import BinarySNN


def trial_seed_sequence(seed: int, bit_error_rate: float,
                        trial: int) -> np.random.SeedSequence:
    """The deterministic RNG root of one Monte-Carlo fault trial.

    Derived from the hardware config ``seed`` via ``SeedSequence``
    spawn keys — the documented way to fork independent streams — with
    the bit-error rate's IEEE-754 bits and the trial index as the key,
    so:

    * different config seeds give unrelated mask streams (the latent
      shared-mask bug this replaces);
    * different bit-error rates do not share draws (no correlated
      masks across the campaign's BER axis);
    * trial ``k`` is self-identifying: any partition of trials over
      campaign points reproduces it bit-identically.
    """
    _check_trial(trial)
    ber_bits = int(np.float64(bit_error_rate).view(np.uint64))
    return np.random.SeedSequence(
        seed, spawn_key=(ber_bits >> 32, ber_bits & 0xFFFFFFFF, trial)
    )


def flip_bits(weights: np.ndarray, bit_error_rate: float,
              rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Flip each bit of ``weights`` independently with the given rate.

    Returns the faulty copy and the number of flipped bits.  Only the
    flipped positions are drawn (:func:`_flip`), about one uniform per
    flip, so identically-seeded generators produce identical masks (and
    applying the same mask twice restores the original weights — XOR is
    involutive).  At rates 0 and 1 the outcome is certain and nothing is
    drawn: ``rng`` does not advance.
    """
    _check_rate(bit_error_rate)
    return _flip(_binary_uint8(weights), bit_error_rate, rng)


def _flip(weights: np.ndarray, bit_error_rate: float,
          rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """The mask draw of both fault paths, on checked ``uint8`` weights.

    Walks the flattened (C-order) weights by the gaps between successive
    flips.  Each gap takes one uniform ``u`` in (0, 1] and is
    ``floor(log(u) / log1p(-rate)) + 1``, a geometric draw with
    parameter ``rate``, which is the law of the distance to the next
    success of independent Bernoulli(``rate``) bits.  The uniforms come
    in chunks of ``m + 4 * sqrt(m) + 1``, ``m`` the expected flips among
    the bits left, so one chunk almost always covers the layer; the walk
    draws another only if it has not yet passed the last bit.  Each
    gap's whole part is clamped at the layer size before the integer
    cast: at a subnormal rate the quotient is ``inf``.
    """
    flipped = weights.copy()
    n = flipped.size
    if bit_error_rate == 0.0 or not n:
        return flipped, 0
    if bit_error_rate == 1.0:
        flipped ^= 1
        return flipped, n
    flat = flipped.reshape(-1)
    log_keep = np.log1p(-bit_error_rate)
    positions, last = [], -1
    while last < n - 1:
        expected = (n - 1 - last) * bit_error_rate
        u = 1.0 - rng.random(int(expected + 4.0 * np.sqrt(expected)) + 1)
        with np.errstate(over="ignore"):
            skipped = np.minimum(np.floor(np.log(u) / log_keep), n)
        walk = last + np.cumsum(skipped.astype(np.int64) + 1)
        positions.append(walk[:np.searchsorted(walk, n)])
        last = int(walk[-1])
    hits = np.concatenate(positions)
    flat[hits] ^= 1
    return flipped, int(hits.size)


def _binary_uint8(weights) -> np.ndarray:
    """``weights`` as ``uint8``, checked to hold only 0 and 1 first."""
    weights = np.asarray(weights)
    if not is_binary(weights):
        raise ConfigurationError("weights must be binary 0/1")
    return weights.astype(np.uint8, copy=False)


def _check_rate(bit_error_rate: float) -> None:
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ConfigurationError(
            f"bit_error_rate must be in [0, 1], got {bit_error_rate}"
        )


def _check_trial(trial: int) -> None:
    if trial < 0:
        raise ConfigurationError(f"trial index must be >= 0, got {trial}")


class FaultInjector:
    """Injects weight-bit faults into functional models and networks.

    Parameters
    ----------
    weights / thresholds / output_bias:
        The *clean* converted network parameters.  Trial injection
        always starts from these, never from previously-faulted state.
        Each weight matrix must hold only 0 and 1; it is checked here,
        once, and never again per trial.
    config:
        The :class:`~repro.hw.config.HardwareConfig` whose ``seed``
        drives every fault mask (default: the paper's design point).
    """

    def __init__(self, weights: list[np.ndarray], thresholds: list[np.ndarray],
                 output_bias: np.ndarray | None = None, config=None) -> None:
        if not weights:
            raise ConfigurationError("at least one layer required")
        if config is None:
            # Imported here: repro.hw imports repro.sram.
            from repro.hw.config import HardwareConfig

            config = HardwareConfig()
        # A copy each, so no caller's later write reaches the clean
        # weights every trial starts from.
        self.weights = [_binary_uint8(w).copy() for w in weights]
        self.thresholds = [np.asarray(t) for t in thresholds]
        self.output_bias = output_bias
        self.seed = config.seed

    # -- per-trial streams (Monte-Carlo campaigns) --------------------------------

    def trial_rng(self, bit_error_rate: float,
                  trial: int) -> np.random.Generator:
        """The self-seeded generator of one (BER, trial) cell."""
        return np.random.default_rng(
            trial_seed_sequence(self.seed, bit_error_rate, trial)
        )

    def faulty_weights_for_trial(self, bit_error_rate: float, trial: int,
                                 ) -> tuple[list[np.ndarray], int]:
        """Clean weights with trial ``trial``'s fault mask applied.

        Layers consume the trial stream in order, so the functional
        path (:meth:`faulty_model_for_trial`) and the hardware path
        (:meth:`apply_trial`) flip exactly the same bits, and both equal
        :func:`flip_bits` applied layer by layer to one
        :meth:`trial_rng` stream.  At rate 0 no generator is built: the
        result is a copy of the clean weights and 0 flips, which is what
        that draw would give.
        """
        _check_trial(trial)
        _check_rate(bit_error_rate)
        if bit_error_rate == 0.0:
            return [w.copy() for w in self.weights], 0
        rng = self.trial_rng(bit_error_rate, trial)
        faulty, total = [], 0
        for w in self.weights:
            fw, flips = _flip(w, bit_error_rate, rng)
            faulty.append(fw)
            total += flips
        return faulty, total

    def faulty_model_for_trial(self, bit_error_rate: float, trial: int,
                               ) -> tuple[BinarySNN, int]:
        """Functional model with trial ``trial``'s faults injected."""
        faulty, flips = self.faulty_weights_for_trial(bit_error_rate, trial)
        return BinarySNN(faulty, self.thresholds, self.output_bias), flips

    def apply_trial(self, network, bit_error_rate: float, trial: int) -> int:
        """Load trial ``trial``'s faulty weights into a hardware network.

        Always derives from the injector's *clean* weights (not the
        network's current contents), so consecutive trials on one
        network are independent — the vectorized evaluation loop of
        :class:`~repro.reliability.runner.ReliabilityRunner`.  Returns
        the number of flipped bits.
        """
        faulty, flips = self.faulty_weights_for_trial(bit_error_rate, trial)
        self._load_network(network, faulty)
        return flips

    def _load_network(self, network, matrices: list[np.ndarray]) -> None:
        if len(network.tiles) != len(matrices):
            raise ConfigurationError(
                f"network has {len(network.tiles)} tiles but the injector "
                f"holds {len(matrices)} weight matrices"
            )
        for tile, matrix in zip(network.tiles, matrices):
            tile.load_weights(matrix)
            tile.note_weight_update()
