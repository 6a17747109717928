"""Property-based tests of the fault-campaign invariants (hypothesis).

Two families:

* ``flip_bits`` statistics — the flip count is binomially consistent
  with ``n * BER`` and the masking is involutive (the same stream
  applied twice restores the weights bit for bit);
* campaign determinism — from one ``HardwareConfig`` seed, *any*
  shard count and *any* partition of the Monte-Carlo trials across
  fault points reproduces bit-identical ``CampaignResult`` rows.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import (
    FaultCampaignSpec,
    FaultPoint,
    ReliabilityRunner,
    evaluate_fault_point,
)
from repro.sram.faults import FaultInjector, flip_bits, trial_seed_sequence

pytestmark = pytest.mark.campaign

QUALITY = "fast"
SAMPLE = 4


class TestFlipBitsStatistics:
    @given(
        ber=st.sampled_from([0.01, 0.1, 0.5, 0.9]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_flip_count_is_binomially_consistent(self, ber, seed):
        """flips ~ Binomial(n, BER): always within 6 sigma of n*BER
        (a bound a correct implementation crosses ~1e-9 of the time)."""
        n = 120 * 120
        weights = np.zeros((120, 120), dtype=np.uint8)
        _, flips = flip_bits(weights, ber, np.random.default_rng(seed))
        sigma = np.sqrt(n * ber * (1.0 - ber))
        assert abs(flips - n * ber) <= 6.0 * sigma

    @given(
        ber=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_flipping_the_same_mask_twice_is_involutive(self, ber, seed):
        """XOR masking restores the original weights when the identical
        stream is replayed — the property trial re-runs rely on."""
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 2, (37, 23)).astype(np.uint8)
        once, flips_a = flip_bits(
            weights, ber, np.random.default_rng(seed + 1)
        )
        twice, flips_b = flip_bits(
            once, ber, np.random.default_rng(seed + 1)
        )
        assert flips_a == flips_b
        assert np.array_equal(twice, weights)

    @given(seed=st.integers(0, 2**31 - 1), trial=st.integers(0, 512))
    @settings(max_examples=40, deadline=None)
    def test_trial_streams_reproduce_and_diverge(self, seed, trial):
        draws = np.random.default_rng(
            trial_seed_sequence(seed, 1e-3, trial)
        ).random(8)
        again = np.random.default_rng(
            trial_seed_sequence(seed, 1e-3, trial)
        ).random(8)
        other_trial = np.random.default_rng(
            trial_seed_sequence(seed, 1e-3, trial + 1)
        ).random(8)
        assert np.array_equal(draws, again)
        assert not np.array_equal(draws, other_trial)


@pytest.mark.slow
class TestCampaignDeterminism:
    @given(
        split=st.integers(1, 5),
        ber=st.sampled_from([1e-3, 5e-2]),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_partition_of_trials_is_bit_identical(self, split, ber):
        """Six trials evaluated as one point equal any 2-way split —
        trial masks are absolute, not positional."""
        full = FaultPoint(bit_error_rate=ber, trials=6,
                          sample_images=SAMPLE, quality=QUALITY)
        head = dataclasses.replace(full, trials=split, trial_start=0)
        tail = dataclasses.replace(full, trials=6 - split,
                                   trial_start=split)
        full_acc, full_flips = evaluate_fault_point(full)
        head_acc, head_flips = evaluate_fault_point(head)
        tail_acc, tail_flips = evaluate_fault_point(tail)
        assert full_acc == head_acc + tail_acc
        assert full_flips == head_flips + tail_flips

    @given(n_workers=st.sampled_from([2, 3]))
    @settings(max_examples=2, deadline=None)
    def test_any_shard_count_is_bit_identical(self, n_workers):
        """n_workers shards of the campaign reproduce the serial run,
        rows and curves, float for float."""
        spec = FaultCampaignSpec(
            name="prop", bit_error_rates=(0.0, 5e-2), trials=2,
            corners=("typical", "slow"), sample_images=SAMPLE,
            quality=QUALITY,
        )
        serial = ReliabilityRunner(spec, n_workers=1, cache=None).run()
        sharded = ReliabilityRunner(
            spec, n_workers=n_workers, cache=None,
        ).run()
        for a, b in zip(serial.rows, sharded.rows):
            assert a.point == b.point
            assert a.accuracies == b.accuracies
            assert a.flipped_bits == b.flipped_bits
        assert serial.curves == sharded.curves

    def test_repeated_runs_share_every_mask(self):
        """Determinism end to end: two fresh injectors over the same
        config seed replay identical mask sequences for a whole trial
        schedule."""
        from repro.hw.config import HardwareConfig

        rng = np.random.default_rng(3)
        weights = [rng.integers(0, 2, (64, 12)).astype(np.uint8)]
        thresholds = [np.full(12, 511)]
        config = HardwareConfig(seed=11)
        a = FaultInjector(weights, thresholds, config=config)
        b = FaultInjector(weights, thresholds, config=config)
        for trial in range(4):
            for ber in (1e-3, 5e-2):
                fa, na = a.faulty_weights_for_trial(ber, trial)
                fb, nb = b.faulty_weights_for_trial(ber, trial)
                assert na == nb
                assert all(np.array_equal(x, y) for x, y in zip(fa, fb))
