"""Unit tests for the batched drain-schedule primitives (repro.tile.fast)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arbiter.cascaded import MultiPortArbiter
from repro.errors import ConfigurationError
from repro.tile.fast import (
    block_pending_counts,
    drain_schedule,
    grant_cycle_of_rows,
    saturating_accumulate,
    signed_weights,
)


class TestBlockPendingCounts:
    def test_counts_full_and_partial_blocks(self):
        spikes = np.zeros((2, 300), dtype=bool)
        spikes[0, :5] = True        # block 0
        spikes[0, 128:131] = True   # block 1
        spikes[1, 256:300] = True   # partial block 2 (44 rows wide)
        counts = block_pending_counts(spikes)
        assert counts.shape == (2, 3)
        assert counts[0].tolist() == [5, 3, 0]
        assert counts[1].tolist() == [0, 0, 44]

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            block_pending_counts(np.zeros(128, dtype=bool))


class TestDrainSchedule:
    @pytest.mark.parametrize("ports", [1, 2, 4])
    def test_matches_arbiter_drain(self, ports, rng):
        """Closed-form cycles/grants equal the clocked arbiter's."""
        for density in (0.0, 0.05, 0.3, 1.0):
            spikes = rng.random((4, 128)) < density
            schedule = drain_schedule(spikes, ports)
            for b in range(4):
                arbiter = MultiPortArbiter(128, ports)
                arbiter.submit(spikes[b])
                trace = arbiter.drain()
                assert schedule.cycles[b] == len(trace)
                assert schedule.grants[b] == sum(g.grant_count for g in trace)
                assert schedule.pending_per_block[b, 0] == spikes[b].sum()

    def test_cycles_are_max_over_blocks(self, rng):
        spikes = np.zeros((1, 256), dtype=bool)
        spikes[0, :9] = True    # block 0: ceil(9/4) = 3 cycles
        spikes[0, 128] = True   # block 1: 1 cycle
        schedule = drain_schedule(spikes, ports=4)
        assert schedule.cycles[0] == 3
        assert schedule.total_grants == 10

    def test_empty_batch_row_takes_zero_cycles(self):
        schedule = drain_schedule(np.zeros((1, 128), dtype=bool), ports=4)
        assert schedule.cycles[0] == 0
        assert schedule.grants[0] == 0

    def test_rejects_bad_ports(self):
        with pytest.raises(ConfigurationError):
            drain_schedule(np.zeros((1, 128), dtype=bool), ports=0)


class TestGrantCycleOfRows:
    @pytest.mark.parametrize("ports", [1, 3, 4])
    def test_rank_formula_matches_arbiter_trace(self, ports, rng):
        """rank(r among pending) // ports is the exact grant cycle."""
        spikes = rng.random(128) < 0.25
        rows, cycles = grant_cycle_of_rows(spikes, ports)
        arbiter = MultiPortArbiter(128, ports)
        arbiter.submit(spikes)
        for cycle, grant in enumerate(arbiter.drain()):
            mask = cycles == cycle
            assert np.array_equal(rows[mask], grant.granted_rows)

    def test_priority_order(self):
        spikes = np.zeros(16, dtype=bool)
        spikes[[2, 5, 7, 11, 13]] = True
        rows, cycles = grant_cycle_of_rows(spikes, ports=2)
        assert rows.tolist() == [2, 5, 7, 11, 13]
        assert cycles.tolist() == [0, 0, 1, 1, 2]


class TestSaturatingAccumulate:
    def test_matmul_matches_per_spike_sum(self, rng):
        weights = rng.integers(0, 2, (32, 8)).astype(np.uint8)
        spikes = (rng.random((5, 32)) < 0.5).astype(bool)
        signed = signed_weights(weights)
        out = saturating_accumulate(
            np.zeros((5, 8), dtype=np.int64), spikes, signed, -2048, 2047
        )
        expected = spikes.astype(np.int64) @ (2 * weights.astype(np.int64) - 1)
        assert np.array_equal(out, expected)

    def test_signed_weights_are_float32(self):
        signed = signed_weights(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert signed.dtype == np.float32
        assert signed.tolist() == [[-1.0, 1.0], [1.0, -1.0]]

    @pytest.mark.parametrize("rails", [(-2048, 2047), (-2**31, 2**31 - 1)],
                             ids=["12bit", "unclipped"])
    def test_float32_exact_at_full_fan_in(self, rng, rails):
        """|delta| reaches the fan-in when every input spikes over
        all-one or all-zero weights; float32 stays exact there, far
        past the reference network's 768 inputs."""
        fan_in = 8192
        weights = rng.integers(0, 2, (fan_in, 6)).astype(np.uint8)
        weights[:, 0] = 1
        weights[:, 1] = 0
        spikes = rng.random((8, fan_in)) < 0.5
        spikes[0] = True
        vmem = rng.integers(-100, 100, (8, 6))
        out = saturating_accumulate(
            vmem, spikes, signed_weights(weights), *rails
        )
        delta = spikes.astype(np.int64) @ (2 * weights.astype(np.int64) - 1)
        assert np.array_equal(out, np.clip(vmem + delta, *rails))
        assert delta[0, 0] == fan_in and delta[0, 1] == -fan_in

    def test_clips_to_register_rails(self):
        signed = signed_weights(np.ones((4, 2), dtype=np.uint8))
        spikes = np.ones((1, 4), dtype=bool)
        out = saturating_accumulate(
            np.array([[2046, -3]], dtype=np.int64), spikes, signed, -4, 2047
        )
        assert out.tolist() == [[2047, 1]]
