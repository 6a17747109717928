"""Unit tests for the batched drain primitives (repro.tile.fast) and
the fast engine's one-matmul tile kernel (repro.tile.engine)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.arbiter.cascaded import MultiPortArbiter
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import CellType
from repro.tile.engine import _TileKernel
from repro.tile.fast import (
    DrainSchedule,
    block_pending_counts,
    drain_matrix,
    drain_schedule,
    grant_cycle_of_rows,
)
from repro.tile.tile import Tile

#: Inference ports -> a cell that offers that many.
CELL_OF_PORTS = {
    1: CellType.C1RW1R,
    2: CellType.C1RW2R,
    3: CellType.C1RW3R,
    4: CellType.C1RW4R,
}


def make_kernel(weights: np.ndarray, ports: int = 4) -> _TileKernel:
    tile = Tile(
        weights, np.zeros(weights.shape[1], dtype=np.int64),
        config=HardwareConfig(cell_type=CELL_OF_PORTS[ports]),
    )
    return _TileKernel(tile)


def reference_delta(spikes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The int64 drain: ``spikes @ (2W - 1)``."""
    return spikes.astype(np.int64) @ (2 * weights.astype(np.int64) - 1)


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


class TestDrainMatrix:
    def test_signed_weights_then_block_indicator(self, rng):
        weights = rng.integers(0, 2, (300, 3)).astype(np.uint8)
        matrix = drain_matrix(weights)
        assert matrix.dtype == np.float32
        assert matrix.shape == (300, 3 + 3)
        assert np.array_equal(matrix[:, :3], 2 * weights.astype(np.int64) - 1)
        # Row r's indicator marks exactly its own 128-row block.
        assert np.array_equal(
            matrix[:, 3:], block_pending_counts(np.eye(300, dtype=bool))
        )


class TestTileKernel:
    @pytest.mark.parametrize("n_in", [1, 127, 128, 129, 300, 768])
    @pytest.mark.parametrize("ports", [1, 2, 3, 4])
    @pytest.mark.parametrize("start", ["zero", "residual"])
    def test_one_matmul_matches_reference_primitives(self, n_in, ports,
                                                     start, rng):
        """The kernel's schedule is ``drain_schedule``'s, field by field,
        and its membranes are the int64 ``clip(vmem + spikes @ (2W-1))``."""
        weights = rng.integers(0, 2, (n_in, 12)).astype(np.uint8)
        kernel = make_kernel(weights, ports)
        spikes = rng.random((9, n_in)) < rng.random((9, 1))
        spikes[0] = True
        spikes[1] = False
        vmem = np.zeros((9, 12), dtype=np.int64)
        if start == "residual":
            vmem[0] = rng.integers(-1000, 1000, 12)
        schedule, out = kernel.process(
            None if start == "zero" else vmem, spikes
        )
        expected = drain_schedule(spikes, ports)
        for field in dataclasses.fields(DrainSchedule):
            got = getattr(schedule, field.name)
            want = getattr(expected, field.name)
            assert np.array_equal(got, want), field.name
            assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(
            out,
            np.clip(vmem + reference_delta(spikes, weights), -2048, 2047),
        )

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("rails", [(-2048, 2047), (-2**31, 2**31 - 1)],
                             ids=["12bit", "unclipped"])
    def test_float32_exact_at_full_fan_in(self, rng, rails, start):
        """|delta| reaches the fan-in when every input spikes over
        all-one or all-zero weights; float32 stays exact there, far
        past the reference network's 768 inputs, and a 12-bit drain
        from zero rails out."""
        fan_in = 8192
        weights = rng.integers(0, 2, (fan_in, 6)).astype(np.uint8)
        weights[:, 0] = 1
        weights[:, 1] = 0
        kernel = make_kernel(weights)
        kernel.vmem_min, kernel.vmem_max = rails
        spikes = rng.random((8, fan_in)) < 0.5
        spikes[0] = True
        vmem = np.zeros((8, 6), dtype=np.int64)
        if start == "random":
            vmem = rng.integers(-100, 100, (8, 6))
        _, out = kernel.process(None if start == "zero" else vmem, spikes)
        delta = reference_delta(spikes, weights)
        assert np.array_equal(out, np.clip(vmem + delta, *rails))
        assert delta[0, 0] == fan_in and delta[0, 1] == -fan_in

    def test_clips_to_register_rails(self):
        """Drains that run into a rail stop there, from either side."""
        weights = np.zeros((4, 2), dtype=np.uint8)
        weights[:, 0] = 1
        kernel = make_kernel(weights)
        start = np.array([[2046, -3], [0, -2046]], dtype=np.int64)
        _, out = kernel.process(start, np.ones((2, 4), dtype=bool))
        assert out.tolist() == [[2047, -7], [4, -2048]]
