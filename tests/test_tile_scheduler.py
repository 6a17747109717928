"""Pipelined scheduler: outputs and the initiation-interval assumption."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import CellType
from repro.tile.network import EsamNetwork, InferenceTrace
from repro.tile.scheduler import PipelinedScheduler


def build_network(rng, sizes=(128, 64, 32, 10), cell=CellType.C1RW4R):
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(sizes[:-1], sizes[1:])
    ]
    thresholds = [rng.integers(-5, 10, b) for b in sizes[1:-1]]
    thresholds.append(np.full(sizes[-1], 511))
    bias = rng.normal(0, 1, sizes[-1])
    return EsamNetwork(weights, thresholds, output_bias=bias,
                       config=HardwareConfig(cell_type=cell))


class TestCorrectness:
    def test_outputs_match_sequential(self, rng):
        net_pipe = build_network(rng)
        rng2 = np.random.default_rng(12345)
        net_seq = build_network(rng2)  # identical weights via same seed path
        # Rebuild with the same generator state is fiddly; instead run
        # the same network sequentially first, then pipelined.
        spikes = (np.random.default_rng(5).random((6, 128)) < 0.3)
        sequential = [net_pipe.infer(s) for s in spikes]
        net_pipe.reset_stats()
        report = PipelinedScheduler(net_pipe).run(spikes)
        for seq, pipe in zip(sequential, report.outputs):
            assert np.allclose(seq, pipe)

    def test_single_image(self, rng):
        net = build_network(rng)
        spikes = np.random.default_rng(6).random((1, 128)) < 0.3
        report = PipelinedScheduler(net).run(spikes)
        assert report.images == 1
        assert len(report.outputs) == 1

    def test_empty_batch_rejected(self, rng):
        net = build_network(rng)
        with pytest.raises(ConfigurationError):
            PipelinedScheduler(net).run(np.zeros((0, 128), dtype=bool))

    def test_width_checked(self, rng):
        net = build_network(rng)
        with pytest.raises(ConfigurationError):
            PipelinedScheduler(net).run(np.zeros((2, 64), dtype=bool))


class TestThroughputModel:
    """The analytic model uses max-tile-cycles as the steady-state
    initiation interval; the discrete pipeline must agree closely."""

    @pytest.mark.parametrize("cell", [CellType.C1RW1R, CellType.C1RW4R])
    def test_sustained_interval_close_to_bottleneck(self, rng, cell):
        net = build_network(rng, cell=cell)
        spike_rng = np.random.default_rng(7)
        spikes = spike_rng.random((12, 128)) < 0.3
        # Analytic bottleneck from a sequential trace.
        trace = InferenceTrace()
        for s in spikes:
            net.infer(s, trace)
        bottleneck = trace.bottleneck_cycles / trace.images
        net.reset_stats()
        report = PipelinedScheduler(net).run(spikes)
        measured = report.sustained_cycles_per_image
        # Hand-off/fire overheads allow a small constant gap.
        assert measured == pytest.approx(bottleneck, abs=3.0)

    def test_pipeline_beats_sequential_latency_sum(self, rng):
        net = build_network(rng)
        spikes = np.random.default_rng(8).random((10, 128)) < 0.3
        trace = InferenceTrace()
        for s in spikes:
            net.infer(s, trace)
        sequential_total = trace.latency_cycles  # sum over tiles, all imgs
        net.reset_stats()
        report = PipelinedScheduler(net).run(spikes)
        assert report.total_cycles < sequential_total

    def test_latency_at_least_fill_depth(self, rng):
        net = build_network(rng)
        spikes = np.random.default_rng(9).random((3, 128)) < 0.3
        report = PipelinedScheduler(net).run(spikes)
        for latency in report.image_latency_cycles:
            assert latency >= len(net.tiles)

    def test_stalls_occur_with_unbalanced_tiles(self, rng):
        """A heavy late tile forces upstream back-pressure."""
        weights = [
            rng.integers(0, 2, (128, 128)).astype(np.uint8),
            rng.integers(0, 2, (128, 10)).astype(np.uint8),
        ]
        thresholds = [np.full(128, -200), np.full(10, 511)]  # all fire
        net = EsamNetwork(weights, thresholds)
        spikes = np.random.default_rng(10).random((6, 128)) < 0.1
        report = PipelinedScheduler(net).run(spikes)
        # Tile 2 always drains 128 spikes; tile 1 only ~13 -> stalls.
        assert report.stall_cycles > 0
