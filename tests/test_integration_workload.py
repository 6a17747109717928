"""Workload-level integration: the paper's cycle arithmetic end to end."""

import numpy as np
import pytest

from repro.hw.config import HardwareConfig
from repro.snn.encode import encode_images
from repro.sram.bitcell import CellType
from repro.tile.network import EsamNetwork, InferenceTrace


class TestPaperWorkloadArithmetic:
    """Section 4.4.2 structure checks on the real trained network."""

    @pytest.fixture(scope="class")
    def traced(self, fast_model):
        snn = fast_model.snn
        network = EsamNetwork(
            snn.weights, snn.thresholds, output_bias=snn.output_bias,
            config=HardwareConfig(cell_type=CellType.C1RW4R),
        )
        trace = InferenceTrace()
        spikes = encode_images(fast_model.dataset.test_images[:12])
        for s in spikes:
            network.infer(s, trace)
        return network, trace, spikes

    def test_first_layer_uses_six_arbiters(self, traced):
        network, _, _ = traced
        assert len(network.tiles[0].arbiters) == 6
        assert len(network.tiles[1].arbiters) == 2

    def test_array_grid_matches_paper_mapping(self, traced):
        network, _, _ = traced
        counts = [t.mapping.array_count for t in network.tiles]
        assert counts == [12, 4, 4, 2]

    def test_cycles_consistent_with_grants_and_ports(self, traced):
        """Each tile's cycles >= its per-arbiter spike load / ports."""
        network, trace, _ = traced
        n = trace.images
        for tile, cycles in zip(network.tiles, trace.per_tile_cycles):
            spikes = tile.stats.input_spikes / n
            lower_bound = spikes / (len(tile.arbiters) * tile.ports)
            assert cycles / n >= lower_bound

    def test_bottleneck_in_expected_band(self, traced):
        """44 MInf/s at 810 MHz implies ~18 cycles/inference; the
        trained network should land in that neighbourhood."""
        _, trace, _ = traced
        bottleneck = trace.bottleneck_cycles / trace.images
        assert 10.0 < bottleneck < 35.0

    def test_grants_equal_spikes(self, traced):
        network, trace, spikes = traced
        total_input = int(spikes.sum())
        l1_grants = network.tiles[0].stats.grants
        assert l1_grants == total_input

    def test_reads_scale_with_column_blocks(self, traced):
        network, _, _ = traced
        for tile in network.tiles:
            assert tile.stats.array_reads == (
                tile.stats.grants * tile.mapping.col_blocks
            )

    def test_throughput_order_of_magnitude(self, traced):
        network, trace, _ = traced
        bottleneck = trace.bottleneck_cycles / trace.images
        throughput_minf = 1e3 / (bottleneck * network.clock_period_ns)
        assert 20.0 < throughput_minf < 90.0
