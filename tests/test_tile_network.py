"""Cascaded-tile network: end-to-end correctness and traces."""

import numpy as np
import pytest

from repro.binary import is_binary
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.snn.model import BinarySNN
from repro.sram.bitcell import CellType
from repro.tile.network import EsamNetwork, InferenceTrace, validate_spikes


def build_random_network(rng, sizes=(256, 128, 64, 10),
                         cell=CellType.C1RW4R) -> tuple[EsamNetwork, BinarySNN]:
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(sizes[:-1], sizes[1:])
    ]
    thresholds = [
        rng.integers(-5, 15, b) for b in sizes[1:-1]
    ] + [np.full(sizes[-1], 511)]
    bias = rng.normal(0, 2, sizes[-1])
    net = EsamNetwork(weights, thresholds, output_bias=bias,
                      config=HardwareConfig(cell_type=cell))
    ref = BinarySNN(weights, thresholds, bias)
    return net, ref


class TestSpikeValidation:
    def test_accepts_01_in_every_binary_dtype(self, rng, binary_dtype):
        spikes = rng.random((3, 64)) < 0.3
        for batch, x in ((False, spikes[0]), (True, spikes)):
            out = validate_spikes(x.astype(binary_dtype), 64, batch=batch)
            assert out.dtype == np.bool_ and (out == x).all()

    def test_rejects_non_binary(self, non_binary):
        assert not is_binary(non_binary(64))
        with pytest.raises(ConfigurationError, match="0/1"):
            validate_spikes(non_binary(64), 64)
        with pytest.raises(ConfigurationError, match="0/1"):
            validate_spikes(non_binary((2, 64)), 64, batch=True)

    def test_a_row_comes_back_as_a_private_read_only_copy(
            self, rng, binary_dtype):
        row = (rng.random(64) < 0.3).astype(binary_dtype)
        assert is_binary(row)
        out = validate_spikes(row, 64)
        assert not out.flags.writeable
        assert not np.shares_memory(out, row)
        row[:] = 1 - row
        assert (out != row.astype(bool)).all()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_one_byte_rows_agree_with_is_binary_on_every_byte(self, dtype):
        # The byte check of a one-byte row must accept and reject
        # exactly what is_binary does.
        for byte in range(256):
            row = np.zeros(64, dtype=np.uint8)
            row[7] = byte
            row = row.view(dtype)
            if is_binary(row):
                assert (validate_spikes(row, 64) == row.astype(bool)).all()
            else:
                with pytest.raises(ConfigurationError, match="0/1"):
                    validate_spikes(row, 64)


class TestEquivalenceWithFunctionalModel:
    @pytest.mark.parametrize("cell", [CellType.C6T, CellType.C1RW2R,
                                      CellType.C1RW4R])
    def test_scores_match(self, rng, cell):
        net, ref = build_random_network(rng, cell=cell)
        for _ in range(4):
            spikes = rng.random(256) < 0.3
            hw = net.infer(spikes)
            sw = ref.forward(spikes)[0]
            assert np.allclose(hw, sw)

    def test_classification_matches(self, rng):
        net, ref = build_random_network(rng)
        spikes = (rng.random((8, 256)) < 0.3)
        hw = np.array([net.classify(s) for s in spikes])
        sw = ref.classify(spikes)
        assert (hw == sw).all()


class TestTrace:
    def test_trace_accumulates(self, rng):
        net, _ = build_random_network(rng)
        trace = InferenceTrace()
        for _ in range(3):
            net.infer(rng.random(256) < 0.3, trace)
        assert trace.images == 3
        assert len(trace.per_tile_cycles) == 3
        assert trace.bottleneck_cycles >= 1
        assert trace.latency_cycles >= trace.bottleneck_cycles

    def test_empty_trace(self):
        trace = InferenceTrace()
        assert trace.bottleneck_cycles == 0
        assert trace.latency_cycles == 0


class TestStructure:
    def test_layer_sizes(self, rng):
        net, _ = build_random_network(rng)
        assert net.layer_sizes == [256, 128, 64, 10]

    def test_paper_counts(self, rng):
        """Paper network: 778 neurons, 330K synapses."""
        sizes = (768, 256, 256, 256, 10)
        weights = [
            rng.integers(0, 2, (a, b)).astype(np.uint8)
            for a, b in zip(sizes[:-1], sizes[1:])
        ]
        thresholds = [np.zeros(b, dtype=np.int64) for b in sizes[1:]]
        net = EsamNetwork(weights, thresholds)
        assert net.neuron_count == 778
        assert net.synapse_count == 330_240

    def test_clock_period_follows_cell(self, rng):
        net, _ = build_random_network(rng, cell=CellType.C1RW4R)
        assert net.clock_period_ns == pytest.approx(1.2346, rel=1e-3)

    def test_width_mismatch_rejected(self, rng):
        w1 = rng.integers(0, 2, (64, 32)).astype(np.uint8)
        w2 = rng.integers(0, 2, (48, 10)).astype(np.uint8)
        with pytest.raises(ConfigurationError):
            EsamNetwork([w1, w2], [np.zeros(32), np.zeros(10)])

    def test_bias_shape_checked(self, rng):
        w = rng.integers(0, 2, (64, 10)).astype(np.uint8)
        with pytest.raises(ConfigurationError):
            EsamNetwork([w], [np.zeros(10)], output_bias=np.zeros(5))

    def test_reset_stats(self, rng):
        net, _ = build_random_network(rng)
        net.infer(rng.random(256) < 0.3)
        net.reset_stats()
        assert net.dynamic_energy_pj() == 0.0
