"""Cross-module integration: trained network through the full stack."""

import numpy as np
import pytest

from repro.hw.config import HardwareConfig
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.snn.encode import encode_images
from repro.snn.simulate import evaluate_accuracy
from repro.sweep import DesignPoint, evaluate_point
from repro.tile.network import EsamNetwork, InferenceTrace


class TestHardwareVsFunctional:
    """The cycle-accurate simulator and the batched functional model
    implement the same mathematics."""

    @pytest.mark.parametrize("cell", [CellType.C6T, CellType.C1RW4R])
    def test_trained_network_predictions_identical(self, fast_model, cell):
        snn = fast_model.snn
        network = EsamNetwork(
            snn.weights, snn.thresholds, output_bias=snn.output_bias,
            config=HardwareConfig(cell_type=cell),
        )
        spikes = encode_images(fast_model.dataset.test_images[:8])
        functional = snn.to_model().classify(spikes)
        hardware = np.array([network.classify(s) for s in spikes])
        assert (hardware == functional).all()

    def test_membrane_scores_identical(self, fast_model):
        snn = fast_model.snn
        network = EsamNetwork(
            snn.weights, snn.thresholds, output_bias=snn.output_bias,
        )
        spikes = encode_images(fast_model.dataset.test_images[:4])
        sw = snn.to_model().forward(spikes)
        hw = np.stack([network.infer(s) for s in spikes])
        assert np.allclose(hw, sw)


class TestAccuracyPipeline:
    def test_functional_accuracy_matches_reference(self, fast_model):
        report = evaluate_accuracy(
            fast_model.snn.to_model(),
            fast_model.dataset.test_images,
            fast_model.dataset.test_labels,
        )
        assert report.accuracy == pytest.approx(fast_model.test_accuracy)
        assert report.total == fast_model.dataset.n_test

    def test_per_class_accuracy_reported(self, fast_model):
        report = evaluate_accuracy(
            fast_model.snn.to_model(),
            fast_model.dataset.test_images[:200],
            fast_model.dataset.test_labels[:200],
        )
        assert report.per_class_accuracy.shape == (10,)

    def test_per_class_matches_explicit_loop(self, fast_model):
        images = fast_model.dataset.test_images[:200]
        labels = fast_model.dataset.test_labels[:200]
        model = fast_model.snn.to_model()
        report = evaluate_accuracy(model, images, labels)
        predictions = model.classify(encode_images(images))
        for c in range(10):
            mask = labels == c
            expected = (predictions[mask] == c).mean() if mask.any() else 0.0
            assert report.per_class_accuracy[c] == pytest.approx(expected)

    def test_out_of_range_labels_are_misses(self, fast_model):
        """Stray labels count against accuracy without corrupting the
        per-class vector shape."""
        images = fast_model.dataset.test_images[:20]
        labels = fast_model.dataset.test_labels[:20].copy()
        labels[0] = 12
        labels[1] = -3
        report = evaluate_accuracy(fast_model.snn.to_model(), images, labels)
        assert report.per_class_accuracy.shape == (10,)
        assert report.total == 20


class TestEvaluatorSweep:
    @pytest.fixture(scope="class")
    def evaluate(self, fast_model):
        """The metrics of ``cell`` (and any other hardware axes) over a
        6-input sample."""
        def evaluate(cell, **axes):
            point = DesignPoint(cell_type=cell, sample_images=6, **axes)
            return evaluate_point(point, fast_model.snn)
        return evaluate

    def test_throughput_improves_with_ports(self, evaluate):
        rows = [
            evaluate(c)
            for c in (CellType.C1RW1R, CellType.C1RW2R, CellType.C1RW4R)
        ]
        throughputs = [r.throughput_minf_s for r in rows]
        assert throughputs[0] < throughputs[1] < throughputs[2]

    def test_energy_per_inf_improves_with_ports(self, evaluate):
        e1 = evaluate(CellType.C1RW1R).energy_per_inference_pj
        e4 = evaluate(CellType.C1RW4R).energy_per_inference_pj
        assert e4 < e1

    def test_area_grows_with_ports(self, evaluate):
        a6 = evaluate(CellType.C6T).area_mm2
        a4 = evaluate(CellType.C1RW4R).area_mm2
        assert 1.8 < a4 / a6 < 3.0

    def test_vprech_override(self, evaluate):
        """Running the decoupled ports at VDD must cost energy."""
        e500 = evaluate(CellType.C1RW4R)
        e700 = evaluate(CellType.C1RW4R, vprech=0.7)
        assert e700.energy_per_inference_pj > e500.energy_per_inference_pj

    def test_figure8_keeps_the_clock_override(self, fast_model):
        """A pinned clock holds for all five cells: the cell is the only
        axis a figure-8 point changes."""
        pinned = HardwareConfig(clock_period_ns=3.0)
        rows = [
            evaluate_point(
                DesignPoint(hardware=pinned, cell_type=cell,
                            sample_images=2),
                fast_model.snn,
            )
            for cell in ALL_CELLS
        ]
        assert [row.cell_type_label for row in rows] == [
            cell.value for cell in ALL_CELLS
        ]
        for row in rows:
            assert row.clock_period_ns == 3.0


class TestTraceConsistency:
    def test_trace_reads_match_tile_stats(self, fast_model):
        snn = fast_model.snn
        network = EsamNetwork(snn.weights, snn.thresholds,
                              output_bias=snn.output_bias)
        trace = InferenceTrace()
        spikes = encode_images(fast_model.dataset.test_images[:3])
        for s in spikes:
            network.infer(s, trace)
        assert trace.images == 3
        total_reads = sum(t.stats.array_reads for t in network.tiles)
        assert trace.total_array_reads == total_reads
        assert trace.total_grants <= trace.total_array_reads
