"""System configuration (hardware topology, evaluator sample size,
calibration constants) and result containers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import PAPER_LAYER_SIZES, HardwareConfig
from repro.sram.bitcell import CellType
from repro.system.config import (
    CLOCK_ENERGY_PER_TILE_CYCLE_PJ,
    PERIPHERY_STATIC_MW,
)
from repro.system.energy import SystemMetrics
from repro.system.evaluate import SystemEvaluator


class TestConfiguration:
    def test_evaluator_defaults_match_paper(self, fast_model):
        evaluator = SystemEvaluator(sample_images=2, snn=fast_model.snn)
        assert evaluator.config.layer_sizes == (768, 256, 256, 256, 10)
        assert evaluator.config.cell_type is CellType.C1RW4R
        assert evaluator.config.vprech == 0.500
        assert evaluator.sample_images == 2

    def test_paper_layer_sizes_constant(self):
        assert PAPER_LAYER_SIZES[0] == 768
        assert PAPER_LAYER_SIZES[-1] == 10

    def test_calibration_constants_positive(self):
        assert CLOCK_ENERGY_PER_TILE_CYCLE_PJ > 0.0
        assert PERIPHERY_STATIC_MW > 0.0

    def test_rejects_single_layer(self):
        with pytest.raises(ConfigurationError):
            HardwareConfig(layer_sizes=(128,))

    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigurationError, match="sample_images"):
            SystemEvaluator(sample_images=0)

    def test_rejects_bad_vprech(self):
        with pytest.raises(ConfigurationError):
            HardwareConfig(vprech=0.9)


class TestResultContainers:
    def _metrics(self) -> SystemMetrics:
        return SystemMetrics(
            cell_type_label="1RW+4R",
            clock_period_ns=1.2346,
            cycles_per_inference=17.5,
            latency_ns=80.0,
            inference_time_ns=21.6,
            dynamic_energy_pj=366.0,
            clock_energy_pj=142.0,
            leakage_energy_pj=98.0,
            area_um2=19_900.0,
        )

    def test_hardware_report_summary(self):
        from repro.core.results import HardwareReport

        report = HardwareReport(images=10, metrics=self._metrics())
        text = report.summary()
        assert "1RW+4R" in text
        assert "MInf/s" in text
        assert report.energy_per_inference_pj == pytest.approx(606.0)
        assert report.throughput_minf_s == pytest.approx(46.3, abs=0.2)

    def test_classification_result_accuracy(self):
        from repro.core.results import ClassificationResult, HardwareReport

        report = HardwareReport(images=4, metrics=self._metrics())
        result = ClassificationResult(
            predictions=np.array([1, 2, 3, 4]),
            labels=np.array([1, 2, 0, 4]),
            report=report,
        )
        assert result.accuracy == pytest.approx(0.75)

    def test_metrics_power_consistent_with_paper_point(self):
        m = self._metrics()
        assert m.power_mw == pytest.approx(28.1, abs=0.2)
