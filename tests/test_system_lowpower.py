"""Low-power operating modes (section 4.4.2 extension)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.system.energy import SystemEnergyModel
from repro.system.lowpower import LowPowerScaler, OperatingPoint
from repro.tech.finfet import VtFlavor
from repro.tile.network import EsamNetwork, InferenceTrace


@pytest.fixture(scope="module")
def nominal_metrics():
    rng = np.random.default_rng(42)
    weights = [rng.integers(0, 2, (128, 64)).astype(np.uint8),
               rng.integers(0, 2, (64, 10)).astype(np.uint8)]
    thresholds = [rng.integers(-5, 10, 64), np.full(10, 511)]
    net = EsamNetwork(weights, thresholds)
    trace = InferenceTrace()
    for _ in range(4):
        net.infer(rng.random(128) < 0.3, trace)
    return SystemEnergyModel(net).metrics(trace)


@pytest.fixture(scope="module")
def scaler(nominal_metrics) -> LowPowerScaler:
    return LowPowerScaler(nominal_metrics)


class TestScalingLaws:
    def test_nominal_point_is_identity(self, scaler, nominal_metrics):
        op = scaler.operating_point(0.700, VtFlavor.SVT)
        assert op.clock_period_ns == pytest.approx(
            nominal_metrics.clock_period_ns, rel=1e-6
        )
        assert op.energy_per_inf_pj == pytest.approx(
            nominal_metrics.energy_per_inference_pj, rel=1e-6
        )
        assert op.power_mw == pytest.approx(nominal_metrics.power_mw, rel=1e-6)

    def test_lower_vdd_slows_clock(self, scaler):
        assert (
            scaler.operating_point(0.5).clock_period_ns
            > 1.3 * scaler.operating_point(0.7).clock_period_ns
        )

    def test_lower_vdd_cuts_dynamic_energy_quadratically(self, scaler):
        factor = scaler.delay_factor(0.5, VtFlavor.SVT)
        assert factor > 1.0
        # Delay factor follows the alpha-power law, not linear V.
        assert factor > 0.5 / 0.7 * 1.2

    def test_hvt_slower_but_far_less_leaky(self, scaler):
        assert scaler.delay_factor(0.7, VtFlavor.HVT) == pytest.approx(
            1.45, rel=1e-6
        )
        assert scaler.leakage_factor(0.7, VtFlavor.HVT) < 0.3


class TestPaperClaim:
    """Section 4.4.2: lower VDD + HVT cuts power a lot while keeping
    energy/inference similar."""

    def test_power_reduction_significant(self, scaler):
        nominal = scaler.operating_point(0.70, VtFlavor.SVT)
        low = scaler.operating_point(0.50, VtFlavor.HVT)
        assert low.power_mw < 0.45 * nominal.power_mw

    def test_energy_per_inference_similar(self, scaler):
        nominal = scaler.operating_point(0.70, VtFlavor.SVT)
        low = scaler.operating_point(0.50, VtFlavor.HVT)
        ratio = low.energy_per_inf_pj / nominal.energy_per_inf_pj
        assert 0.5 < ratio < 1.2

    def test_underclocking_trades_power_for_throughput(self, scaler):
        base = scaler.operating_point(0.70)
        slow = scaler.operating_point(0.70, clock_slowdown=4.0)
        assert slow.throughput_inf_s == pytest.approx(
            base.throughput_inf_s / 4.0
        )
        assert slow.power_mw < base.power_mw

    def test_sweep_structure(self, scaler):
        points = scaler.sweep()
        assert len(points) == 6
        labels = {p.label for p in points}
        assert "500 mV / HVT" in labels


class TestValidation:
    def test_rejects_subthreshold_vdd(self, scaler):
        with pytest.raises(ConfigurationError):
            scaler.operating_point(0.30, VtFlavor.HVT)

    def test_rejects_bad_slowdown(self, scaler):
        with pytest.raises(ConfigurationError):
            scaler.operating_point(0.7, clock_slowdown=0.5)
