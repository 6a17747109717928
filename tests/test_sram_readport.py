"""Figure 7: decoupled read-port precharge/sense model."""

import gc
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import CellType
from repro.sram.readport import (
    CLOCK_PERIOD_NS,
    INFERENCE_READ_TIME_6T_NS,
    ReadPortModel,
)
from repro.tech.constants import FIG7_VPRECH_SWEEP_V
from repro.tile.network import EsamNetwork

MULTIPORT = [CellType.from_ports(p) for p in (1, 2, 3, 4)]


@pytest.fixture(scope="module")
def model() -> ReadPortModel:
    return ReadPortModel()


class TestVprechSelection:
    """Section 4.2: why the paper selects Vprech = 500 mV."""

    @pytest.mark.parametrize("cell", MULTIPORT)
    def test_500mv_saves_at_least_43_percent(self, model, cell):
        e500 = model.operating_point(cell, 0.5).avg_access_energy_pj
        e700 = model.operating_point(cell, 0.7).avg_access_energy_pj
        assert 1.0 - e500 / e700 >= 0.43

    @pytest.mark.parametrize("cell", MULTIPORT)
    def test_500mv_costs_at_most_19_percent_time(self, model, cell):
        t500 = model.operating_point(cell, 0.5).avg_access_time_ns
        t700 = model.operating_point(cell, 0.7).avg_access_time_ns
        assert t500 / t700 - 1.0 <= 0.19

    @pytest.mark.parametrize("ports", [1, 2])
    def test_400mv_saves_more_for_1_2_ports(self, model, ports):
        """Up to ~10 % extra saving for the small cells."""
        cell = CellType.from_ports(ports)
        e400 = model.operating_point(cell, 0.4).avg_access_energy_pj
        e500 = model.operating_point(cell, 0.5).avg_access_energy_pj
        assert 0.0 < 1.0 - e400 / e500 <= 0.11

    @pytest.mark.parametrize("ports", [3, 4])
    def test_400mv_hurts_3_4_ports(self, model, ports):
        """Slow precharge flips the sign for the big cells."""
        cell = CellType.from_ports(ports)
        e400 = model.operating_point(cell, 0.4).avg_access_energy_pj
        e500 = model.operating_point(cell, 0.5).avg_access_energy_pj
        assert e400 > e500

    @pytest.mark.parametrize("ports", [3, 4])
    def test_extended_precharge_only_at_400mv_3_4_ports(self, model, ports):
        cell = CellType.from_ports(ports)
        assert model.operating_point(cell, 0.4).extended_precharge
        assert not model.operating_point(cell, 0.5).extended_precharge

    @pytest.mark.parametrize("ports", [1, 2])
    def test_no_extended_precharge_small_cells(self, model, ports):
        cell = CellType.from_ports(ports)
        for vprech in (0.4, 0.5, 0.6, 0.7):
            assert not model.operating_point(cell, vprech).extended_precharge


class TestPortScaling:
    """Section 4.2: the effect of the number of inference ports."""

    def test_avg_access_time_decreases_with_ports(self, model):
        times = [
            model.operating_point(c, 0.5).avg_access_time_ns for c in MULTIPORT
        ]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_energy_rises_after_fourth_port(self, model):
        """Average access energy bottoms out before the 4th port."""
        energies = [
            model.operating_point(c, 0.5).avg_access_energy_pj for c in MULTIPORT
        ]
        assert energies[3] > energies[2]

    def test_energy_dip_before_rise(self, model):
        energies = [
            model.operating_point(c, 0.5).avg_access_energy_pj for c in MULTIPORT
        ]
        assert min(energies[1], energies[2]) < energies[0]

    def test_figure7_grid_complete(self, model):
        points = model.figure7()
        assert len(points) == 16
        assert {p.ports for p in points} == {1, 2, 3, 4}
        assert {round(p.vprech, 1) for p in points} == {0.4, 0.5, 0.6, 0.7}

    def test_figure7_grid_is_the_paper_sweep_in_order(self, model):
        """Precharge voltages outermost, ports 1-4 within each: the
        order the Figure 7 table and CSV print."""
        assert FIG7_VPRECH_SWEEP_V == (0.4, 0.5, 0.6, 0.7)
        assert [(p.vprech, p.ports) for p in model.figure7()] == [
            (vprech, ports)
            for vprech in FIG7_VPRECH_SWEEP_V for ports in (1, 2, 3, 4)
        ]


class TestTimingComponents:
    def test_precharge_slower_at_low_vprech(self, model):
        cell = CellType.C1RW1R
        assert model.precharge_time_ns(cell, 0.4) > 1.5 * model.precharge_time_ns(
            cell, 0.5
        )

    def test_read_time_grows_with_ports(self, model):
        times = [model.read_time_ns(c) for c in MULTIPORT]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_6t_inference_read_time(self, model):
        assert model.read_time_ns(CellType.C6T) == pytest.approx(
            INFERENCE_READ_TIME_6T_NS
        )

    def test_precharge_budget_below_clock(self, model):
        for cell in MULTIPORT:
            assert model.precharge_budget_ns(cell) < CLOCK_PERIOD_NS[cell]

    def test_rejects_subthreshold_vprech(self, model):
        with pytest.raises(ConfigurationError):
            model.precharge_time_ns(CellType.C1RW1R, 0.25)


class TestSixTBaseline:
    def test_6t_forced_to_vdd(self, model):
        """The shared RW port cannot scale the precharge voltage."""
        op = model.operating_point(CellType.C6T, 0.5)
        assert op.vprech == pytest.approx(0.7)

    def test_6t_read_energy_higher_than_multiport(self, model):
        e6 = model.operating_point(CellType.C6T, 0.5).read_energy_pj
        e4 = model.operating_point(CellType.C1RW4R, 0.5).read_energy_pj
        assert e6 > 1.2 * e4


class TestLeakage:
    def test_leakage_scales_with_area(self, model):
        l1 = model.leakage_power_mw(CellType.C1RW1R, 0.5)
        l4 = model.leakage_power_mw(CellType.C1RW4R, 0.5)
        assert l4 == pytest.approx(l1 * 2.625 / 1.5, rel=1e-6)

    def test_leakage_scales_with_vprech(self, model):
        low = model.leakage_power_mw(CellType.C1RW2R, 0.4)
        high = model.leakage_power_mw(CellType.C1RW2R, 0.6)
        assert high > low


class TestScaledArrays:
    def test_smaller_array_cheaper(self):
        small = ReadPortModel(rows=64, cols=64)
        full = ReadPortModel(rows=128, cols=128)
        cell = CellType.C1RW4R
        assert (
            small.operating_point(cell, 0.5).read_energy_pj
            < full.operating_point(cell, 0.5).read_energy_pj
        )

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            ReadPortModel(rows=0)


class TestOperatingPointMemo:
    def test_a_model_computes_each_point_once(self):
        model = ReadPortModel()
        point = model.operating_point(CellType.C1RW4R, 0.5)
        assert model.operating_point(CellType.C1RW4R, 0.5) is point
        other = ReadPortModel().operating_point(CellType.C1RW4R, 0.5)
        assert other is not point and other == point

    def test_a_dropped_network_frees_its_model(self, fast_model):
        """Building a network prices its point on the network's model.  A
        method-level ``lru_cache`` kept every model it had priced, and so
        one per network built, for the life of the process."""
        snn = fast_model.snn
        network = EsamNetwork(snn.weights, snn.thresholds,
                              output_bias=snn.output_bias,
                              config=HardwareConfig())
        model = weakref.ref(network.pipeline.read_ports)
        del network
        gc.collect()
        assert model() is None
