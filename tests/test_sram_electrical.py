"""Figure 6 / section 4.4.1: transposed-port electrical model."""

import pytest

from repro.errors import ConfigurationError
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.sram.electrical import C6T_CYCLE_NS, TransposedPortModel

pytestmark = pytest.mark.learning


@pytest.fixture(scope="module")
def model() -> TransposedPortModel:
    return TransposedPortModel()


class TestPaperAnchors:
    """Values the paper states explicitly (section 4.4.1)."""

    def test_6t_full_array_takes_257_8_ns(self, model):
        cost = model.full_array_update_cost(CellType.C6T)
        assert cost.total_time_ns == pytest.approx(257.8, rel=1e-3)

    def test_6t_full_array_takes_157_pj(self, model):
        cost = model.full_array_update_cost(CellType.C6T)
        assert cost.energy_pj == pytest.approx(157.0, rel=5e-3)

    def test_6t_full_array_is_2x128_accesses(self, model):
        cost = model.full_array_update_cost(CellType.C6T)
        assert cost.read_accesses == 128
        assert cost.write_accesses == 128

    def test_6t_cycle_time(self):
        assert C6T_CYCLE_NS == pytest.approx(257.8 / 256.0)

    def test_4r_column_read_9_9_ns(self, model):
        cost = model.column_update_cost(CellType.C1RW4R)
        assert cost.read_time_ns == pytest.approx(9.9, rel=1e-3)

    def test_4r_column_write_8_04_ns(self, model):
        cost = model.column_update_cost(CellType.C1RW4R)
        assert cost.write_time_ns == pytest.approx(8.04, rel=1e-3)

    def test_4r_column_uses_2x4_accesses(self, model):
        """Factor 4 from the 4:1 row mux (section 4.4.1)."""
        cost = model.column_update_cost(CellType.C1RW4R)
        assert cost.read_accesses == 4
        assert cost.write_accesses == 4

    def test_paper_quoted_ratios(self, model):
        """'9.9 ns (26.0x less)' and '8.04 ns (19.5x less)'."""
        baseline = model.full_array_update_cost(CellType.C6T)
        cost = model.column_update_cost(CellType.C1RW4R)
        assert baseline.total_time_ns / cost.read_time_ns == pytest.approx(
            26.0, rel=0.01
        )
        assert baseline.energy_pj / cost.write_time_ns == pytest.approx(
            19.5, rel=0.01
        )


class TestFigure6Trends:
    """Qualitative behaviour the paper describes for Figure 6."""

    def test_five_points_in_port_order(self, model):
        points = model.figure6()
        assert [p.cell_type for p in points] == list(ALL_CELLS)

    def test_write_time_monotonic_in_ports(self, model):
        times = [p.write_time_ns for p in model.figure6()]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_read_time_monotonic_in_ports(self, model):
        times = [p.read_time_ns for p in model.figure6()]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_write_energy_monotonic_in_ports(self, model):
        energies = [p.write_energy_pj for p in model.figure6()]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_read_energy_monotonic_in_ports(self, model):
        energies = [p.read_energy_pj for p in model.figure6()]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_first_port_jump_is_significant(self, model):
        """Paper: 'immediate and significant increase in both Write and
        Read times' from the narrowed WL."""
        t6 = model.access(CellType.C6T)
        t1 = model.access(CellType.C1RW1R)
        assert t1.write_time_ns > 1.8 * t6.write_time_ns
        assert t1.read_time_ns > 1.8 * t6.read_time_ns

    def test_write_energy_effect_stronger_than_read(self, model):
        """Paper: the port effect 'is stronger for the Write operation'
        (deeper V_WD raises the boosted swing)."""
        points = model.figure6()
        write_growth = points[-1].write_energy_pj / points[0].write_energy_pj
        read_growth = points[-1].read_energy_pj / points[0].read_energy_pj
        assert write_growth > 1.5 * read_growth

    def test_vwd_recorded_per_cell(self, model):
        vwds = [p.vwd_v for p in model.figure6()]
        assert all(b < a for a, b in zip(vwds, vwds[1:]))  # deeper with ports


class TestColumnUpdateScaling:
    def test_multiport_column_cheaper_than_6t(self, model):
        base = model.full_array_update_cost(CellType.C6T)
        for cell in ALL_CELLS[1:]:
            cost = model.column_update_cost(cell)
            assert cost.total_time_ns < base.total_time_ns / 10.0
            assert cost.energy_pj < base.energy_pj / 5.0

    def test_full_array_multiport_scales_by_columns(self, model):
        per_col = model.column_update_cost(CellType.C1RW2R)
        full = model.full_array_update_cost(CellType.C1RW2R)
        assert full.total_time_ns == pytest.approx(128 * per_col.total_time_ns)
        assert full.total_accesses == 128 * per_col.total_accesses


class TestConstruction:
    def test_smaller_array_supported(self):
        small = TransposedPortModel(rows=64, cols=64)
        access = small.access(CellType.C1RW4R)
        assert access.read_time_ns > 0.0

    def test_rejects_tiny_arrays(self):
        with pytest.raises(ConfigurationError):
            TransposedPortModel(rows=2, cols=64)
