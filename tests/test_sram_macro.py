"""SRAM macro: access bookkeeping and cost ledger."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import CellType
from repro.sram.macro import MacroEnergyLedger, SramMacro


@pytest.fixture()
def macro(rng) -> SramMacro:
    m = SramMacro(HardwareConfig(cell_type=CellType.C1RW4R, vprech=0.5))
    m.load_weights(rng.integers(0, 2, (128, 128)))
    return m


class TestInferencePath:
    def test_serve_spikes_returns_rows(self, macro):
        ref = macro.array.dump_weights()
        out = macro.serve_spikes([1, 2, 3])
        assert (out == ref[[1, 2, 3]]).all()

    def test_read_energy_matches_model(self, macro):
        per_read = macro.read_ports.operating_point(
            CellType.C1RW4R, 0.5
        ).read_energy_pj
        assert macro.read_energy_pj == per_read > 0.0

    def test_inference_reads_leave_the_learning_ledger_alone(self, macro):
        """The owning tile counts inference reads."""
        macro.serve_spikes([0, 1])
        assert macro.ledger == MacroEnergyLedger()


class TestLearningPath:
    def test_column_rmw_costs_4_accesses_each_way(self, macro, rng):
        bits = rng.integers(0, 2, 128)
        macro.read_column(3)
        macro.write_column(3, bits)
        assert macro.ledger.transposed_reads == 4
        assert macro.ledger.transposed_writes == 4
        assert (macro.array.dump_weights()[:, 3] == bits).all()

    def test_column_rmw_time_matches_paper(self, macro):
        """4R: read 9.9 ns + write 8.04 ns per column."""
        macro.read_column(0)
        macro.write_column(0, np.zeros(128, dtype=np.uint8))
        assert macro.ledger.transposed_time_ns == pytest.approx(9.9 + 8.04, rel=1e-3)

    def test_6t_column_update_costs_full_sweep(self, rng):
        m = SramMacro(HardwareConfig(cell_type=CellType.C6T))
        m.load_weights(rng.integers(0, 2, (128, 128)))
        m.update_column_6t(5, rng.integers(0, 2, 128))
        assert m.ledger.transposed_reads == 128
        assert m.ledger.transposed_writes == 128
        assert m.ledger.transposed_time_ns == pytest.approx(257.8, rel=1e-3)

    def test_6t_update_rejected_on_multiport(self, macro):
        with pytest.raises(ConfigurationError):
            macro.update_column_6t(0, np.zeros(128))


class TestLedger:
    def test_reset(self, macro):
        macro.read_column(0)
        assert macro.ledger.transposed_energy_pj > 0.0
        macro.reset_ledger()
        assert macro.ledger == MacroEnergyLedger()


class TestStatics:
    def test_leakage_energy(self, macro):
        assert macro.leakage_energy_pj(100.0) == pytest.approx(
            100.0 * macro.leakage_power_mw
        )

    def test_leakage_rejects_negative_time(self, macro):
        with pytest.raises(ConfigurationError):
            macro.leakage_energy_pj(-1.0)

    def test_area_positive_and_grows_with_ports(self):
        a6 = SramMacro(HardwareConfig(cell_type=CellType.C6T)).area_um2
        a4 = SramMacro(HardwareConfig(cell_type=CellType.C1RW4R)).area_um2
        assert 0.0 < a6 < a4
