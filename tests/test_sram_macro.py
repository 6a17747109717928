"""SRAM macro: inference reads, the 6T column update and statics.

The macro keeps no counts; the owning tile counts and prices both its
inference reads and its learning column updates (tests/test_tile_tile.py,
tests/test_learning_online.py).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import CellType
from repro.sram.macro import SramMacro

pytestmark = pytest.mark.learning


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


class TestLearningPath:
    def test_6t_column_update_costs_full_sweep(self, rng, monkeypatch):
        """Every row is read and written once through the RW port, and
        only the target column changes."""
        m = SramMacro(HardwareConfig(cell_type=CellType.C6T))
        m.load_weights(rng.integers(0, 2, (128, 128)))
        before = m.array.dump_weights()
        accesses = []

        def logged(name):
            port = getattr(m.array, name)

            def access(row, *bits):
                accesses.append((name, row))
                return port(row, *bits)
            return access

        for name in ("read_row_rw", "write_row_rw"):
            monkeypatch.setattr(m.array, name, logged(name))
        bits = rng.integers(0, 2, 128)
        m.update_column_6t(5, bits)
        assert accesses == [
            (name, row) for row in range(128)
            for name in ("read_row_rw", "write_row_rw")
        ]
        after = m.array.dump_weights()
        assert (after[:, 5] == bits).all()
        assert np.array_equal(np.delete(after, 5, axis=1),
                              np.delete(before, 5, axis=1))

    def test_6t_update_rejected_on_multiport(self, macro):
        with pytest.raises(ConfigurationError):
            macro.update_column_6t(0, np.zeros(128))


class TestStatics:
    def test_area_positive_and_grows_with_ports(self):
        a6 = SramMacro(HardwareConfig(cell_type=CellType.C6T)).area_um2
        a4 = SramMacro(HardwareConfig(cell_type=CellType.C1RW4R)).area_um2
        assert 0.0 < a6 < a4
