"""Functional multiport SRAM array."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DesignRuleError, SimulationError
from repro.sram.array import SramArray
from repro.sram.bitcell import CellType


@pytest.fixture()
def array(rng) -> SramArray:
    arr = SramArray(CellType.C1RW4R, 128, 128)
    arr.load_weights(rng.integers(0, 2, (128, 128)))
    return arr


class TestConstruction:
    def test_design_rule_enforced(self):
        with pytest.raises(DesignRuleError):
            SramArray(CellType.C1RW4R, 256, 256)

    def test_design_rule_can_be_bypassed_for_studies(self):
        arr = SramArray(CellType.C1RW4R, 256, 256, enforce_design_rules=False)
        assert arr.rows == 256

    def test_read_port_count(self):
        assert SramArray(CellType.C1RW2R).read_port_count == 2
        assert SramArray(CellType.C6T).read_port_count == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            SramArray(CellType.C6T, 0, 128)


class TestLoadDump:
    def test_roundtrip(self, array, rng, binary_dtype):
        bits = rng.integers(0, 2, (128, 128)).astype(binary_dtype)
        array.load_weights(bits)
        assert (array.dump_weights() == bits).all()

    def test_dump_is_a_copy(self, array):
        dumped = array.dump_weights()
        dumped[0, 0] ^= 1
        assert (array.dump_weights()[0, 0] != dumped[0, 0])

    def test_rejects_wrong_shape(self, array):
        with pytest.raises(ConfigurationError):
            array.load_weights(np.zeros((64, 128)))

    def test_rejects_non_binary(self, array, non_binary):
        with pytest.raises(ConfigurationError):
            array.load_weights(np.full((128, 128), 2))
        with pytest.raises(ConfigurationError, match="binary"):
            array.load_weights(non_binary((128, 128)))


class TestInferenceReads:
    def test_reads_match_content(self, array):
        ref = array.dump_weights()
        out = array.read_rows([3, 77, 120])
        assert (out == ref[[3, 77, 120]]).all()

    def test_port_limit_enforced(self, array):
        with pytest.raises(SimulationError):
            array.read_rows([0, 1, 2, 3, 4])  # 5 rows on a 4-port cell

    def test_single_port_cell_limit(self, rng):
        arr = SramArray(CellType.C6T)
        arr.load_weights(rng.integers(0, 2, (128, 128)))
        with pytest.raises(SimulationError):
            arr.read_rows([0, 1])

    def test_duplicate_rows_rejected(self, array):
        with pytest.raises(SimulationError):
            array.read_rows([5, 5])

    def test_out_of_range_rejected(self, array):
        with pytest.raises(SimulationError):
            array.read_rows([128])

    def test_empty_read_ok(self, array):
        assert array.read_rows([]).shape == (0, 128)


class TestTransposedPort:
    def test_column_roundtrip(self, array, rng, binary_dtype):
        col = rng.integers(0, 2, 128).astype(binary_dtype)
        array.write_column(17, col)
        assert (array.read_column(17) == col).all()

    def test_column_write_does_not_disturb_neighbours(self, array):
        before = array.dump_weights()
        array.write_column(5, 1 - before[:, 5])
        after = array.dump_weights()
        mask = np.ones(128, dtype=bool)
        mask[5] = False
        assert (after[:, mask] == before[:, mask]).all()

    def test_6t_has_no_transposed_port(self, rng):
        arr = SramArray(CellType.C6T)
        with pytest.raises(SimulationError):
            arr.read_column(0)
        with pytest.raises(SimulationError):
            arr.write_column(0, np.zeros(128))

    def test_6t_row_rmw_path(self, rng, binary_dtype):
        arr = SramArray(CellType.C6T)
        arr.load_weights(rng.integers(0, 2, (128, 128)))
        row = arr.read_row_rw(9)
        row[42] ^= 1
        arr.write_row_rw(9, row.astype(binary_dtype))
        assert (arr.dump_weights()[9] == row).all()

    def test_row_binary_checked(self, array, non_binary):
        with pytest.raises(ConfigurationError, match="binary"):
            array.write_row_rw(0, non_binary(128))

    def test_column_index_checked(self, array):
        with pytest.raises(SimulationError):
            array.read_column(200)

    def test_column_shape_checked(self, array):
        with pytest.raises(ConfigurationError):
            array.write_column(0, np.zeros(64))

    def test_column_binary_checked(self, array, non_binary):
        with pytest.raises(ConfigurationError):
            array.write_column(0, np.full(128, 3))
        with pytest.raises(ConfigurationError, match="binary"):
            array.write_column(0, non_binary(128))
