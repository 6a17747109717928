"""Cycle-accurate tile: correctness against matrix arithmetic."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.tile.tile import Tile


def reference_outputs(weights: np.ndarray, thresholds: np.ndarray,
                      spikes: np.ndarray) -> np.ndarray:
    """Ground truth: Vmem = spikes @ (2W - 1); fire iff Vmem >= Vth."""
    vmem = spikes.astype(np.int64) @ (2 * weights.astype(np.int64) - 1)
    return vmem >= thresholds


@pytest.fixture()
def small_tile(rng) -> Tile:
    w = rng.integers(0, 2, (256, 128)).astype(np.uint8)
    th = rng.integers(-10, 25, 128)
    return Tile(w, th)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_matches_matrix_math(self, cell, rng):
        w = rng.integers(0, 2, (256, 96)).astype(np.uint8)
        th = rng.integers(-5, 20, 96)
        tile = Tile(w, th, config=HardwareConfig(cell_type=cell))
        spikes = rng.random(256) < 0.3
        out = tile.run_inference(spikes)
        assert (out == reference_outputs(w, th, spikes)).all()

    def test_multiple_inferences(self, small_tile, rng):
        w = small_tile.weight_matrix()
        th = np.concatenate(
            [n.thresholds for n in small_tile.neurons]
        )[: small_tile.n_out]
        for _ in range(5):
            spikes = rng.random(256) < 0.4
            out = small_tile.run_inference(spikes)
            assert (out == reference_outputs(w, th, spikes)).all()

    def test_readout_returns_vmem(self, rng):
        w = rng.integers(0, 2, (128, 10)).astype(np.uint8)
        th = np.full(10, 511)
        tile = Tile(w, th, config=HardwareConfig(cell_type=CellType.C1RW2R))
        spikes = rng.random(128) < 0.5
        vmem = tile.run_inference(spikes, readout=True)
        expected = spikes.astype(np.int64) @ (2 * w.astype(np.int64) - 1)
        assert (vmem == expected).all()

    def test_zero_spikes(self, small_tile):
        out = small_tile.run_inference(np.zeros(256, dtype=bool))
        th = np.concatenate([n.thresholds for n in small_tile.neurons])[:128]
        assert (out == (0 >= th)).all()


class TestCycleCounts:
    def test_cycles_bounded_by_spikes_over_ports(self, rng):
        """Per row block: ceil(spikes_in_block / ports) cycles."""
        w = rng.integers(0, 2, (256, 64)).astype(np.uint8)
        tile = Tile(w, np.zeros(64))
        spikes = np.zeros(256, dtype=bool)
        spikes[:16] = True   # 16 spikes in row block 0 only
        tile.run_inference(spikes)
        assert tile.stats.cycles == 4  # 16 / 4 ports
        assert tile.stats.fire_cycles == 1

    def test_single_port_serialises(self, rng):
        w = rng.integers(0, 2, (128, 64)).astype(np.uint8)
        tile = Tile(w, np.zeros(64),
                    config=HardwareConfig(cell_type=CellType.C6T))
        spikes = np.zeros(128, dtype=bool)
        spikes[:10] = True
        tile.run_inference(spikes)
        assert tile.stats.cycles == 10

    def test_row_blocks_work_in_parallel(self, rng):
        """Two arbiters grant simultaneously: 2 x p spikes per cycle."""
        w = rng.integers(0, 2, (256, 64)).astype(np.uint8)
        tile = Tile(w, np.zeros(64))
        spikes = np.zeros(256, dtype=bool)
        spikes[:8] = True      # block 0
        spikes[128:136] = True  # block 1
        tile.run_inference(spikes)
        assert tile.stats.cycles == 2
        assert tile.stats.grants == 16

    def test_array_reads_count_column_blocks(self, rng):
        w = rng.integers(0, 2, (128, 256)).astype(np.uint8)  # 2 col blocks
        tile = Tile(w, np.zeros(256))
        spikes = np.zeros(128, dtype=bool)
        spikes[:4] = True
        tile.run_inference(spikes)
        assert tile.stats.array_reads == 8  # 4 spikes x 2 column blocks


class TestEnergyAccounting:
    def test_dynamic_energy_accumulates(self, small_tile, rng):
        small_tile.run_inference(rng.random(256) < 0.4)
        assert small_tile.dynamic_energy_pj() > 0.0

    def test_reset_stats(self, small_tile, rng):
        small_tile.run_inference(rng.random(256) < 0.4)
        small_tile.reset_stats()
        assert small_tile.stats.cycles == 0
        assert small_tile.dynamic_energy_pj() == 0.0

    def test_leakage_grows_with_cell(self, rng):
        w = rng.integers(0, 2, (128, 128)).astype(np.uint8)
        t1 = Tile(w, np.zeros(128),
                  config=HardwareConfig(cell_type=CellType.C1RW1R))
        t4 = Tile(w, np.zeros(128),
                  config=HardwareConfig(cell_type=CellType.C1RW4R))
        assert t4.leakage_power_mw() > t1.leakage_power_mw()

    def test_area_grows_with_cell(self, rng):
        w = rng.integers(0, 2, (128, 128)).astype(np.uint8)
        t6 = Tile(w, np.zeros(128),
                  config=HardwareConfig(cell_type=CellType.C6T))
        t4 = Tile(w, np.zeros(128),
                  config=HardwareConfig(cell_type=CellType.C1RW4R))
        assert t4.area_um2() > 1.5 * t6.area_um2()


class TestCountRecord:
    """One record per tile counts what the arbiters, macros and neurons
    did; every inference energy is derived from it."""

    @pytest.fixture()
    def grid_tile(self, rng) -> Tile:
        """2 row blocks x 2 column blocks."""
        w = rng.integers(0, 2, (256, 200)).astype(np.uint8)
        return Tile(w, rng.integers(-5, 20, 200))

    @staticmethod
    def spikes(in_block0: int, in_block1: int) -> np.ndarray:
        spikes = np.zeros(256, dtype=bool)
        spikes[:in_block0] = True
        spikes[128:128 + in_block1] = True
        return spikes

    def test_block_grants_count_the_reads_of_each_macro_row(self, grid_tile):
        grid_tile.run_inference(self.spikes(5, 3))
        grid_tile.run_inference(self.spikes(2, 0))
        stats = grid_tile.stats
        assert stats.block_grants.tolist() == [7, 3]
        assert stats.grants == stats.input_spikes == 10
        assert stats.array_reads == 10 * 2  # both column blocks read
        assert stats.accumulate_events == 10
        assert stats.fire_checks == stats.fire_cycles == 2
        assert stats.cycles == 2 + 1  # ceil(5 / 4) + ceil(2 / 4)

    def test_readout_clears_the_neuron_counts(self, grid_tile):
        grid_tile.run_inference(self.spikes(5, 3))
        vmem = grid_tile.run_inference(self.spikes(4, 4), readout=True)
        stats = grid_tile.stats
        assert vmem.shape == (200,)
        assert (grid_tile.membrane_potentials() == 0).all()
        assert (stats.accumulate_events, stats.fire_checks) == (0, 0)
        assert stats.fire_cycles == 2
        assert stats.grants == 16

    def test_inference_energy_is_counts_times_access_energies(
            self, grid_tile):
        from repro.arbiter.analysis import arbiter_energy_per_cycle_pj

        grid_tile.run_inference(self.spikes(9, 6))
        stats = grid_tile.stats
        read_pj = grid_tile.macros[0][0].read_energy_pj
        neurons_pj = sum(
            n.dynamic_energy_pj(stats.accumulate_events, stats.fire_checks)
            for n in grid_tile.neurons
        )
        arbiter_pj = stats.cycles * 2 * arbiter_energy_per_cycle_pj(
            128, grid_tile.ports, tree=True
        )
        # Per macro in grid order, then the neurons, then the arbiters.
        expected = (9 * read_pj + 9 * read_pj + 6 * read_pj + 6 * read_pj
                    + neurons_pj + arbiter_pj)
        assert grid_tile.inference_energy_pj() == expected
        assert grid_tile.dynamic_energy_pj() == grid_tile.inference_energy_pj()

    def test_records_subtract_and_add_back_exactly(self, grid_tile):
        grid_tile.run_inference(self.spikes(5, 3))
        mark = grid_tile.stats.copy()
        grid_tile.run_inference(self.spikes(1, 7))
        delta = grid_tile.stats - mark
        assert delta.block_grants.tolist() == [1, 7]
        assert delta.grants == 8 and delta.fire_cycles == 1
        assert mark + delta == grid_tile.stats
        assert mark != grid_tile.stats
        assert mark.copy() == mark


@pytest.mark.learning
class TestLearning:
    """A column update rewrites one neuron's column in every row block
    and counts one per macro column; only dynamic energy prices it."""

    @pytest.fixture(params=ALL_CELLS, ids=lambda cell: cell.value)
    def grid_tile(self, request, rng) -> Tile:
        """3 row blocks (the last one padded) x 2 column blocks."""
        w = rng.integers(0, 2, (300, 140)).astype(np.uint8)
        return Tile(w, rng.integers(-5, 20, 140),
                    config=HardwareConfig(cell_type=request.param))

    def test_rewrites_the_neurons_column_block_by_block(self, grid_tile,
                                                        rng):
        before = grid_tile.weight_matrix()
        version = grid_tile.weight_version
        pre = rng.random(300) < 0.5
        calls = []

        def invert(column, pre_block):
            calls.append((column.copy(), pre_block.copy()))
            return 1 - column

        grid_tile.update_neuron_column(130, pre, invert)
        after = grid_tile.weight_matrix()
        assert (after[:, 130] == 1 - before[:, 130]).all()
        assert np.array_equal(np.delete(after, 130, axis=1),
                              np.delete(before, 130, axis=1))
        # Ascending row blocks, one call each, on the stored column
        # (macro column 2 of column block 1) and the zero-padded pre.
        assert len(calls) == 3
        padded = np.zeros(384, dtype=bool)
        padded[:300] = pre
        for rb, (column, pre_block) in enumerate(calls):
            stored = grid_tile.mapping.block_weights(before, rb, 1)[:, 2]
            assert np.array_equal(column, stored)
            assert np.array_equal(pre_block, padded[128 * rb:][:128])
        assert grid_tile.column_updates == 3
        assert grid_tile.weight_version == version + 1

    def test_neuron_range_checked(self, grid_tile, rng):
        before = grid_tile.weight_matrix()
        for neuron in (140, -1):
            with pytest.raises(ConfigurationError, match="out of range"):
                grid_tile.update_neuron_column(
                    neuron, rng.random(300) < 0.5, lambda c, p: c
                )
        assert grid_tile.column_updates == 0
        assert np.array_equal(grid_tile.weight_matrix(), before)

    def test_learning_counts_only_in_dynamic_energy(self, grid_tile, rng):
        spikes = rng.random(300) < 0.3
        grid_tile.run_inference(spikes)
        stats = grid_tile.stats.copy()
        inference = grid_tile.inference_energy_pj()
        grid_tile.update_neuron_column(3, spikes, lambda c, p: 1 - c)
        cost = grid_tile.column_update_cost
        assert cost.energy_pj > 0.0
        assert grid_tile.stats == stats
        assert grid_tile.inference_energy_pj() == inference
        assert grid_tile.dynamic_energy_pj() == inference + 3 * cost.energy_pj

    def test_reset_stats_clears_the_learning_count(self, grid_tile, rng):
        grid_tile.update_neuron_column(7, rng.random(300) < 0.5,
                                       lambda c, p: c)
        grid_tile.reset_stats()
        assert grid_tile.column_updates == 0
        assert grid_tile.dynamic_energy_pj() == 0.0


class TestStructure:
    def test_weight_matrix_roundtrip(self, rng):
        w = rng.integers(0, 2, (300, 140)).astype(np.uint8)
        tile = Tile(w, np.zeros(140),
                    config=HardwareConfig(cell_type=CellType.C1RW3R))
        assert (tile.weight_matrix() == w).all()

    def test_load_weights_rewrites_every_block(self, rng, binary_dtype):
        """A load writes each macro in full: the partial blocks' padded
        rows and columns read 0 again, whatever was stored there."""
        tile = Tile(rng.integers(0, 2, (300, 140)), np.zeros(140))
        for row in tile.macros:
            for macro in row:
                macro.load_weights(np.ones((128, 128), dtype=np.uint8))
        w = rng.integers(0, 2, (300, 140)).astype(binary_dtype)
        version = tile.weight_version
        tile.load_weights(w)
        for rb, row in enumerate(tile.macros):
            for cb, macro in enumerate(row):
                assert np.array_equal(macro.array.dump_weights(),
                                      tile.mapping.block_weights(w, rb, cb))
        assert tile.weight_version == version

    def test_load_weights_checks_before_writing(self, small_tile,
                                                non_binary):
        before = small_tile.weight_matrix()
        with pytest.raises(ConfigurationError, match="binary"):
            small_tile.load_weights(non_binary((256, 128)))
        with pytest.raises(ConfigurationError, match="tile"):
            small_tile.load_weights(np.zeros((128, 128)))
        assert np.array_equal(small_tile.weight_matrix(), before)

    def test_fire_before_drain_rejected(self, small_tile, rng):
        small_tile.submit_spikes(rng.random(256) < 0.5)
        with pytest.raises(SimulationError):
            small_tile.fire()

    def test_spike_shape_checked(self, small_tile):
        with pytest.raises(ConfigurationError):
            small_tile.submit_spikes(np.zeros(100, dtype=bool))

    def test_threshold_shape_checked(self, rng):
        with pytest.raises(ConfigurationError):
            Tile(rng.integers(0, 2, (64, 32)), np.zeros(16))
