"""On-chip online learning engine and the section 4.4.1 comparison."""

import dataclasses

import numpy as np
import pytest

from repro import EsamSystem
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.learning.online import (
    OnlineLearningEngine,
    column_update_comparison,
)
from repro.learning.stdp import StochasticSTDP
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.tile.tile import Tile

pytestmark = pytest.mark.learning


@pytest.fixture()
def tile(rng) -> Tile:
    w = rng.integers(0, 2, (256, 64)).astype(np.uint8)
    return Tile(w, np.zeros(64))


class TestEngine:
    def test_deterministic_rule_updates_weights(self, tile, rng):
        engine = OnlineLearningEngine(
            tile, StochasticSTDP(p_potentiate=1.0, p_depress=1.0)
        )
        pre = rng.integers(0, 2, 256).astype(np.uint8)
        engine.learn(pre, np.array([7]))
        # Neuron 7's column must now equal the pre vector exactly.
        assert (tile.weight_matrix()[:, 7] == pre).all()

    def test_other_columns_untouched(self, tile, rng):
        before = tile.weight_matrix()
        engine = OnlineLearningEngine(
            tile, StochasticSTDP(p_potentiate=1.0, p_depress=1.0)
        )
        engine.learn(rng.integers(0, 2, 256), np.array([7]))
        after = tile.weight_matrix()
        mask = np.ones(64, dtype=bool)
        mask[7] = False
        assert (after[:, mask] == before[:, mask]).all()

    def test_boolean_mask_accepted(self, tile, rng):
        engine = OnlineLearningEngine(tile)
        mask = np.zeros(64, dtype=bool)
        mask[[1, 5]] = True
        assert engine.learn(rng.integers(0, 2, 256), mask) == 2

    def test_cost_accounting_multiport(self, tile, rng):
        """One neuron spanning 2 row blocks: 2 column RMWs of 4+4
        accesses each."""
        engine = OnlineLearningEngine(tile)
        engine.learn(rng.integers(0, 2, 256), np.array([0]))
        assert engine.report.column_updates == 1
        assert engine.report.transposed_accesses == 2 * 8
        assert engine.report.time_ns == pytest.approx(2 * (9.9 + 8.04), rel=1e-3)

    def test_cost_accounting_6t(self, rng):
        w = rng.integers(0, 2, (128, 32)).astype(np.uint8)
        tile = Tile(w, np.zeros(32),
                    config=HardwareConfig(cell_type=CellType.C6T))
        engine = OnlineLearningEngine(tile)
        engine.learn(rng.integers(0, 2, 128), np.array([3]))
        assert engine.report.transposed_accesses == 256
        assert engine.report.time_ns == pytest.approx(257.8, rel=1e-3)

    def test_shape_checked(self, tile):
        engine = OnlineLearningEngine(tile)
        with pytest.raises(ConfigurationError):
            engine.learn(np.zeros(100), np.array([0]))


class TestSingleCostModel:
    """Learning is priced once: the tile's count of macro column updates
    times the transposed-port model's per-column cost, the model behind
    the section 4.4.1 comparison."""

    @staticmethod
    def session(cell: CellType, n_in: int = 256, steps: int = 12):
        rng = np.random.default_rng(23)
        w = rng.integers(0, 2, (n_in, 40)).astype(np.uint8)
        tile = Tile(w, np.zeros(40), config=HardwareConfig(cell_type=cell))
        engine = OnlineLearningEngine(tile, StochasticSTDP(0.3, 0.2, seed=4))
        for step in range(steps):
            tile.run_inference(rng.random(n_in) < 0.2)
            engine.learn(rng.random(n_in) < 0.3,
                         rng.choice(40, size=1 + step % 3, replace=False))
        return tile, engine.report

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: c.value)
    def test_report_prices_the_tiles_count(self, cell):
        tile, report = self.session(cell)
        cost = tile.column_update_cost
        assert report.column_updates == 24
        assert tile.column_updates == 2 * 24  # two row blocks
        assert report.transposed_accesses == (
            tile.column_updates * cost.total_accesses
        )
        assert report.time_ns == tile.column_updates * cost.total_time_ns
        assert report.energy_pj == tile.column_updates * cost.energy_pj

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: c.value)
    def test_dynamic_energy_adds_the_report_to_inference(self, cell):
        tile, report = self.session(cell)
        assert report.energy_pj > 0.0
        assert tile.dynamic_energy_pj() == (
            tile.inference_energy_pj() + report.energy_pj
        )

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: c.value)
    def test_reset_stats_clears_the_learning_count(self, cell):
        tile, _ = self.session(cell)
        tile.reset_stats()
        assert tile.column_updates == 0
        assert tile.dynamic_energy_pj() == tile.inference_energy_pj() == 0.0

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: c.value)
    def test_one_update_is_the_section_441_column(self, cell):
        tile, _ = self.session(cell, n_in=128, steps=0)
        engine = OnlineLearningEngine(tile)
        engine.learn(np.ones(128), np.array([9]))
        report, cost = engine.report, tile.column_update_cost
        paper = column_update_comparison()[cell.value]
        assert tile.column_updates == 1
        assert report.transposed_accesses == paper["accesses"]
        assert cost.read_time_ns == paper["read_time_ns"]
        assert cost.write_time_ns == paper["write_time_ns"]
        assert report.time_ns == paper["time_ns"]
        assert report.energy_pj == paper["energy_pj"]


class TestReportSurvivesClassification:
    """The report prices the macro columns its engine rewrote, so a
    classification, which resets the tile's count, leaves it whole."""

    def test_classify_spikes_keeps_the_learning_cost(self):
        system = EsamSystem.from_random((128, 32, 10), seed=5)
        engine = system.online_learning_engine(layer=0)
        rng = np.random.default_rng(3)
        for step in range(10):
            engine.learn(rng.random(128) < 0.3, np.array([step % 32]))
        one_event = system.network.tiles[0].column_update_cost.energy_pj
        assert engine.report.transposed_accesses == 80
        system.classify_spikes((rng.random((4, 128)) < 0.3).astype(np.uint8))
        assert system.network.tiles[0].column_updates == 0
        engine.learn(rng.random(128) < 0.3, np.array([3]))
        report = engine.report
        assert (report.learning_events, report.column_updates,
                report.macro_columns) == (11, 11, 11)
        assert report.transposed_accesses == 88
        assert report.energy_pj == 11 * one_event


class TestNeuronSetChecked:
    """``learn`` checks the whole neuron set before it writes a column."""

    @staticmethod
    def engine(seed: int = 4) -> OnlineLearningEngine:
        system = EsamSystem.from_random((128, 32, 10), seed=5)
        return system.online_learning_engine(
            layer=0, rule=StochasticSTDP(0.5, 0.5, seed=seed))

    @pytest.mark.parametrize("neurons", [
        np.array([1, 99]), np.array([1, -1]), 32, np.array([1.0, 2.0]),
        np.array([[1, 2]]), np.zeros(31, dtype=bool),
    ], ids=["above", "negative", "scalar-above", "float", "2-d",
            "short-mask"])
    def test_a_rejected_call_writes_and_counts_nothing(self, neurons):
        engine = self.engine()
        pre = np.ones(128, dtype=bool)
        engine.learn(pre, np.array([0]))
        tile = engine.tile
        weights = tile.weight_matrix()
        before = (tile.column_updates, dataclasses.astuple(engine.report))
        with pytest.raises(ConfigurationError):
            engine.learn(pre, neurons)
        assert np.array_equal(tile.weight_matrix(), weights)
        assert (tile.column_updates,
                dataclasses.astuple(engine.report)) == before

    def test_a_scalar_index_is_one_neuron(self):
        pre = np.random.default_rng(8).random(128) < 0.4
        scalar, listed = self.engine(), self.engine()
        assert scalar.learn(pre, 3) == listed.learn(pre, [3]) == 1
        assert np.array_equal(scalar.tile.weight_matrix(),
                              listed.tile.weight_matrix())
        assert scalar.report == listed.report

    def test_an_empty_set_is_an_event_without_updates(self):
        engine = self.engine()
        assert engine.learn(np.ones(128), []) == 0
        assert (engine.report.learning_events,
                engine.report.column_updates) == (1, 0)


class TestSection441Comparison:
    def test_paper_numbers(self):
        comp = column_update_comparison()
        base = comp["1RW"]
        assert base["time_ns"] == pytest.approx(257.8, rel=1e-3)
        assert base["energy_pj"] == pytest.approx(157.0, rel=5e-3)
        assert base["accesses"] == 256
        best = comp["1RW+4R"]
        assert best["read_time_ns"] == pytest.approx(9.9, rel=1e-3)
        assert best["write_time_ns"] == pytest.approx(8.04, rel=1e-3)
        assert best["paper_read_ratio"] == pytest.approx(26.0, rel=0.01)
        assert best["paper_write_ratio"] == pytest.approx(19.5, rel=0.01)

    def test_all_multiport_cells_beat_the_baseline(self):
        comp = column_update_comparison()
        base_time = comp["1RW"]["time_ns"]
        for cell in ("1RW+1R", "1RW+2R", "1RW+3R", "1RW+4R"):
            assert comp[cell]["time_speedup_vs_6t"] > 10.0
            assert comp[cell]["time_ns"] < base_time


class TestClosedLoopLearning:
    def test_stdp_imprints_a_pattern(self, rng):
        """Repeated coincident activity imprints the pattern column."""
        w = rng.integers(0, 2, (128, 16)).astype(np.uint8)
        tile = Tile(w, np.zeros(16),
                    config=HardwareConfig(cell_type=CellType.C1RW2R))
        engine = OnlineLearningEngine(
            tile, StochasticSTDP(p_potentiate=0.5, p_depress=0.5, seed=8)
        )
        pattern = (rng.random(128) < 0.3).astype(np.uint8)
        for _ in range(30):
            engine.learn(pattern, np.array([4]))
        learned = tile.weight_matrix()[:, 4]
        agreement = (learned == pattern).mean()
        assert agreement > 0.95
