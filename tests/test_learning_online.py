"""On-chip online learning engine and the section 4.4.1 comparison."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.learning.online import (
    OnlineLearningEngine,
    column_update_comparison,
)
from repro.learning.stdp import StochasticSTDP
from repro.sram.bitcell import CellType
from repro.tile.tile import Tile


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
