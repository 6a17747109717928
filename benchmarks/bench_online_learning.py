"""Section 4.4.1 — online-learning access cost: 6T vs transposable cells.

Paper reference: reading+writing all weights of a 128x128 6T array takes
2x128 cycles = 257.8 ns and 157 pJ; the 1RW+4R cell reads a full column
in 9.9 ns (quoted 26.0x) and writes it in 8.04 ns (quoted 19.5x), in
2x4 muxed accesses.
"""

import numpy as np
import pytest

from repro.learning.online import (
    OnlineLearningEngine,
    column_update_comparison,
)
from repro.hw.config import HardwareConfig
from repro.learning.stdp import StochasticSTDP
from repro.sram.bitcell import CellType
from repro.tile.tile import Tile


def generate_comparison():
    return column_update_comparison()


@pytest.mark.benchmark(group="online-learning")
def test_column_update_costs(benchmark):
    comp = benchmark(generate_comparison)
    print()
    print("column-update cost (128x128 array):")
    print(f"  {'cell':8s} {'accesses':>8s} {'read ns':>9s} {'write ns':>9s} "
          f"{'energy pJ':>10s}")
    for cell, row in comp.items():
        print(
            f"  {cell:8s} {row['accesses']:8.0f} {row['read_time_ns']:9.2f} "
            f"{row['write_time_ns']:9.2f} {row['energy_pj']:10.2f}"
        )
    best = comp["1RW+4R"]
    print(f"paper quoted ratios: 26.0x / 19.5x    measured: "
          f"{best['paper_read_ratio']:.1f}x / {best['paper_write_ratio']:.1f}x")
    assert best["paper_read_ratio"] == pytest.approx(26.0, rel=0.01)
    assert best["paper_write_ratio"] == pytest.approx(19.5, rel=0.01)


def run_stdp_session(cell_type: CellType, updates: int = 32):
    rng = np.random.default_rng(3)
    w = rng.integers(0, 2, (128, 32)).astype(np.uint8)
    tile = Tile(w, np.zeros(32), config=HardwareConfig(cell_type=cell_type))
    engine = OnlineLearningEngine(tile, StochasticSTDP(seed=4))
    for i in range(updates):
        pre = (rng.random(128) < 0.3).astype(np.uint8)
        engine.learn(pre, np.array([i % 32]))
    return engine.report


@pytest.mark.benchmark(group="online-learning")
def test_stdp_session_cost_4r(benchmark):
    report = benchmark.pedantic(
        run_stdp_session, args=(CellType.C1RW4R,), rounds=3, iterations=1
    )
    print()
    print(
        f"32 STDP column updates on 1RW+4R: {report.time_ns:.1f} ns, "
        f"{report.energy_pj:.1f} pJ, {report.transposed_accesses} accesses"
    )
    assert report.column_updates == 32


@pytest.mark.benchmark(group="online-learning")
def test_stdp_session_cost_6t_baseline(benchmark):
    report = benchmark.pedantic(
        run_stdp_session, args=(CellType.C6T,), rounds=1, iterations=1
    )
    print()
    print(
        f"32 STDP column updates on 6T baseline: {report.time_ns:.0f} ns, "
        f"{report.energy_pj:.0f} pJ, {report.transposed_accesses} accesses"
    )
    best = run_stdp_session(CellType.C1RW4R)
    speedup = report.time_ns / best.time_ns
    print(f"multiport learning speedup: {speedup:.1f}x")
    assert speedup > 10.0
