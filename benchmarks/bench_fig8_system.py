"""Figure 8 — system-level power/performance/energy/area per cell.

Runs as a named sweep through the sharded sweep engine
(:mod:`repro.sweep`) rather than a hand-rolled loop, so the benchmark
exercises the same code path as ``python -m repro.sweep figure8``.

Paper reference trends: 1RW power exceeds 1RW+1R and 1RW+2R (Vprech
scaling); throughput dips slightly from 1RW to 1RW+1R then climbs with
parallelism; energy/inference falls with every added port; the 1RW+4R
system is 2.4x larger than the 1RW system.
"""

import pytest

from repro.sram.bitcell import CellType
from repro.system.report import render_figure8
from repro.sweep import SweepRunner, figure8_spec


@pytest.mark.benchmark(group="figure8")
def test_fig8_system_comparison(benchmark, evaluator):
    spec = figure8_spec(
        sample_images=evaluator.sample_images,
        quality=evaluator.quality,
        seed=evaluator.config.seed,
    )
    runner = SweepRunner(spec, cache=None)
    result = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    assert result.stats.evaluated == len(spec)
    rows = result.figure8_rows()
    print()
    print(render_figure8(rows))
    by_cell = {row.cell_type: row for row in rows}
    p = {c: by_cell[c].power_mw for c in by_cell}
    # Paper: 1RW power higher than 1RW+1R and 1RW+2R.
    assert p[CellType.C6T] > p[CellType.C1RW1R]
    assert p[CellType.C6T] > p[CellType.C1RW2R]
    # Paper: throughput dips at +1R, then climbs past the baseline.
    t = {c: by_cell[c].throughput_minf_s for c in by_cell}
    assert t[CellType.C1RW1R] < t[CellType.C6T]
    assert t[CellType.C1RW2R] > t[CellType.C6T]
    assert t[CellType.C1RW4R] > t[CellType.C1RW3R]
    # Paper: energy/inference decreases with every added port.
    energies = [by_cell[c].energy_per_inf_pj for c in (
        CellType.C6T, CellType.C1RW1R, CellType.C1RW2R,
        CellType.C1RW3R, CellType.C1RW4R,
    )]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    # Paper: ~2.4x area for the 4-port system.
    area_ratio = by_cell[CellType.C1RW4R].area_mm2 / by_cell[CellType.C6T].area_mm2
    print(f"area ratio 1RW+4R / 1RW: {area_ratio:.2f}x (paper: 2.4x)")
    assert area_ratio == pytest.approx(2.4, abs=0.35)
