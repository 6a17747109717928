"""Ablation — process-variation guardband and parametric yield.

Table 1 methodology: +-3 sigma variation, worst-case cell timing.  This
benchmark shows the guardband the shipped clocks carry and how yield
collapses if the guardband is traded for frequency, then runs the named
``corners`` sweep end-to-end: the same +-3 sigma corners expressed as
first-class :class:`HardwareConfig` axes, evaluated through the sweep
engine so the system-level cost of the guardband is measured, not just
the cell-level timing distribution.
"""

import pytest

from repro.sram.bitcell import CellType
from repro.sram.readport import CLOCK_PERIOD_NS
from repro.sram.variation_study import VariationStudy
from repro.sweep import SweepRunner, corners_spec
from repro.tech.corners import PROCESS_CORNERS

MULTIPORT = [CellType.from_ports(p) for p in (1, 2, 3, 4)]


def run_study():
    study = VariationStudy()
    distributions = {c: study.distribution(c) for c in MULTIPORT}
    yields = {}
    for cell in MULTIPORT:
        shipped = CLOCK_PERIOD_NS[cell]
        yields[cell] = {
            scale: study.parametric_yield(cell, shipped * scale)
            for scale in (1.0, 0.95, 0.90)
        }
    return distributions, yields


@pytest.mark.benchmark(group="ablation")
def test_variation_guardband(benchmark):
    distributions, yields = benchmark.pedantic(run_study, rounds=1, iterations=1)
    print()
    print("read-path variation (+-3 sigma methodology):")
    for cell, dist in distributions.items():
        print(
            f"  {cell.value:8s}: typical {dist.typical_read_ns:.3f} ns, "
            f"shipped {dist.shipped_read_ns:.3f} ns "
            f"(guardband {dist.guardband_ns * 1e3:.0f} ps, "
            f"sigma {dist.sigma_read_ns * 1e3:.1f} ps)"
        )
    print("cell-level parametric yield vs clock scaling:")
    for cell, table in yields.items():
        row = ", ".join(
            f"{scale:.2f}x clk -> {value * 100:.1f}%"
            for scale, value in table.items()
        )
        print(f"  {cell.value:8s}: {row}")
    for cell in MULTIPORT:
        assert distributions[cell].covers_three_sigma
        assert yields[cell][1.0] > 0.995
        assert yields[cell][0.90] < yields[cell][1.0]


@pytest.mark.benchmark(group="ablation")
def test_corner_sweep_system_guardband(benchmark):
    """The named ``corners`` sweep: node x corner grid, system level.

    Runs 6T and 1RW+4R across {3nm, 5nm} x {typical, slow, fast}
    through the sweep engine and checks the guardband physics at the
    system level: the slow corner costs throughput, the fast corner
    leaks more, and the headline speedup claim survives every corner.
    """
    spec = corners_spec(sample_images=8, quality="fast")

    def run():
        return SweepRunner(spec, cache=None).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    by_corner: dict = {}
    for row in result.rows:
        by_corner[(row.point.cell_type, row.point.node,
                   row.point.corner)] = row.metrics

    print()
    print("system metrics across process corners (1RW+4R):")
    for node in ("3nm", "5nm"):
        for corner in ("typical", "slow", "fast"):
            m = by_corner[(CellType.C1RW4R, node, corner)]
            print(
                f"  {node}/{corner:7s}: {m.throughput_minf_s:6.1f} MInf/s, "
                f"{m.energy_per_inference_pj:6.0f} pJ/Inf, "
                f"{m.power_mw:5.1f} mW"
            )

    for node in ("3nm", "5nm"):
        typical = by_corner[(CellType.C1RW4R, node, "typical")]
        slow = by_corner[(CellType.C1RW4R, node, "slow")]
        fast = by_corner[(CellType.C1RW4R, node, "fast")]
        # Slow silicon: longer clock -> lower throughput; fast: higher.
        assert slow.throughput_minf_s < typical.throughput_minf_s
        assert fast.throughput_minf_s > typical.throughput_minf_s
        delay = PROCESS_CORNERS["slow"].delay_factor
        assert slow.clock_period_ns == pytest.approx(
            typical.clock_period_ns * delay
        )
        # Fast silicon leaks more per unit time; per inference the
        # shorter integration window partially compensates, so compare
        # leakage *power* via energy/time.
        leak_power = {
            corner: (by_corner[(CellType.C1RW4R, node, corner)]
                     .leakage_energy_pj
                     / by_corner[(CellType.C1RW4R, node, corner)]
                     .inference_time_ns)
            for corner in ("typical", "slow", "fast")
        }
        assert leak_power["fast"] > leak_power["typical"] > leak_power["slow"]
        # The paper's architectural claim holds at every corner: the
        # multiport cell beats the 6T baseline on throughput.
        for corner in ("typical", "slow", "fast"):
            best = by_corner[(CellType.C1RW4R, node, corner)]
            base_c = by_corner[(CellType.C6T, node, corner)]
            assert best.throughput_minf_s > 2.0 * base_c.throughput_minf_s
