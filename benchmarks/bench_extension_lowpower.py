"""Extension — low-power operating modes (paper section 4.4.2).

Paper: "For applications that have lower throughput demands, a lower
VDD, lower clock frequency, and HVT transistors can be utilized to
significantly reduce power consumption, while maintaining similar
energy/Inference."  This benchmark quantifies that claim on the
measured 1RW+4R design point.
"""

import pytest

from repro.sram.bitcell import CellType
from repro.system.lowpower import LowPowerScaler
from repro.tech.finfet import VtFlavor


@pytest.mark.benchmark(group="extension")
def test_lowpower_operating_points(benchmark, figure8):
    scaler = LowPowerScaler(next(
        row.metrics for row in figure8
        if row.point.cell_type is CellType.C1RW4R
    ))
    points = benchmark(scaler.sweep)
    print()
    print("low-power operating points (scaled from the measured 1RW+4R):")
    print(f"  {'point':>14s} {'clock ns':>9s} {'kInf/s':>10s} "
          f"{'pJ/Inf':>8s} {'power mW':>9s}")
    for point in points:
        print(
            f"  {point.label:>14s} {point.clock_period_ns:9.2f} "
            f"{point.throughput_inf_s / 1e3:10.0f} "
            f"{point.energy_per_inf_pj:8.0f} {point.power_mw:9.2f}"
        )
    nominal = scaler.operating_point(0.70, VtFlavor.SVT)
    low = scaler.operating_point(0.50, VtFlavor.HVT)
    power_cut = 1.0 - low.power_mw / nominal.power_mw
    energy_ratio = low.energy_per_inf_pj / nominal.energy_per_inf_pj
    print(f"\n500 mV HVT vs nominal: power -{power_cut * 100:.0f}%, "
          f"energy/Inf x{energy_ratio:.2f} (paper: 'significantly reduce "
          "power ... similar energy/Inference')")
    assert power_cut > 0.55
    assert 0.5 < energy_ratio < 1.2
