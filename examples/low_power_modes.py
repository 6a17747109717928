"""Low-power deployment modes of the ESAM system (section 4.4.2).

The paper's shipped configuration chases throughput (44 MInf/s); most
edge workloads need a few inferences per second.  This example measures
the nominal 1RW+4R design point cycle-accurately, then walks the
VDD / Vt-flavor / clock design space the paper sketches for such
deployments and prints the resulting power-vs-energy trade-off.

Run:  python examples/low_power_modes.py
"""

from repro.sram.bitcell import CellType
from repro.sweep import DesignPoint, evaluate_point
from repro.system.lowpower import LowPowerScaler
from repro.tech.finfet import VtFlavor


def main() -> None:
    print("measuring the nominal 1RW+4R design point ...")
    nominal = evaluate_point(
        DesignPoint(cell_type=CellType.C1RW4R, sample_images=16)
    )
    print(f"  nominal: {nominal.throughput_minf_s:.1f} MInf/s, "
          f"{nominal.energy_per_inference_pj:.0f} pJ/Inf, "
          f"{nominal.power_mw:.1f} mW")

    scaler = LowPowerScaler(nominal)
    print("\nVDD / Vt sweep:")
    print(f"  {'point':>14s} {'clock':>9s} {'throughput':>12s} "
          f"{'energy':>9s} {'power':>9s}")
    for point in scaler.sweep(vdds=(0.70, 0.60, 0.50),
                              flavors=(VtFlavor.SVT, VtFlavor.HVT)):
        print(
            f"  {point.label:>14s} {point.clock_period_ns:7.2f} ns "
            f"{point.throughput_inf_s / 1e6:9.1f} MInf/s "
            f"{point.energy_per_inf_pj:6.0f} pJ {point.power_mw:6.2f} mW"
        )

    print("\nduty-cycled always-on point (100 kInf/s class):")
    # Under-clock the 500 mV HVT point to a sensor-rate deployment.
    target = scaler.operating_point(0.50, VtFlavor.HVT, clock_slowdown=50.0)
    print(f"  {target.label} / 50x under-clock: "
          f"{target.throughput_inf_s / 1e3:.0f} kInf/s at "
          f"{target.power_mw * 1e3:.0f} uW, "
          f"{target.energy_per_inf_pj:.0f} pJ/Inf")
    print("\nconclusion: across the VDD/HVT sweep power falls ~6x while "
          "energy/inference stays in the same band (the paper's section "
          "4.4.2 claim); extreme under-clocking eventually becomes "
          "leakage-dominated, which bounds how far duty cycling helps.")


if __name__ == "__main__":
    main()
