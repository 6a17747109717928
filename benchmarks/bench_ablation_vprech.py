"""Ablation — system-level effect of the Vprech design choice.

The paper selects Vprech = 500 mV from the circuit-level sweep
(Figure 7).  This ablation re-runs the *system* at each precharge
voltage — as the named ``vprech`` sweep of the sweep engine — to show
the choice also wins end-to-end: 700 mV burns bitline energy, 400 mV
stretches the cycle via extended precharge.
"""

import pytest

from repro.sweep import SweepRunner, vprech_spec


def sweep(figure8_sweep):
    spec = vprech_spec(
        sample_images=figure8_sweep.sample_images[0],
        quality=figure8_sweep.quality,
        seed=figure8_sweep.seed,
    )
    runner = SweepRunner(spec, cache=None)
    return {row.point.vprech: row.metrics for row in runner.run().rows}


@pytest.mark.benchmark(group="ablation")
def test_vprech_system_ablation(benchmark, figure8_sweep):
    rows = benchmark.pedantic(sweep, args=(figure8_sweep,), rounds=1,
                              iterations=1)
    print()
    print("system-level Vprech ablation (1RW+4R):")
    for vprech, m in sorted(rows.items()):
        print(
            f"  {vprech * 1e3:.0f} mV: {m.energy_per_inference_pj:7.0f} pJ/Inf, "
            f"{m.throughput_minf_s:5.1f} MInf/s, {m.power_mw:5.1f} mW "
            f"(dyn {m.dynamic_energy_pj:.0f} / clk {m.clock_energy_pj:.0f} / "
            f"leak {m.leakage_energy_pj:.0f})"
        )
    # 500 mV must be the energy-optimal choice of the sweep.
    best = min(rows, key=lambda v: rows[v].energy_per_inference_pj)
    print(f"energy-optimal Vprech: {best * 1e3:.0f} mV (paper selects 500 mV)")
    assert best == 0.5
    # And 700 mV must cost substantially more energy per inference.
    assert (rows[0.7].energy_per_inference_pj
            > 1.2 * rows[0.5].energy_per_inference_pj)
