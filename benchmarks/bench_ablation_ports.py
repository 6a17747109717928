"""Ablation — why four read ports: the port-count design space.

Combines the circuit-level cost curves with the paper's layout
arithmetic for the rejected fifth port (+87.5 % of a 6T), confirming
the port count the paper settles on.
"""

import pytest

from repro.sram.bitcell import CellType, hypothetical_cell_area_ratio
from repro.sram.readport import ReadPortModel
from repro.sweep import SweepRunner, ports_spec


def sweep_ports():
    model = ReadPortModel()
    rows = {}
    for ports in (1, 2, 3, 4):
        cell = CellType.from_ports(ports)
        op = model.operating_point(cell, 0.5)
        rows[ports] = {
            "avg_time_ns": op.avg_access_time_ns,
            "avg_energy_pj": op.avg_access_energy_pj,
            "area_ratio": hypothetical_cell_area_ratio(ports),
        }
    rows[5] = {"area_ratio": hypothetical_cell_area_ratio(5)}
    return rows


@pytest.mark.benchmark(group="ablation")
def test_port_count_design_space(benchmark):
    rows = benchmark(sweep_ports)
    print()
    print("port-count design space (Vprech = 500 mV):")
    for ports in (1, 2, 3, 4):
        r = rows[ports]
        # Throughput-per-area figure of merit: accesses/ns per 6T-area.
        fom = 1.0 / (r["avg_time_ns"] * r["area_ratio"])
        print(
            f"  {ports} port(s): {r['avg_time_ns']:.3f} ns/access, "
            f"{r['avg_energy_pj'] * 1e3:.0f} fJ/access, "
            f"{r['area_ratio']:.3f}x area, FoM {fom:.2f}"
        )
    print(f"  5 ports: {rows[5]['area_ratio']:.3f}x area "
          "(pitch exhausted -> rejected by the paper)")
    # Average access time improves all the way to 4 ports...
    times = [rows[p]["avg_time_ns"] for p in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(times, times[1:]))
    # ...but the 5th port's area step is larger than any previous one.
    steps = [
        rows[p + 1]["area_ratio"] - rows[p]["area_ratio"] for p in (2, 3, 4)
    ]
    assert steps[-1] == pytest.approx(0.875)
    assert steps[-1] > 2.0 * steps[0]


@pytest.mark.benchmark(group="ablation")
def test_port_count_system_sweep(benchmark, figure8_sweep):
    """End-to-end view of the same axis: the named ``ports`` sweep."""
    spec = ports_spec(
        sample_images=figure8_sweep.sample_images[0],
        quality=figure8_sweep.quality,
        seed=figure8_sweep.seed,
    )
    runner = SweepRunner(spec, cache=None)
    result = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    print()
    print(result.render())
    by_ports = {row.point.read_ports: row.metrics for row in result.rows}
    # More ports drain spikes faster: throughput rises monotonically...
    throughputs = [by_ports[p].throughput_minf_s for p in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(throughputs, throughputs[1:]))
    # ...and energy per inference falls monotonically.
    energies = [by_ports[p].energy_per_inference_pj for p in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(energies, energies[1:]))
