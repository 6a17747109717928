"""Table 3 — comparison with state-of-the-art small-scale SNN systems.

Literature rows are constants from the paper; the "This Work" row is
measured from the cycle-accurate simulation of the 1RW+4R system.
"""

import pytest

from repro.sram.bitcell import CellType
from repro.sweep import build_network, evaluate_point
from repro.system.comparison import (
    TABLE3_PAPER_THIS_WORK,
    table3,
    this_work_row,
)
from repro.system.report import render_table3


@pytest.mark.benchmark(group="table3")
def test_table3(benchmark, figure8_sweep, reference_model):
    point = next(p for p in figure8_sweep.expand()
                 if p.cell_type is CellType.C1RW4R)
    metrics = benchmark.pedantic(
        evaluate_point, args=(point,), rounds=1, iterations=1
    )
    network = build_network(point)
    measured = this_work_row(
        metrics,
        accuracy_pct=reference_model.test_accuracy * 100.0,
        neuron_count=network.neuron_count,
        synapse_count=network.synapse_count,
    )
    print()
    print(render_table3(table3(measured)))
    paper = TABLE3_PAPER_THIS_WORK
    print(f"paper 'This Work' row: {paper.throughput_inf_s / 1e6:.0f} MInf/s, "
          f"{paper.energy_per_inf_j * 1e12:.0f} pJ/Inf, "
          f"{paper.power_w * 1e3:.0f} mW @ "
          f"{paper.clock_frequency_hz / 1e6:.0f} MHz")
    # Structural facts must match the paper exactly.
    assert measured.neuron_count == paper.neuron_count
    assert measured.transposable
    assert measured.weight_bits == 1 and measured.activation_bits == 1
    assert measured.clock_frequency_hz == pytest.approx(810e6, rel=2e-3)
    # Performance within the reproduction band.
    assert measured.throughput_inf_s == pytest.approx(44e6, rel=0.15)
    assert measured.energy_per_inf_j == pytest.approx(0.607e-9, rel=0.15)
