"""Table 3: comparison with state-of-the-art small-scale SNN accelerators.

The literature rows are constants transcribed from the paper (refs [6],
[9], [10]); the "This Work" row is *measured* from our system simulation
so the comparison tracks whatever the reproduction actually achieves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.energy import SystemMetrics


@dataclass(frozen=True)
class Table3Row:
    """One column of the paper's Table 3."""

    label: str
    technology_nm: float
    neuron_count: int
    synapse_count: int
    activation_bits: int | None
    weight_bits: int
    transposable: bool
    clock_frequency_hz: float
    power_w: float
    accuracy_pct: float
    throughput_inf_s: float
    energy_per_inf_j: float | None


#: Literature systems exactly as tabulated by the paper.
TABLE3_LITERATURE = (
    Table3Row(
        label="Wang A-SSCC'20 [6]",
        technology_nm=65, neuron_count=650, synapse_count=67_000,
        activation_bits=6, weight_bits=1, transposable=False,
        clock_frequency_hz=70e3, power_w=305e-9, accuracy_pct=97.6,
        throughput_inf_s=2.0, energy_per_inf_j=195e-9,
    ),
    Table3Row(
        label="Chen JSSC'19 [9]",
        technology_nm=10, neuron_count=4096, synapse_count=1_000_000,
        activation_bits=1, weight_bits=7, transposable=False,
        clock_frequency_hz=506e6, power_w=196e-3, accuracy_pct=97.9,
        throughput_inf_s=6250.0, energy_per_inf_j=1000e-9,
    ),
    Table3Row(
        label="Kim Front.Neuro'18 [10]",
        technology_nm=65, neuron_count=1000, synapse_count=256_000,
        activation_bits=None, weight_bits=5, transposable=True,
        clock_frequency_hz=100e6, power_w=53e-3, accuracy_pct=97.2,
        throughput_inf_s=20.0, energy_per_inf_j=None,
    ),
)

#: Paper-reported values of the "This Work" column, for reference in
#: the benchmark's paper-vs-measured table.
TABLE3_PAPER_THIS_WORK = Table3Row(
    label="ESAM (paper)",
    technology_nm=3, neuron_count=778, synapse_count=330_000,
    activation_bits=1, weight_bits=1, transposable=True,
    clock_frequency_hz=810e6, power_w=29.0e-3, accuracy_pct=97.6,
    throughput_inf_s=44e6, energy_per_inf_j=0.607e-9,
)


def this_work_row(metrics: SystemMetrics, accuracy_pct: float,
                  neuron_count: int, synapse_count: int) -> Table3Row:
    """Build the measured "This Work" column from a Figure-8 row."""
    return Table3Row(
        label="ESAM (this reproduction)",
        technology_nm=3,
        neuron_count=neuron_count,
        synapse_count=synapse_count,
        activation_bits=1,
        weight_bits=1,
        transposable=True,
        clock_frequency_hz=1e9 / metrics.clock_period_ns,
        power_w=metrics.power_mw * 1e-3,
        accuracy_pct=accuracy_pct,
        throughput_inf_s=metrics.throughput_inf_s,
        energy_per_inf_j=metrics.energy_per_inference_pj * 1e-12,
    )


def table3(measured: Table3Row) -> list[Table3Row]:
    """The full Table 3: literature rows plus the measured system."""
    return [*TABLE3_LITERATURE, measured]
