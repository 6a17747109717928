"""Plain-text renderers for the reproduced tables and figures.

Benchmarks print these so their output can be compared side by side
with the paper; ``python -m repro.reproduce`` writes them all.
"""

from __future__ import annotations

import math

from repro.sram.electrical import TransposedAccess
from repro.sram.readport import ReadPortOperatingPoint
from repro.system.claims import HeadlineClaims
from repro.system.comparison import Table3Row
from repro.system.energy import SystemMetrics
from repro.tile.pipeline import PipelineStageReport
from repro.units import si_format


def render_table(headers: list[str], rows: list[list[str]],
                 title: str | None = None) -> str:
    """Fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_figure6(points: list[TransposedAccess]) -> str:
    rows = [
        [
            p.cell_type.value,
            f"{p.write_time_ns:.2f}",
            f"{p.read_time_ns:.2f}",
            f"{p.write_energy_pj:.2f}",
            f"{p.read_energy_pj:.2f}",
            f"{p.vwd_v * 1e3:.0f}",
        ]
        for p in points
    ]
    return render_table(
        ["cell", "write [ns]", "read [ns]", "write [pJ]", "read [pJ]", "V_WD [mV]"],
        rows,
        title="Figure 6 — transposed-port write/read time and energy",
    )


def render_figure7(points: list[ReadPortOperatingPoint]) -> str:
    rows = [
        [
            f"{p.vprech * 1e3:.0f} mV",
            str(p.ports),
            f"{p.avg_access_time_ns:.3f}",
            f"{p.avg_access_energy_pj * 1e3:.1f}",
            "yes" if p.extended_precharge else "no",
        ]
        for p in points
    ]
    return render_table(
        ["Vprech", "ports", "avg access [ns]", "avg energy [fJ]", "extended precharge"],
        rows,
        title="Figure 7 — average access energy/time per port count and Vprech",
    )


def render_table2(reports: list[PipelineStageReport]) -> str:
    headers = ["stage"] + [r.cell_type.value for r in reports]
    arbiter = ["Arbiter"] + [f"{r.arbiter_stage_ns:.2f}ns" for r in reports]
    sram = ["SRAM + Neuron"] + [f"{r.sram_neuron_stage_ns:.2f}ns" for r in reports]
    clock = ["clock period"] + [f"{r.clock_period_ns:.2f}ns" for r in reports]
    return render_table(
        headers, [arbiter, sram, clock],
        title="Table 2 — pipeline stage durations",
    )


def render_figure8(metrics: list[SystemMetrics]) -> str:
    table_rows = [
        [
            m.cell_type_label,
            f"{m.throughput_minf_s:.1f}",
            f"{m.energy_per_inference_pj:.0f}",
            f"{m.power_mw:.1f}",
            f"{m.area_mm2 * 1e3:.1f}",
        ]
        for m in metrics
    ]
    return render_table(
        ["cell", "throughput [MInf/s]", "energy [pJ/Inf]", "power [mW]",
         "area [10^-3 mm^2]"],
        table_rows,
        title="Figure 8 — system-level comparison of the SRAM cell options",
    )


def render_claims(claims: HeadlineClaims,
                  title: str = "headline claims (paper -> measured):") -> str:
    """The abstract's claims beside the paper's values; the accuracy
    line only when the accuracy is known."""
    lines = [
        title,
        f"  speedup vs 1RW:      3.1x  -> {claims.speedup_vs_1rw:.2f}x",
        f"  energy efficiency:   2.2x  -> "
        f"{claims.energy_efficiency_vs_1rw:.2f}x",
        f"  throughput:     44 MInf/s  -> "
        f"{claims.throughput_minf_s:.1f} MInf/s",
        f"  energy/inference: 607 pJ   -> "
        f"{claims.energy_per_inf_pj:.0f} pJ",
        f"  power:             29 mW   -> {claims.power_mw:.1f} mW",
    ]
    if not math.isnan(claims.accuracy):
        lines.append(f"  accuracy:          97.64%  -> "
                     f"{claims.accuracy * 100:.2f}% (paper: MNIST; here: "
                     "synthetic digits)")
    return "\n".join(lines)


def render_table3(rows: list[Table3Row]) -> str:
    def fmt(row: Table3Row) -> list[str]:
        return [
            row.label,
            f"{row.technology_nm:g}",
            str(row.neuron_count),
            str(row.synapse_count),
            "-" if row.activation_bits is None else str(row.activation_bits),
            str(row.weight_bits),
            "yes" if row.transposable else "no",
            si_format(row.clock_frequency_hz, "Hz"),
            si_format(row.power_w, "W"),
            f"{row.accuracy_pct:.1f}",
            si_format(row.throughput_inf_s, "Inf/s"),
            "-" if row.energy_per_inf_j is None
            else si_format(row.energy_per_inf_j, "J/Inf"),
        ]

    return render_table(
        ["system", "node [nm]", "neurons", "synapses", "act bits", "w bits",
         "transposable", "clock", "power", "MNIST acc [%]", "throughput",
         "energy/Inf"],
        [fmt(r) for r in rows],
        title="Table 3 — comparison with small-scale SNN accelerators",
    )
