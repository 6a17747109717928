"""The abstract's headline claims, derived from Figure-8 metrics.

Figure 8 and the claims come from one spike-by-spike simulation of the
five cell options — "the synthesis results, combined with the SRAM
macro outcomes, are utilized to simulate the network on a
spike-by-spike basis in Python" (section 4.1).  The ``figure8`` sweep
(:mod:`repro.sweep`) runs that simulation; :func:`headline_claims` is
pure arithmetic over its :class:`SystemMetrics`, so cached rows give
the claims without touching the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError
from repro.sram.bitcell import CellType
from repro.system.energy import SystemMetrics


@dataclass(frozen=True)
class HeadlineClaims:
    """Section 4.4.2 / abstract claims, measured."""

    speedup_vs_1rw: float
    energy_efficiency_vs_1rw: float
    throughput_minf_s: float
    energy_per_inf_pj: float
    power_mw: float
    area_ratio_vs_1rw: float
    accuracy: float


def headline_claims(metrics: Iterable[SystemMetrics],
                    accuracy: float = float("nan")) -> HeadlineClaims:
    """The 1RW+4R system against the 1RW baseline.

    ``metrics`` are one Figure-8 group's rows, at most one per cell; a
    cell that appears twice (two Vprech values, say) is a
    :class:`ConfigurationError` naming it, not a silent pick of one of
    its rows.  ``accuracy`` is carried through verbatim: it comes from
    the functional model, not from the hardware rows.
    """
    by_cell: dict[str, SystemMetrics] = {}
    for row in metrics:
        if row.cell_type_label in by_cell:
            raise ConfigurationError(
                f"figure-8 rows hold {row.cell_type_label} more than once; "
                "the claims need one row per cell"
            )
        by_cell[row.cell_type_label] = row
    base = by_cell.get(CellType.C6T.value)
    best = by_cell.get(CellType.C1RW4R.value)
    if base is None or best is None:
        raise ConfigurationError("figure-8 rows must include 1RW and 1RW+4R")
    return HeadlineClaims(
        speedup_vs_1rw=best.throughput_minf_s / base.throughput_minf_s,
        energy_efficiency_vs_1rw=(
            base.energy_per_inference_pj / best.energy_per_inference_pj
        ),
        throughput_minf_s=best.throughput_minf_s,
        energy_per_inf_pj=best.energy_per_inference_pj,
        power_mw=best.power_mw,
        area_ratio_vs_1rw=best.area_mm2 / base.area_mm2,
        accuracy=accuracy,
    )
