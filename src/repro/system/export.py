"""CSV export of the reproduced figures (for plotting downstream).

The paper's figures are bar/line charts; this module writes the exact
series behind each one as CSV so users can regenerate the plots with
their tool of choice without re-running the simulations.  Figure 8's
series is the ``figure8`` sweep's own CSV
(:meth:`repro.sweep.SweepResult.to_csv`).
"""

from __future__ import annotations

import csv
import pathlib

from repro.errors import ConfigurationError
from repro.sram.electrical import TransposedAccess
from repro.sram.readport import ReadPortOperatingPoint
from repro.tile.pipeline import PipelineStageReport


def _write_csv(path: pathlib.Path, header: list[str],
               rows: list[list]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_figure6(points: list[TransposedAccess], path) -> pathlib.Path:
    if not points:
        raise ConfigurationError("no data points to export")
    return _write_csv(
        pathlib.Path(path),
        ["cell", "write_time_ns", "read_time_ns", "write_energy_pj",
         "read_energy_pj", "vwd_v"],
        [
            [p.cell_type.value, p.write_time_ns, p.read_time_ns,
             p.write_energy_pj, p.read_energy_pj, p.vwd_v]
            for p in points
        ],
    )


def export_figure7(points: list[ReadPortOperatingPoint], path) -> pathlib.Path:
    if not points:
        raise ConfigurationError("no data points to export")
    return _write_csv(
        pathlib.Path(path),
        ["vprech_v", "ports", "avg_access_time_ns", "avg_access_energy_pj",
         "extended_precharge"],
        [
            [p.vprech, p.ports, p.avg_access_time_ns, p.avg_access_energy_pj,
             int(p.extended_precharge)]
            for p in points
        ],
    )


def export_table2(reports: list[PipelineStageReport], path) -> pathlib.Path:
    if not reports:
        raise ConfigurationError("no data points to export")
    return _write_csv(
        pathlib.Path(path),
        ["cell", "arbiter_stage_ns", "sram_neuron_stage_ns",
         "clock_period_ns", "clock_mhz"],
        [
            [r.cell_type.value, r.arbiter_stage_ns, r.sram_neuron_stage_ns,
             r.clock_period_ns, r.clock_frequency_mhz]
            for r in reports
        ],
    )

