"""One-shot reproduction driver: ``python -m repro.reproduce [outdir]``.

Regenerates every table and figure of the paper, prints them, and
writes the underlying series as CSV plus a markdown summary to the
output directory (default ``./reproduction/``).  This is the scripted
equivalent of running the full benchmark suite.
"""

from __future__ import annotations

import pathlib
import sys

from repro.sram.bitcell import CellType
from repro.sram.electrical import TransposedPortModel
from repro.sram.readport import ReadPortModel
from repro.system.comparison import table3, this_work_row
from repro.system.evaluate import SystemEvaluator
from repro.system.export import (
    export_figure6,
    export_figure7,
    export_figure8,
    export_table2,
)
from repro.system.report import (
    render_figure6,
    render_figure7,
    render_figure8,
    render_table2,
    render_table3,
)
from repro.tile.pipeline import PipelineModel


def reproduce_all(outdir: pathlib.Path, sample_images: int = 32,
                  quality: str = "full") -> dict[str, pathlib.Path]:
    """Run everything; returns the written artifact paths."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, pathlib.Path] = {}
    sections: list[str] = []

    fig6 = TransposedPortModel().figure6()
    print(render_figure6(fig6), "\n")
    artifacts["figure6"] = export_figure6(fig6, outdir / "figure6.csv")
    sections.append(render_figure6(fig6))

    fig7 = ReadPortModel().figure7()
    print(render_figure7(fig7), "\n")
    artifacts["figure7"] = export_figure7(fig7, outdir / "figure7.csv")
    sections.append(render_figure7(fig7))

    table2 = PipelineModel().table2()
    print(render_table2(table2), "\n")
    artifacts["table2"] = export_table2(table2, outdir / "table2.csv")
    sections.append(render_table2(table2))

    print(f"running the system sweep ({sample_images} images/cell) ...")
    evaluator = SystemEvaluator(sample_images=sample_images, quality=quality)
    fig8 = evaluator.figure8()
    print(render_figure8(fig8), "\n")
    artifacts["figure8"] = export_figure8(fig8, outdir / "figure8.csv")
    sections.append(render_figure8(fig8))

    claims = evaluator.headline_claims(fig8)
    network = evaluator.build_network(CellType.C1RW4R)
    best = next(r for r in fig8 if r.cell_type is CellType.C1RW4R)
    measured = this_work_row(
        best,
        accuracy_pct=claims.accuracy * 100.0,
        neuron_count=network.neuron_count,
        synapse_count=network.synapse_count,
    )
    t3 = render_table3(table3(measured))
    print(t3, "\n")
    sections.append(t3)

    headline = (
        "headline claims (paper -> measured):\n"
        f"  speedup vs 1RW:      3.1x -> {claims.speedup_vs_1rw:.2f}x\n"
        f"  energy efficiency:   2.2x -> "
        f"{claims.energy_efficiency_vs_1rw:.2f}x\n"
        f"  throughput:     44 MInf/s -> {claims.throughput_minf_s:.1f}\n"
        f"  energy/inference:  607 pJ -> {claims.energy_per_inf_pj:.0f}\n"
        f"  power:              29 mW -> {claims.power_mw:.1f}\n"
        f"  accuracy:          97.64% -> {claims.accuracy * 100:.2f}% "
        "(synthetic digits)"
    )
    print(headline)
    sections.append(headline)

    summary = outdir / "summary.md"
    summary.write_text(
        "# ESAM reproduction summary\n\n```\n"
        + "\n\n".join(sections)
        + "\n```\n"
    )
    artifacts["summary"] = summary
    return artifacts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    outdir = pathlib.Path(argv[0]) if argv else pathlib.Path("reproduction")
    artifacts = reproduce_all(outdir)
    print("\nwritten artifacts:")
    for name, path in artifacts.items():
        print(f"  {name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
