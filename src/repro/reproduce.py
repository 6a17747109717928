"""One-shot reproduction driver: ``python -m repro.reproduce [outdir]``.

Regenerates every table and figure of the paper, prints them, and
writes the underlying series as CSV plus a markdown summary to the
output directory (default ``./reproduction/``).  This is the scripted
equivalent of running the full benchmark suite.  Figure 8 and the
headline claims are the ``figure8`` sweep, run on the default result
cache as ``python -m repro.sweep figure8`` runs it, so a second run
serves them from the cache.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.errors import ReproError, writing
from repro.learning.pretrained import get_reference_model
from repro.sram.bitcell import CellType
from repro.sram.electrical import TransposedPortModel
from repro.sram.readport import ReadPortModel
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepRunner, build_network
from repro.sweep.spec import figure8_spec
from repro.system.comparison import table3, this_work_row
from repro.system.export import export_figure6, export_figure7, export_table2
from repro.system.report import (
    render_claims,
    render_figure6,
    render_figure7,
    render_figure8,
    render_table2,
    render_table3,
)
from repro.tile.pipeline import PipelineModel


def reproduce_all(outdir: pathlib.Path, sample_images: int = 32,
                  quality: str = "full") -> dict[str, pathlib.Path]:
    """Run everything; returns the written artifact paths.

    An ``outdir`` that cannot be created is an
    :class:`~repro.errors.OutputError`, raised before anything runs; so
    is an artifact that cannot be written, raised when it is reached.
    """
    outdir = pathlib.Path(outdir)
    with writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, pathlib.Path] = {}
    sections: list[str] = []

    fig6 = TransposedPortModel().figure6()
    print(render_figure6(fig6), "\n")
    with writing(outdir / "figure6.csv"):
        artifacts["figure6"] = export_figure6(fig6, outdir / "figure6.csv")
    sections.append(render_figure6(fig6))

    fig7 = ReadPortModel().figure7()
    print(render_figure7(fig7), "\n")
    with writing(outdir / "figure7.csv"):
        artifacts["figure7"] = export_figure7(fig7, outdir / "figure7.csv")
    sections.append(render_figure7(fig7))

    table2 = PipelineModel().table2()
    print(render_table2(table2), "\n")
    with writing(outdir / "table2.csv"):
        artifacts["table2"] = export_table2(table2, outdir / "table2.csv")
    sections.append(render_table2(table2))

    print(f"running the system sweep ({sample_images} images/cell) ...")
    spec = figure8_spec(sample_images=sample_images, quality=quality)
    cache = ResultCache()
    with cache.store:
        result = SweepRunner(spec, cache=cache).run()
    fig8 = render_figure8([row.metrics for row in result])
    print(fig8, "\n")
    with writing(outdir / "figure8.csv"):
        artifacts["figure8"] = result.to_csv(outdir / "figure8.csv")
    sections.append(fig8)

    claims = result.headline_claims(
        get_reference_model(quality, spec.seed).test_accuracy
    )
    best = next(row for row in result
                if row.point.cell_type is CellType.C1RW4R)
    network = build_network(best.point)
    measured = this_work_row(
        best.metrics,
        accuracy_pct=claims.accuracy * 100.0,
        neuron_count=network.neuron_count,
        synapse_count=network.synapse_count,
    )
    t3 = render_table3(table3(measured))
    print(t3, "\n")
    sections.append(t3)

    headline = render_claims(claims)
    print(headline)
    sections.append(headline)

    summary = outdir / "summary.md"
    with writing(summary):
        summary.write_text(
            "# ESAM reproduction summary\n\n```\n"
            + "\n\n".join(sections)
            + "\n```\n"
        )
    artifacts["summary"] = summary
    return artifacts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce",
        description="Regenerate every table and figure of the paper and "
                    "write their series as CSV plus summary.md.",
    )
    parser.add_argument(
        "outdir", nargs="?", type=pathlib.Path,
        default=pathlib.Path("reproduction"),
        help="output directory (default: reproduction/)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        artifacts = reproduce_all(args.outdir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print("\nwritten artifacts:")
    for name, path in artifacts.items():
        print(f"  {name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
