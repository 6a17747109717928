"""Observability CLI: ``python -m repro.obs`` (also ``repro-obs``).

Subcommands::

    python -m repro.obs report --out report.html
    python -m repro.obs report --out report.html \\
        --trace serve.trace.jsonl --bench-dir .
    python -m repro.obs report --out report.html \\
        --store .artifacts/sweep_cache/store.sqlite

``report`` folds every ``BENCH_*.json`` in the bench directory (the
repo root by default), an optional captured trace (either export
format — JSONL or Chrome ``trace_event``) and an optional campaign
result store (``--store``, the SQLite file in the sweep cache)
into one self-contained HTML dashboard; see :mod:`repro.obs.report`.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.obs.report import default_bench_dir, write_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tooling: the benchmark/trace dashboard.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser(
        "report",
        help="render the HTML dashboard over BENCH_*.json artifacts",
    )
    report.add_argument(
        "--out", metavar="PATH", required=True,
        help="output HTML file",
    )
    report.add_argument(
        "--bench-dir", metavar="DIR", default=None,
        help="directory holding BENCH_*.json artifacts "
             f"(default: {default_bench_dir()})",
    )
    report.add_argument(
        "--trace", metavar="PATH", default=None,
        help="optional trace file (--trace-out output, JSONL or Chrome "
             "JSON) to include",
    )
    report.add_argument(
        "--store", metavar="PATH", default=None,
        help="optional campaign result store (store.sqlite in the "
             "sweep cache) whose history to include",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        path = write_report(
            args.out, bench_dir=args.bench_dir, trace_path=args.trace,
            store_path=args.store,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
