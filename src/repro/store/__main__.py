"""CLI for the result store: ``python -m repro.store``.

Subcommands::

    python -m repro.store query [--where "cell=6T,node=3nm"] [--kind sweep]
    python -m repro.store query --aggregate metrics.latency_ns --by cell,node

``query`` answers from the cache's SQLite store with zero
re-evaluation.  It opens the store read-only
(:meth:`~repro.store.index.ResultStore.for_reading`): a missing,
damaged or other-version store exits 1 with an ``error:`` line and
is left as it was.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.errors import ReproError, writing
from repro.store.index import (
    STORE_FILENAME,
    ResultStore,
    parse_filter,
    render_records,
)
from repro.sweep.cache import DEFAULT_CACHE_DIR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Query the campaign result store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser(
        "query", help="print stored campaign rows (zero re-evaluation)",
    )
    query.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    query.add_argument(
        "--kind", default=None,
        help="entry family to query (sweep, reliability; default: all)",
    )
    query.add_argument(
        "--where", metavar="FILTER", default="",
        help="comma-separated axis=value terms, e.g. \"cell=6T,node=3nm\"",
    )
    query.add_argument(
        "--scalar", action="append", default=None, metavar="NAME",
        help="scalar column(s) to print (repeatable; default: the most "
             "common scalars across the matching rows)",
    )
    query.add_argument(
        "--aggregate", metavar="SCALAR", default=None,
        help="fold this dotted scalar instead of listing rows "
             "(n/mean/min/max per group)",
    )
    query.add_argument(
        "--by", metavar="AXES", default="cell",
        help="comma-separated grouping axes for --aggregate "
             "(default: cell)",
    )
    query.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also export the matching rows as flat CSV",
    )
    return parser


def _run_query(args: argparse.Namespace) -> int:
    where = parse_filter(args.where)
    if args.kind is not None:
        where["kind"] = args.kind
    root = pathlib.Path(args.cache_dir or DEFAULT_CACHE_DIR)
    with ResultStore.for_reading(root / STORE_FILENAME) as store:
        if args.aggregate is not None:
            by = tuple(
                part.strip() for part in args.by.split(",") if part.strip()
            )
            folds = store.aggregate(args.aggregate, by=by, **where)
            if not folds:
                print("store: no matching rows carry "
                      f"{args.aggregate!r}")
            for group, fold in folds.items():
                label = "/".join(str(part) for part in group)
                print(f"{label:24s} n={fold.n:<4d} mean={fold.mean:.6g} "
                      f"min={fold.min:.6g} max={fold.max:.6g}")
        else:
            print(render_records(store.filter(**where),
                                 scalars=args.scalar))
        if args.csv:
            with writing(args.csv):
                print(f"wrote {store.to_csv(args.csv, **where)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)  # "query" is the one command
    try:
        return _run_query(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
