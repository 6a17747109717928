"""CLI for the result store: ``python -m repro.store``.

Subcommands::

    python -m repro.store query [--where "cell=6T,node=3nm"] [--kind sweep]
    python -m repro.store query --aggregate metrics.latency_ns --by cell,node
    python -m repro.store backfill [--cache-dir DIR]
    python -m repro.store gc [--max-age-s 3600]

``query`` answers from the SQLite index beside the cache with zero
re-evaluation (backfilling pre-store entries first); ``backfill``
indexes a cache directory explicitly; ``gc`` removes stale ``*.tmp``
files stranded by hard-killed writers.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.store.cli import open_store, store_path_for
from repro.store.index import ResultStore, parse_filter, render_records
from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Query and maintain the campaign result store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser(
        "query", help="print indexed campaign rows (zero re-evaluation)",
    )
    _add_cache_dir(query)
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

    backfill = commands.add_parser(
        "backfill",
        help="index every unseen cache entry (idempotent)",
    )
    _add_cache_dir(backfill)

    gc = commands.add_parser(
        "gc",
        help="remove stale *.tmp files stranded by hard-killed writers",
    )
    _add_cache_dir(gc)
    gc.add_argument(
        "--max-age-s", type=float, default=3600.0, metavar="S",
        help="age threshold; younger tmp files are presumed in-flight "
             "(default: 3600)",
    )
    return parser


def _cache(args: argparse.Namespace) -> ResultCache:
    # Maintenance commands manage tmp GC explicitly, so disable the
    # constructor's automatic pass.
    return ResultCache(args.cache_dir, tmp_max_age_s=None)


def _run_query(args: argparse.Namespace) -> int:
    cache = _cache(args)
    where = parse_filter(args.where)
    if args.kind is not None:
        where["kind"] = args.kind
    with open_store(cache, backfill=True) as store:
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
            print(f"wrote {store.to_csv(args.csv, **where)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "query":
            return _run_query(args)
        if args.command == "backfill":
            cache = _cache(args)
            with ResultStore(store_path_for(cache.root)) as store:
                added = store.backfill(cache.root)
                print(f"backfilled {added} entries "
                      f"({len(store)} total) into {store.path}")
            return 0
        if args.command == "gc":
            cache = _cache(args)
            removed = cache.gc_stale_tmp(max_age_s=args.max_age_s)
            print(f"removed {removed} stale tmp file"
                  f"{'s' if removed != 1 else ''} under {cache.root}")
            return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
