"""The one campaign CLI base class, plus the store helpers it uses.

``python -m repro.sweep`` and ``python -m repro.reliability`` are two
small :class:`CampaignCli` subclasses: each states only its grid
registry, runner, the flags of its own (``--trials``/``--bers``,
hardware and engine), how flags map onto a spec factory, and its
claims block.  The base class owns the rest, so both CLIs behave alike:
``--list``, ``--query`` (answered from the result store with zero
re-evaluation), opening the cache and store, exit 130 on Ctrl-C with
the command that resumes the run, closing the store, and rendering
with ``--out``/``--csv``.
The store's own CLI (``python -m repro.store``) opens the store through
the same :func:`open_store`.
"""

from __future__ import annotations

import argparse
import inspect
import pathlib
import shlex
import sys

from repro.errors import ReproError
from repro.hw.cli import (
    ObservabilityScope,
    add_observability_arguments,
    hardware_from_args,
    narrowed_axes,
)
from repro.learning.pretrained import QUALITY_PRESETS
from repro.store.index import (
    STORE_FILENAME,
    ResultStore,
    parse_filter,
    render_records,
)
from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache

#: Conventional exit status for a run ended by SIGINT (128 + 2).
SIGINT_EXIT = 130


def store_path_for(cache_root) -> pathlib.Path:
    """Where a cache directory's store index lives."""
    return pathlib.Path(cache_root) / STORE_FILENAME


def open_store(cache, *, backfill: bool = False) -> ResultStore:
    """The store beside ``cache``; a brand-new index is always
    backfilled so pre-store cache dirs become queryable immediately.
    ``backfill=True`` also rescans an existing index (idempotent — only
    unseen entries are added, e.g. ones written under ``--no-store``).
    """
    path = store_path_for(cache.root)
    fresh = not path.exists()
    store = ResultStore(path)
    if fresh or backfill:
        store.backfill(cache.root)
    return store


def print_interrupted(prog: str, argv: list[str] | None, *,
                      cached: bool = True) -> int:
    """Report an interrupt; returns :data:`SIGINT_EXIT`.

    With ``cached=True`` (a run backed by the result cache) the
    message names where the partial results live and prints the exact
    command that resumes the run: the same invocation, shell-quoted,
    whose finished points come back as cache hits.  A ``--no-cache``
    run must pass ``cached=False``: nothing was persisted, so claiming
    otherwise would lie.
    """
    if cached:
        arguments = argv if argv is not None else sys.argv[1:]
        command = " ".join([prog, *map(shlex.quote, arguments)])
        print("\ninterrupted: partial results are committed to the cache",
              file=sys.stderr)
        print(f"re-run to resume:\n  {command}", file=sys.stderr)
    else:
        print("\ninterrupted: --no-cache run — partial results were NOT "
              "persisted; re-run with the cache to make campaigns "
              "resumable", file=sys.stderr)
    return SIGINT_EXIT


class CampaignCli:
    """The common body of the campaign CLIs.

    A subclass states what differs: the class attributes below, the
    grid-specific flags (:meth:`add_arguments`), extra spec-factory
    keywords (:meth:`grid_kwargs`), the ``--list`` line and the claims
    block.  Every factory takes the evaluation scalars; each consumes
    only the ones it accepts, and a pinned hardware scalar whose axis
    the factory sweeps narrows that axis (see
    :func:`~repro.hw.cli.narrowed_axes`).
    """

    prog: str
    description: str
    #: The positional argument's name and the word in messages.
    noun: str
    #: Named grids: name -> spec factory.
    named: dict
    #: The positional's default (``None`` makes a name required).
    default: str | None = None
    #: The :class:`~repro.sweep.runner.CampaignRunner` subclass to run.
    runner_type: type
    sample_help: str
    seed_help: str
    claims_help: str

    # -- what a campaign CLI states --------------------------------------------------

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Attach this CLI's own flags (hardware, engine, grid axes)."""
        raise NotImplementedError

    def grid_kwargs(self, args: argparse.Namespace) -> dict:
        """Extra factory keywords from this CLI's flags (``None`` = not
        given); kept only where the factory accepts them."""
        raise NotImplementedError

    def list_line(self, name: str, spec) -> str:
        """One ``--list`` line for the named grid ``name``."""
        raise NotImplementedError

    def claims(self, result) -> str:
        """The claims block ``--claims`` prints after the table; a
        :class:`~repro.errors.ReproError` exits 1 with its message."""
        raise NotImplementedError

    # -- the shared CLI --------------------------------------------------------------

    def build_parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(
            prog=self.prog, description=self.description,
        )
        default_help = (f"default: {self.default}; " if self.default
                        else "")
        parser.add_argument(
            self.noun, nargs="?", choices=sorted(self.named),
            default=self.default,
            help=f"named {self.noun} to run ({default_help}see --list)",
        )
        parser.add_argument(
            "--list", action="store_true",
            help=f"list the named {self.noun}s and exit",
        )
        parser.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="worker processes for cache misses (default: 1)",
        )
        parser.add_argument(
            "--sample-images", type=int, default=64, metavar="N",
            help=f"{self.sample_help} (default: 64)",
        )
        parser.add_argument(
            "--quality", choices=QUALITY_PRESETS, default="full",
            help="reference-model preset (default: full)",
        )
        parser.add_argument(
            "--seed", type=int, default=None,
            help=f"{self.seed_help} (default: the --config file's seed, "
                 "else 42)",
        )
        parser.add_argument(
            "--out", metavar="PATH", help="write the result as JSON",
        )
        parser.add_argument(
            "--csv", metavar="PATH", help="write the result as flat CSV",
        )
        parser.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
        )
        parser.add_argument(
            "--no-cache", action="store_true",
            help="evaluate every point fresh, do not read or write the "
                 "cache",
        )
        parser.add_argument(
            "--claims", action="store_true", help=self.claims_help,
        )
        group = parser.add_argument_group(
            "result store", "the queryable SQLite index (see repro.store)",
        )
        group.add_argument(
            "--no-store", action="store_true",
            help="do not index results into the store (the SQLite index "
                 "beside the cache; the cache itself is unaffected)",
        )
        group.add_argument(
            "--query", metavar="FILTER", nargs="?", const="", default=None,
            help="answer from the store instead of running: print past "
                 "rows of this CLI's kind matching comma-separated "
                 "axis=value terms (e.g. \"cell=6T,node=3nm\"; empty = "
                 "all), with zero re-evaluation; combine with --csv to "
                 "export",
        )
        self.add_arguments(parser)
        add_observability_arguments(parser)
        return parser

    def main(self, argv: list[str] | None = None) -> int:
        parser = self.build_parser()
        args = parser.parse_args(argv)
        try:
            return self._main(parser, args, argv)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    def _main(self, parser: argparse.ArgumentParser,
              args: argparse.Namespace, argv: list[str] | None) -> int:
        if args.list:
            for name in sorted(self.named):
                print(self.list_line(name, self.named[name]()))
            return 0
        if args.query is not None:
            if args.no_cache:
                parser.error("--query answers from the cache's result "
                             "store; drop --no-cache")
            # Nothing is evaluated: the store is opened (and backfilled,
            # so even a cache written before the store existed
            # answers), filtered to this CLI's kind plus the user's
            # axis=value terms, and rendered.
            where = parse_filter(args.query)
            where.setdefault("kind", self.runner_type.kind)
            with open_store(ResultCache(args.cache_dir),
                            backfill=True) as store:
                print(render_records(store.filter(**where)))
                if args.csv:
                    print(f"wrote {store.to_csv(args.csv, **where)}")
            return 0
        name = getattr(args, self.noun)
        if name is None:
            parser.error(f"a {self.noun} name, --list or --query is "
                         "required")

        hardware = hardware_from_args(args, seed=args.seed)
        factory = self.named[name]
        accepted = inspect.signature(factory).parameters
        available = {
            "sample_images": args.sample_images, "quality": args.quality,
            "seed": hardware.seed, "vprech": hardware.vprech,
            "node": hardware.node, "corner": hardware.corner,
            "engine": args.engine or "fast", **self.grid_kwargs(args),
        }
        kwargs = {k: v for k, v in available.items()
                  if k in accepted and v is not None}
        kwargs.update(narrowed_axes(args, hardware, accepted))
        spec = factory(**kwargs)

        cache = None if args.no_cache else ResultCache(args.cache_dir)
        if cache is not None and not args.no_store:
            cache.store = open_store(cache)
        try:
            runner = self.runner_type(spec, n_workers=args.workers,
                                      cache=cache)
            with ObservabilityScope(args):
                result = runner.run()
        except KeyboardInterrupt:
            return print_interrupted(self.prog, argv,
                                     cached=cache is not None)
        finally:
            if cache is not None and cache.store is not None:
                cache.store.close()

        print(result.render())
        if args.claims:
            print(f"\n{self.claims(result)}")
        if args.out:
            print(f"wrote {result.to_json(args.out)}")
        if args.csv:
            print(f"wrote {result.to_csv(args.csv)}")
        return 0
