"""CLI for fault campaigns: ``python -m repro.reliability``.

Examples::

    python -m repro.reliability --list
    python -m repro.reliability --claims
    python -m repro.reliability --trials 8 --workers 4 --claims
    python -m repro.reliability --corner slow --bers 0,1e-3,5e-2
    python -m repro.reliability cells --out faults.json --csv faults.csv
    python -m repro.reliability --query "ber=0.05,corner=slow"

Hardware scalars come from the same shared config surface as the
sweep and serving CLIs (``--config`` / ``--cell`` / ``--vprech`` /
``--node`` / ``--corner``, see :mod:`repro.hw.cli`); a pinned scalar
narrows the corresponding campaign axis instead of being dropped.
Campaign entries share the sweep engine's on-disk cache, so warm
re-runs (and overlaps with earlier campaigns) finish without touching
the simulator; ``--no-cache`` forces fresh evaluation.

Campaigns are interruptible: every finished fault point is committed
to the cache as it completes, so Ctrl-C keeps partial results, prints
the command that resumes the run and exits 130.  Re-running the same
command evaluates only the unfinished points.

The cache keeps its rows in a queryable SQLite result store:
``--query "ber=0.05"`` answers from past campaigns with zero
re-evaluation (see :mod:`repro.store`).
"""

from __future__ import annotations

import argparse
import sys

from repro.hw.cli import add_engine_argument, add_hardware_arguments
from repro.reliability.results import CampaignResult
from repro.reliability.runner import ReliabilityRunner
from repro.reliability.spec import NAMED_CAMPAIGNS
from repro.store.cli import CampaignCli


def _parse_bers(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--bers expects comma-separated floats, got {text!r}"
        ) from None


class ReliabilityCli(CampaignCli):
    prog = "python -m repro.reliability"
    description = "Run a Monte-Carlo weight-fault campaign."
    noun = "campaign"
    named = NAMED_CAMPAIGNS
    default = "reliability"
    runner_type = ReliabilityRunner
    sample_help = "images classified per trial"
    seed_help = "model/mask seed"
    claims_help = "also print the degradation claims derived from the curves"

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--trials", type=int, default=4, metavar="N",
            help="Monte-Carlo trials per BER point (default: 4)",
        )
        parser.add_argument(
            "--bers", type=_parse_bers, default=None, metavar="B0,B1,...",
            help="bit-error-rate axis as comma-separated floats",
        )
        add_hardware_arguments(parser)
        add_engine_argument(parser, help_suffix="applies to every trial")

    def grid_kwargs(self, args: argparse.Namespace) -> dict:
        return {"trials": args.trials, "bers": args.bers}

    def list_line(self, name: str, spec) -> str:
        summary = self.named[name].__doc__.splitlines()[0]
        return (f"{name:12s} {len(spec):3d} points x {spec.trials} trials  "
                f"({summary})")

    def claims(self, result: CampaignResult) -> str:
        return result.render_claims()


main = ReliabilityCli().main


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
