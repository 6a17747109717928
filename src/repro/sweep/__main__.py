"""CLI for named design-space sweeps: ``python -m repro.sweep``.

Examples::

    python -m repro.sweep --list
    python -m repro.sweep figure8 --workers 4 --sample-images 32
    python -m repro.sweep vprech --out vprech.json --csv vprech.csv
    python -m repro.sweep figure8 --claims --no-cache
    python -m repro.sweep corners --claims
    python -m repro.sweep figure8 --node 5nm --corner slow
    python -m repro.sweep --query "cell=1RW+4R,node=3nm"

Hardware scalars come from the shared config surface (``--config`` /
``--cell`` / ``--vprech`` / ``--node`` / ``--corner``, see
:mod:`repro.hw.cli`); each named sweep consumes the subset it does not
itself sweep.  Re-running a sweep with an unchanged model serves every
point from the on-disk cache (``.artifacts/sweep_cache/`` by default)
and finishes in milliseconds; ``--cache-dir`` relocates the cache,
``--no-cache`` forces fresh evaluation.

Cached sweeps are interruptible: every finished point is committed to
the cache as it completes, so Ctrl-C keeps partial results, prints the
command that resumes the run and exits 130.  Re-running the same
command evaluates only the unfinished points; finished ones are cache
hits (zero recomputation).

The cache keeps its rows in a queryable SQLite result store:
``--query "cell=6T,node=3nm"`` answers from past runs with zero
re-evaluation (see :mod:`repro.store`).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError, ReproError
from repro.hw.cli import add_engine_argument, add_hardware_arguments
from repro.store.cli import CampaignCli
from repro.sweep.results import SweepResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import NAMED_SWEEPS


class SweepCli(CampaignCli):
    prog = "python -m repro.sweep"
    description = "Run a named ESAM design-space sweep."
    noun = "sweep"
    named = NAMED_SWEEPS
    runner_type = SweepRunner
    sample_help = "images simulated hardware-accurately per point"
    seed_help = "model/sampling seed"
    claims_help = "also print the headline claims derived from the rows"

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        # The cell option is a swept axis for every named sweep, so only
        # the scalar hardware flags are exposed here.
        add_hardware_arguments(parser, cell=False)
        add_engine_argument(
            parser, default=None,
            help_suffix="narrows the engines sweep's axis when given",
        )

    def grid_kwargs(self, args: argparse.Namespace) -> dict:
        return {"engines": (args.engine,) if args.engine else None}

    def list_line(self, name: str, spec) -> str:
        summary = self.named[name].__doc__.splitlines()[0]
        return f"{name:10s} {len(spec):3d} points  ({summary})"

    def claims(self, result: SweepResult) -> str:
        try:
            claims = result.headline_claims()
        except ReproError as error:
            raise ConfigurationError(
                f"--claims needs figure-8 rows ({error})"
            ) from None
        claims_at = result.claims_group()
        groups = {(r.point.node, r.point.corner) for r in result.rows}
        if groups != {claims_at}:
            title = (f"headline claims at {claims_at[0]}/{claims_at[1]} "
                     "(paper -> measured):")
        else:
            title = "headline claims (paper -> measured):"
        return "\n".join([
            title,
            f"  speedup vs 1RW:      3.1x  -> {claims.speedup_vs_1rw:.2f}x",
            f"  energy efficiency:   2.2x  -> "
            f"{claims.energy_efficiency_vs_1rw:.2f}x",
            f"  throughput:     44 MInf/s  -> "
            f"{claims.throughput_minf_s:.1f} MInf/s",
            f"  energy/inference: 607 pJ   -> "
            f"{claims.energy_per_inf_pj:.0f} pJ",
            f"  power:             29 mW   -> {claims.power_mw:.1f} mW",
        ])


main = SweepCli().main


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
