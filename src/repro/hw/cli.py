"""Shared CLI surface for hardware configuration.

Both entry points (``python -m repro.sweep`` and ``python -m
repro.serve``) describe hardware through the same flags —
``--config`` (a :class:`~repro.hw.config.HardwareConfig` JSON file)
plus ``--cell / --vprech / --node / --corner`` overrides — parsed by
the same two functions, so the CLIs cannot drift: choices come from the
cell/node/corner registries and defaults from the ``HardwareConfig``
field defaults, never from hand-rolled literals.
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.errors import writing
from repro.hw.config import PAPER_VPRECH, HardwareConfig
from repro.obs.metrics import MetricRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer
from repro.sram.bitcell import ALL_CELLS, SELECTED_CELL, CellType
from repro.tech.constants import DEFAULT_NODE, TECHNOLOGY_NODES
from repro.tech.corners import DEFAULT_CORNER, PROCESS_CORNERS
from repro.tile.backends import backend_names


def add_engine_argument(parser: argparse.ArgumentParser, *,
                        default: str | None = "fast",
                        help_suffix: str = "") -> None:
    """Attach the shared ``--engine`` flag to ``parser``.

    Choices come straight from the engine-backend table
    (:func:`repro.tile.backends.backend_names`), so the sweep and
    reliability CLIs expose exactly the backends — a backend added to
    the table shows up in ``--help`` without a CLI edit.  Serving always
    runs the fast engine and takes no ``--engine``.  Pass
    ``default=None`` for CLIs that must distinguish "not given" (e.g.
    to narrow a swept engine axis only when the user pinned one).
    """
    parser.add_argument(
        "--engine", choices=backend_names(), default=default,
        help="simulation engine backend "
             f"(default: {default if default is not None else 'fast'})"
             + (f"; {help_suffix}" if help_suffix else ""),
    )


def add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace-out`` / ``--metrics-out`` flags.

    Every entry point (serve, sweep, reliability) exposes observability
    through the same two flags, consumed by :class:`ObservabilityScope`
    — so where a run is traced or scraped never depends on which CLI
    launched it.
    """
    group = parser.add_argument_group(
        "observability", "tracing and metrics export (see repro.obs)"
    )
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="record spans and write them here on exit; a .json suffix "
             "selects the Chrome trace_event format (chrome://tracing / "
             "Perfetto), anything else the JSONL span log",
    )
    group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the process metric registry here on exit "
             "(Prometheus-style text)",
    )


class ObservabilityScope:
    """Context manager honouring ``--trace-out`` / ``--metrics-out``.

    With ``--trace-out`` it installs a real :class:`Tracer` as the
    process default for the duration of the run (restoring the previous
    tracer — normally the no-op — on exit) and writes the export in
    the format the path's suffix selects.  With ``--metrics-out`` it
    exports the run's metric registry on exit.

    The scope always owns a **fresh** :class:`MetricRegistry`
    (``self.registry``), installed as the process default for the
    duration — so every CLI run's metrics cover exactly that run, and
    two runs in one process (in-process CLI tests, notebooks) never
    accumulate into each other's counters.  CLIs wrap their run
    unconditionally and pass ``scope.registry`` wherever a collector
    takes an explicit registry.

    The tracer's clock is ``time.monotonic`` — the same clock the
    serving stack times requests with — so serve spans (recorded with
    the server's clock) and engine spans (recorded with the tracer's)
    land on one time axis.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_out = getattr(args, "trace_out", None)
        self.metrics_out = getattr(args, "metrics_out", None)
        self.tracer: Tracer | None = (
            Tracer(clock=time.monotonic) if self.trace_out else None
        )
        self.registry = MetricRegistry()
        self._previous: Tracer | None = None
        self._previous_registry: MetricRegistry | None = None

    def __enter__(self) -> "ObservabilityScope":
        if self.tracer is not None:
            self._previous = set_tracer(self.tracer)
        self._previous_registry = set_registry(self.registry)
        return self

    def __exit__(self, *exc_info) -> None:
        set_registry(self._previous_registry)
        if self.tracer is not None:
            set_tracer(self._previous)
            path = pathlib.Path(self.trace_out)
            with writing(path):
                if path.suffix == ".json":
                    self.tracer.write_chrome_trace(path)
                else:
                    self.tracer.write_jsonl(path)
            stats = self.tracer.stats()
            print(f"wrote {path} ({stats['spans_recorded']} spans)")
        if self.metrics_out:
            with writing(self.metrics_out):
                print(f"wrote {self.registry.write_text(self.metrics_out)}")


def add_hardware_arguments(parser: argparse.ArgumentParser, *,
                           cell: bool = True) -> None:
    """Attach the shared hardware flags to ``parser``.

    Flags default to ``None`` ("not overridden"); the effective
    defaults are the :class:`HardwareConfig` field defaults, applied by
    :func:`hardware_from_args`.  Pass ``cell=False`` for CLIs where the
    cell option is a swept axis rather than a scalar choice.
    """
    group = parser.add_argument_group(
        "hardware", "design point (see repro.hw.HardwareConfig)"
    )
    group.add_argument(
        "--config", metavar="PATH", default=None,
        help="HardwareConfig JSON file; flags below override its fields",
    )
    if cell:
        group.add_argument(
            "--cell", choices=[c.value for c in ALL_CELLS], default=None,
            help=f"SRAM cell option (default: {SELECTED_CELL.value})",
        )
    group.add_argument(
        "--vprech", type=float, default=None, metavar="V",
        help=f"read-port precharge voltage (default: {PAPER_VPRECH})",
    )
    group.add_argument(
        "--node", choices=sorted(TECHNOLOGY_NODES), default=None,
        help=f"technology node (default: {DEFAULT_NODE})",
    )
    group.add_argument(
        "--corner", choices=sorted(PROCESS_CORNERS), default=None,
        help=f"process corner (default: {DEFAULT_CORNER})",
    )


def hardware_from_args(args: argparse.Namespace, *,
                       seed: int | None = None) -> HardwareConfig:
    """Resolve the shared flags into one validated :class:`HardwareConfig`.

    Resolution order: ``HardwareConfig`` defaults, then the
    ``--config`` file (if given), then any explicit flag overrides,
    then ``seed`` (CLIs keep their own ``--seed`` flag because it also
    seeds non-hardware concerns like arrival traces).
    """
    if getattr(args, "config", None):
        base = HardwareConfig.from_json(args.config)
    else:
        base = HardwareConfig()
    overrides: dict = {}
    if getattr(args, "cell", None) is not None:
        overrides["cell_type"] = CellType(args.cell)
    if getattr(args, "vprech", None) is not None:
        overrides["vprech"] = args.vprech
    if getattr(args, "node", None) is not None:
        overrides["node"] = args.node
    if getattr(args, "corner", None) is not None:
        overrides["corner"] = args.corner
    if seed is not None:
        overrides["seed"] = seed
    return base.replace(**overrides) if overrides else base


def narrowed_axes(args: argparse.Namespace, hardware: HardwareConfig,
                  accepted) -> dict:
    """Pinned hardware scalars, mapped onto the plural axes a grid
    factory sweeps.

    Both grid CLIs (``python -m repro.sweep`` and ``python -m
    repro.reliability``) share the contract that a scalar the user
    pinned — by flag or via the ``--config`` file — whose axis the
    named grid sweeps (e.g. ``corners --corner slow``) narrows that
    axis to the requested value instead of being silently dropped.
    ``accepted`` is the factory's parameter mapping; a scalar the
    factory takes directly is never narrowed (it is passed through as
    the scalar), and axes the factory does not sweep are skipped.
    Returns ``{plural axis name: (pinned value,)}``.
    """
    default = HardwareConfig()
    narrowed: dict = {}
    for flag, attr, plural in (
        ("cell", "cell_type", "cells"),
        ("vprech", "vprech", "vprechs"),
        ("node", "node", "nodes"),
        ("corner", "corner", "corners"),
    ):
        if plural not in accepted or flag in accepted:
            continue
        value = getattr(hardware, attr)
        pinned = (getattr(args, flag, None) is not None
                  or value != getattr(default, attr))
        if pinned:
            narrowed[plural] = (value,)
    return narrowed
