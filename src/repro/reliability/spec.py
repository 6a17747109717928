"""Monte-Carlo fault-campaign specifications.

The paper's always-on edge story rests on guardbanded ±3 sigma timing
and binary weights held in advanced-node SRAM — so "how does the
headline claim degrade as the memory fails" is a first-class question,
not a one-off script.  A :class:`FaultCampaignSpec` describes a
campaign declaratively: a grid over bit-error rate x Monte-Carlo
trials x the :class:`~repro.hw.config.HardwareConfig` cell/node/corner
axes.  ``expand()`` produces hashable, self-seeded
:class:`FaultPoint` rows — sweep
:class:`~repro.sweep.spec.DesignPoint`\\ s with a fault condition —
that the :class:`~repro.reliability.runner.ReliabilityRunner` shards
across workers and caches on disk exactly like sweep points.

Every trial of a point is self-identifying: its fault mask derives
from :func:`repro.sram.faults.trial_seed_sequence` (config seed +
bit-error rate + absolute trial index), so any partition of trials —
one point with eight trials, or two points with four starting at 0 and
4 — reproduces bit-identical accuracies (property-tested).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.hw.config import PAPER_VPRECH
from repro.sram.bitcell import SELECTED_CELL, CellType
from repro.sweep.spec import DesignPoint, check_axes
from repro.tech.constants import DEFAULT_NODE
from repro.tech.corners import DEFAULT_CORNER

#: The default bit-error-rate axis: clean anchor, the regime isolated
#: flips are absorbed in, and the collapse region.
DEFAULT_BER_GRID = (0.0, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2)

#: The corner axis of the named "reliability" campaign: nominal
#: silicon plus both ±3 sigma guardband corners.
RELIABILITY_CORNERS = ("typical", "slow", "fast")


@dataclass(frozen=True, init=False)
class FaultPoint(DesignPoint):
    """One (hardware, bit-error rate) cell of a fault campaign.

    A :class:`~repro.sweep.spec.DesignPoint` evaluated under a fault
    condition: weight bits flip at ``bit_error_rate`` in each of
    ``trials`` Monte-Carlo trials.  Construction (flat hardware axes
    included), validation, the hardware views and serialization are
    the design point's; two equal points are the same experiment, which
    is what the shared on-disk cache keys on (together with the
    clean-network weights fingerprint).  ``trial_start`` gives the
    absolute index of the first trial, so campaigns can split one
    point's trials across several points without changing any mask.
    ``FaultPoint()`` is the paper's hardware at BER 0.
    """

    bit_error_rate: float = 0.0
    trials: int = 4
    trial_start: int = 0

    evaluation_fields = (
        "bit_error_rate", "trials", "trial_start",
        *DesignPoint.evaluation_fields,
    )
    hardware_required = False

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "bit_error_rate", float(self.bit_error_rate))
        if not 0.0 <= self.bit_error_rate <= 1.0:
            raise ConfigurationError(
                f"bit_error_rate must be in [0, 1], got {self.bit_error_rate}"
            )
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.trial_start < 0:
            raise ConfigurationError("trial_start must be >= 0")

    @property
    def trial_indices(self) -> range:
        """Absolute Monte-Carlo trial indices of this point."""
        return range(self.trial_start, self.trial_start + self.trials)

    @property
    def label(self) -> str:
        """Compact identity, e.g.
        ``1RW+4R@500mV/3nm/slow/BER1e-03/4tr``."""
        return (
            f"{self.hardware.label}/BER{self.bit_error_rate:.0e}"
            f"/{self.trials}tr"
        )


@dataclass(frozen=True)
class FaultCampaignSpec:
    """Cartesian fault-campaign grid over the hardware and BER axes.

    Axes: SRAM cell option, technology node, process corner and
    bit-error rate; scalars: Monte-Carlo trial count per BER point,
    precharge voltage, sample size, engine, model quality and seed.
    ``expand()`` is deterministic (cells outermost, BER innermost) so
    campaign output files are stable across runs and machines.
    """

    name: str
    bit_error_rates: tuple[float, ...] = DEFAULT_BER_GRID
    trials: int = 4
    cell_types: tuple[CellType, ...] = (SELECTED_CELL,)
    nodes: tuple[str, ...] = (DEFAULT_NODE,)
    corners: tuple[str, ...] = (DEFAULT_CORNER,)
    vprech: float = PAPER_VPRECH
    sample_images: int = 64
    engine: str = "fast"
    quality: str = "full"
    seed: int = 42

    def __post_init__(self) -> None:
        check_axes("campaign", self.name, {
            "bit_error_rates": self.bit_error_rates,
            "cell_types": self.cell_types,
            "nodes": self.nodes,
            "corners": self.corners,
        })

    def expand(self) -> list[FaultPoint]:
        """All fault points of the grid, in deterministic order."""
        return [
            FaultPoint(
                cell_type=cell, vprech=self.vprech, node=node, corner=corner,
                seed=self.seed, bit_error_rate=ber, trials=self.trials,
                sample_images=self.sample_images, engine=self.engine,
                quality=self.quality,
            )
            for cell, node, corner, ber in itertools.product(
                self.cell_types, self.nodes, self.corners,
                self.bit_error_rates,
            )
        ]

    def __len__(self) -> int:
        return (len(self.cell_types) * len(self.nodes) * len(self.corners)
                * len(self.bit_error_rates))


# -- named campaigns ----------------------------------------------------------------


def reliability_spec(trials: int = 4, sample_images: int = 64,
                     quality: str = "full", seed: int = 42,
                     vprech: float = PAPER_VPRECH, engine: str = "fast",
                     bers: Sequence[float] = DEFAULT_BER_GRID,
                     nodes: Sequence[str] = (DEFAULT_NODE,),
                     corners: Sequence[str] = RELIABILITY_CORNERS,
                     cells: Sequence[CellType] = (SELECTED_CELL,),
                     ) -> FaultCampaignSpec:
    """BER x corner campaign on the paper's selected design point."""
    return FaultCampaignSpec(
        name="reliability", bit_error_rates=tuple(bers), trials=trials,
        cell_types=tuple(cells), nodes=tuple(nodes), corners=tuple(corners),
        vprech=vprech, sample_images=sample_images, engine=engine,
        quality=quality, seed=seed,
    )


def cells_spec(trials: int = 4, sample_images: int = 64,
               quality: str = "full", seed: int = 42,
               vprech: float = PAPER_VPRECH, engine: str = "fast",
               bers: Sequence[float] = DEFAULT_BER_GRID,
               nodes: Sequence[str] = (DEFAULT_NODE,),
               corners: Sequence[str] = (DEFAULT_CORNER,),
               ) -> FaultCampaignSpec:
    """Degradation of the 6T baseline vs the selected 1RW+4R cell."""
    return FaultCampaignSpec(
        name="cells", bit_error_rates=tuple(bers), trials=trials,
        cell_types=(CellType.C6T, SELECTED_CELL), nodes=tuple(nodes),
        corners=tuple(corners), vprech=vprech, sample_images=sample_images,
        engine=engine, quality=quality, seed=seed,
    )


#: Named campaigns runnable from the CLI
#: (``python -m repro.reliability <name>``; "reliability" is the
#: default — the acceptance campaign over BER x corner).
NAMED_CAMPAIGNS = {
    "reliability": reliability_spec,
    "cells": cells_spec,
}
