"""Fault-campaign results: rows, yield curves and claims.

A :class:`ReliabilityRow` pairs one
:class:`~repro.reliability.spec.FaultPoint` with its per-trial
accuracies; :class:`YieldCurve` aggregates one hardware group's rows
over the bit-error-rate axis (mean/worst accuracy per BER, the
accuracy-floor BER, and the corner-folded parametric read-timing yield
from :class:`~repro.sram.variation_study.VariationStudy`);
:class:`CampaignResult` holds everything, serializes to JSON/CSV and
renders the degradation claims the CLI prints (pinned by the golden
test, like the figure-8 claims).
"""

from __future__ import annotations

import csv
import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.reliability.spec import FaultPoint
from repro.sram.variation_study import VariationStudy
from repro.system.report import render_table
from repro.sweep.results import SweepStats
from repro.tech.constants import DEFAULT_NODE
from repro.tech.corners import DEFAULT_CORNER, ProcessVariation
from repro.sram.readport import CLOCK_PERIOD_NS

#: Accuracy drop (absolute) that defines the campaign's default
#: "accuracy floor": the largest BER whose mean accuracy stays within
#: this much of the clean anchor.
DEFAULT_MAX_DROP = 0.05

#: Monte-Carlo sample count behind each curve's timing yield.
TIMING_YIELD_SAMPLES = 8192


@dataclass(frozen=True)
class ReliabilityRow:
    """One evaluated fault point: per-trial accuracies and flip counts."""

    point: FaultPoint
    accuracies: tuple[float, ...]
    flipped_bits: tuple[int, ...]
    #: True when this row was served from the on-disk cache.
    cached: bool = False

    def __post_init__(self) -> None:
        if len(self.accuracies) != self.point.trials:
            raise ConfigurationError(
                f"{len(self.accuracies)} accuracies for "
                f"{self.point.trials} trials"
            )
        if len(self.flipped_bits) != self.point.trials:
            raise ConfigurationError(
                f"{len(self.flipped_bits)} flip counts for "
                f"{self.point.trials} trials"
            )

    @property
    def mean_accuracy(self) -> float:
        return sum(self.accuracies) / len(self.accuracies)

    @property
    def worst_accuracy(self) -> float:
        return min(self.accuracies)

    @property
    def mean_flipped_bits(self) -> float:
        return sum(self.flipped_bits) / len(self.flipped_bits)

    def to_dict(self) -> dict:
        """Lossless JSON-ready representation."""
        return {
            "point": self.point.to_dict(),
            "accuracies": list(self.accuracies),
            "flipped_bits": list(self.flipped_bits),
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: dict,
                  cached: bool | None = None) -> "ReliabilityRow":
        """Inverse of :meth:`to_dict` (optionally overriding ``cached``)."""
        return cls(
            point=FaultPoint.from_dict(data["point"]),
            accuracies=tuple(float(a) for a in data["accuracies"]),
            flipped_bits=tuple(int(f) for f in data["flipped_bits"]),
            cached=data.get("cached", False) if cached is None else cached,
        )

    def flat_dict(self) -> dict:
        """Single-level dict for CSV export."""
        flat = dict(self.point.to_dict())
        flat["layer_sizes"] = ":".join(str(s) for s in flat["layer_sizes"])
        flat["accuracies"] = ":".join(repr(a) for a in self.accuracies)
        flat.update(
            mean_accuracy=self.mean_accuracy,
            worst_accuracy=self.worst_accuracy,
            mean_flipped_bits=self.mean_flipped_bits,
            cached=self.cached,
        )
        return flat


@dataclass(frozen=True)
class YieldCurve:
    """Degradation of one hardware group over the bit-error-rate axis.

    One curve per distinct campaign hardware (cell x node x corner);
    rows are sorted by BER.  ``timing_yield`` folds the group's process
    corner into the Monte-Carlo read-timing yield — the parametric
    (timing) half of the paper's Table-1 guardband story next to the
    functional (fault) half.
    """

    cell_type: str
    node: str
    corner: str
    bit_error_rates: tuple[float, ...]
    mean_accuracy: tuple[float, ...]
    worst_accuracy: tuple[float, ...]
    timing_yield: float
    clock_period_ns: float

    @property
    def clean_accuracy(self) -> float:
        """Mean accuracy at the lowest tested BER (the clean anchor)."""
        return self.mean_accuracy[0]

    def accuracy_at(self, bit_error_rate: float) -> float:
        """Mean accuracy at one tested BER."""
        try:
            index = self.bit_error_rates.index(bit_error_rate)
        except ValueError:
            tested = ", ".join(f"{b:g}" for b in self.bit_error_rates)
            raise ConfigurationError(
                f"BER {bit_error_rate:g} was not tested (grid: {tested})"
            ) from None
        return self.mean_accuracy[index]

    def accuracy_floor_ber(self, max_drop: float = DEFAULT_MAX_DROP) -> float:
        """Largest tested BER still within ``max_drop`` of clean accuracy.

        Walks the BER axis upward and stops at the first violation, so
        a non-monotonic recovery beyond a collapse never inflates the
        floor.  The lowest tested BER always qualifies (it *is* the
        clean anchor).
        """
        floor = self.bit_error_rates[0]
        for ber, accuracy in zip(self.bit_error_rates, self.mean_accuracy):
            if accuracy < self.clean_accuracy - max_drop:
                break
            floor = ber
        return floor

    def to_dict(self) -> dict:
        return {
            "cell_type": self.cell_type,
            "node": self.node,
            "corner": self.corner,
            "bit_error_rates": list(self.bit_error_rates),
            "mean_accuracy": list(self.mean_accuracy),
            "worst_accuracy": list(self.worst_accuracy),
            "timing_yield": self.timing_yield,
            "clock_period_ns": self.clock_period_ns,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "YieldCurve":
        return cls(
            cell_type=str(data["cell_type"]),
            node=str(data["node"]),
            corner=str(data["corner"]),
            bit_error_rates=tuple(float(b) for b in data["bit_error_rates"]),
            mean_accuracy=tuple(float(a) for a in data["mean_accuracy"]),
            worst_accuracy=tuple(float(a) for a in data["worst_accuracy"]),
            timing_yield=float(data["timing_yield"]),
            clock_period_ns=float(data["clock_period_ns"]),
        )


def build_yield_curves(rows: list[ReliabilityRow],
                       mc_seed: int,
                       mc_samples: int = TIMING_YIELD_SAMPLES,
                       ) -> list[YieldCurve]:
    """Aggregate campaign rows into per-hardware yield curves.

    Deterministic: groups follow first appearance in ``rows`` (the
    spec's expansion order), rows within a group sort by BER, and the
    timing yield draws from a fresh seeded
    :class:`~repro.tech.corners.ProcessVariation` per group — so the
    same rows always aggregate to bit-identical curves, regardless of
    worker count or cache state.
    """
    groups: dict[HardwareConfig, list[ReliabilityRow]] = {}
    for row in rows:
        groups.setdefault(row.point.hardware, []).append(row)
    curves = []
    for hardware, members in groups.items():
        members = sorted(members, key=lambda r: r.point.bit_error_rate)
        study = VariationStudy(variation=ProcessVariation(seed=mc_seed))
        corner = hardware.corner_spec
        curves.append(
            YieldCurve(
                cell_type=hardware.cell_type.value,
                node=hardware.node,
                corner=hardware.corner,
                bit_error_rates=tuple(
                    r.point.bit_error_rate for r in members
                ),
                mean_accuracy=tuple(r.mean_accuracy for r in members),
                worst_accuracy=tuple(r.worst_accuracy for r in members),
                timing_yield=study.corner_parametric_yield(
                    hardware.cell_type, corner, n=mc_samples,
                ),
                clock_period_ns=(
                    CLOCK_PERIOD_NS[hardware.cell_type]
                    * corner.delay_factor
                ),
            )
        )
    return curves


@dataclass
class CampaignResult:
    """Ordered rows and aggregated curves of one campaign run."""

    spec_name: str
    rows: list[ReliabilityRow] = field(default_factory=list)
    curves: list[YieldCurve] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # -- lookups -------------------------------------------------------------------

    def curve_for(self, cell_type: str, node: str,
                  corner: str) -> YieldCurve:
        """The yield curve of one hardware group."""
        for curve in self.curves:
            if (curve.cell_type, curve.node, curve.corner) == (
                    cell_type, node, corner):
                return curve
        groups = ", ".join(
            f"{c.cell_type}/{c.node}/{c.corner}" for c in self.curves
        ) or "<none>"
        raise ConfigurationError(
            f"no campaign group {cell_type}/{node}/{corner} "
            f"(campaigned: {groups})"
        )

    def accuracy_floor_for(self, hardware: HardwareConfig,
                           max_drop: float = DEFAULT_MAX_DROP) -> float:
        """Measured accuracy-floor BER of a hardware instance.

        Matches on the axes campaigns sweep — cell option, node and
        corner — so a serving registry can look up the floor of a live
        network's :class:`HardwareConfig` (the serving hook behind
        ``ModelRegistry.attach_reliability``).
        """
        curve = self.curve_for(
            hardware.cell_type.value, hardware.node, hardware.corner
        )
        return curve.accuracy_floor_ber(max_drop)

    def claims_curve(self) -> YieldCurve:
        """The nominal curve claims derive from.

        Prefers the paper's nominal (3nm, typical) group; otherwise
        the first curve in campaign order.
        """
        if not self.curves:
            raise ConfigurationError("no campaign curves")
        for curve in self.curves:
            if (curve.node, curve.corner) == (DEFAULT_NODE, DEFAULT_CORNER):
                return curve
        return self.curves[0]

    # -- rendering -----------------------------------------------------------------

    def render(self) -> str:
        """Fixed-width table over every campaign row."""
        table_rows = [
            [
                r.point.cell_type.value,
                r.point.node,
                r.point.corner,
                f"{r.point.bit_error_rate:.0e}",
                str(r.point.trials),
                f"{r.mean_accuracy * 100:.2f}",
                f"{r.worst_accuracy * 100:.2f}",
                f"{r.mean_flipped_bits:.0f}",
                "hit" if r.cached else "eval",
            ]
            for r in self.rows
        ]
        return render_table(
            ["cell", "node", "corner", "BER", "trials", "mean acc [%]",
             "worst acc [%]", "flips", "cache"],
            table_rows,
            title=f"campaign {self.spec_name!r} "
                  f"({self.stats.evaluated} evaluated, "
                  f"{self.stats.cache_hits} cache hits)",
        )

    def render_claims(self, max_drop: float = DEFAULT_MAX_DROP) -> str:
        """The degradation-under-faults claims block the CLI prints.

        Pinned verbatim by ``tests/test_reliability_golden.py``, so the
        wording cannot drift without a deliberate golden re-capture.
        """
        curve = self.claims_curve()
        floor = curve.accuracy_floor_ber(max_drop)
        lines = [
            f"degradation under faults "
            f"({curve.cell_type}/{curve.node}/{curve.corner}):",
            f"  clean accuracy:            "
            f"{curve.clean_accuracy * 100:.2f} %",
            f"  accuracy floor ({max_drop * 100:.0f}% drop): "
            f"BER {floor:.0e} "
            f"({curve.accuracy_at(floor) * 100:.2f} %)",
            f"  at max tested BER {curve.bit_error_rates[-1]:.0e}:  "
            f"{curve.mean_accuracy[-1] * 100:.2f} % mean, "
            f"{curve.worst_accuracy[-1] * 100:.2f} % worst",
        ]
        yields = " | ".join(
            f"{c.corner} {c.timing_yield * 100:.2f} %"
            for c in self.curves
            if (c.cell_type, c.node) == (curve.cell_type, curve.node)
        )
        lines.append(f"  read-timing yield:         {yields}")
        return "\n".join(lines)

    # -- serialization --------------------------------------------------------------

    def to_json(self, path) -> pathlib.Path:
        """Write the full result (rows + curves + stats) as JSON."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spec_name": self.spec_name,
            "stats": self.stats.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
            "curves": [curve.to_dict() for curve in self.curves],
        }
        with path.open("w") as handle:
            json.dump(payload, handle, indent=1)
        return path

    @classmethod
    def from_json(cls, path) -> "CampaignResult":
        """Reload a result written by :meth:`to_json`."""
        path = pathlib.Path(path)
        with path.open() as handle:
            payload = json.load(handle)
        stats = payload.get("stats", {})
        return cls(
            spec_name=payload["spec_name"],
            rows=[ReliabilityRow.from_dict(r) for r in payload["rows"]],
            curves=[YieldCurve.from_dict(c) for c in payload["curves"]],
            stats=SweepStats(
                evaluated=int(stats.get("evaluated", 0)),
                cache_hits=int(stats.get("cache_hits", 0)),
            ),
        )

    def to_csv(self, path) -> pathlib.Path:
        """Write one flat CSV row per fault point."""
        if not self.rows:
            raise ConfigurationError("no campaign rows to export")
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        flats = [row.flat_dict() for row in self.rows]
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(flats[0]))
            writer.writeheader()
            writer.writerows(flats)
        return path
