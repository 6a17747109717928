"""Sweep result rows: serialization, rendering and re-derivation.

A :class:`SweepRow` pairs one :class:`~repro.sweep.spec.DesignPoint`
with the :class:`~repro.system.energy.SystemMetrics` it evaluated to.
:class:`SweepResult` holds the rows of one sweep run plus its cache
statistics, serializes to JSON (lossless, reloadable) and CSV (flat,
plot-ready), and can re-render Figure 8 or recompute the paper's
headline claims from cached rows alone — no re-simulation needed.
"""

from __future__ import annotations

import csv
import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import ClassVar

from repro.errors import ConfigurationError
from repro.tech.constants import DEFAULT_NODE
from repro.tech.corners import DEFAULT_CORNER
from repro.system.claims import HeadlineClaims, headline_claims
from repro.system.energy import SystemMetrics
from repro.system.report import render_table
from repro.sweep.spec import DesignPoint


@dataclass(frozen=True)
class SweepRow:
    """One evaluated design point."""

    point: DesignPoint
    metrics: SystemMetrics
    #: True when this row was served from the on-disk cache.
    cached: bool = False

    def to_dict(self) -> dict:
        """Lossless JSON-ready representation."""
        return {
            "point": self.point.to_dict(),
            "metrics": asdict(self.metrics),
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: dict, cached: bool | None = None) -> "SweepRow":
        """Inverse of :meth:`to_dict` (optionally overriding ``cached``)."""
        return cls(
            point=DesignPoint.from_dict(data["point"]),
            metrics=SystemMetrics(**data["metrics"]),
            cached=data.get("cached", False) if cached is None else cached,
        )

    def flat_dict(self) -> dict:
        """Single-level dict for CSV export: point + metrics + derived."""
        metrics = self.metrics
        flat = dict(self.point.to_dict())
        # CSV-friendly forms, and keep the config's clock *override*
        # distinct from the measured clock_period_ns metric below.
        flat["layer_sizes"] = ":".join(str(s) for s in flat["layer_sizes"])
        flat["clock_override_ns"] = flat.pop("clock_period_ns")
        flat.update(asdict(metrics))
        flat.pop("cell_type_label", None)  # duplicate of point cell_type
        flat.update(
            throughput_minf_s=metrics.throughput_minf_s,
            energy_per_inf_pj=metrics.energy_per_inference_pj,
            power_mw=metrics.power_mw,
            area_mm2=metrics.area_mm2,
            cached=self.cached,
        )
        return flat


@dataclass
class SweepStats:
    """How a sweep run's points were satisfied."""

    evaluated: int = 0
    cache_hits: int = 0

    @property
    def total(self) -> int:
        return self.evaluated + self.cache_hits

    def to_dict(self) -> dict:
        return {"evaluated": self.evaluated, "cache_hits": self.cache_hits}


@dataclass
class GridResult:
    """Ordered rows of one campaign run, plus run statistics.

    What every campaign family's result shares: iteration over the
    rows, a lossless JSON round trip and a flat CSV export.  A family
    states its :attr:`row_type` and :attr:`noun`, and adds its own
    views.
    """

    spec_name: str
    rows: list = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    #: Row class; ``row_type.from_dict`` reloads a serialized row.
    row_type: ClassVar[type]
    #: What one run is called in messages ("sweep", "campaign").
    noun: ClassVar[str]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # -- serialization --------------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON document :meth:`to_json` writes."""
        return {
            "spec_name": self.spec_name,
            "stats": self.stats.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GridResult":
        """Inverse of :meth:`to_dict`."""
        stats = payload.get("stats", {})
        return cls(
            spec_name=payload["spec_name"],
            rows=[cls.row_type.from_dict(r) for r in payload["rows"]],
            stats=SweepStats(
                evaluated=int(stats.get("evaluated", 0)),
                cache_hits=int(stats.get("cache_hits", 0)),
            ),
        )

    def to_json(self, path) -> pathlib.Path:
        """Write the full result as one JSON document."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(self.to_dict(), handle, indent=1)
        return path

    @classmethod
    def from_json(cls, path) -> "GridResult":
        """Reload a result written by :meth:`to_json`."""
        with pathlib.Path(path).open() as handle:
            return cls.from_dict(json.load(handle))

    def to_csv(self, path) -> pathlib.Path:
        """Write one flat CSV row per point."""
        if not self.rows:
            raise ConfigurationError(f"no {self.noun} rows to export")
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        flats = [row.flat_dict() for row in self.rows]
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(flats[0]))
            writer.writeheader()
            writer.writerows(flats)
        return path


class SweepResult(GridResult):
    """Ordered rows of one sweep run, plus run statistics."""

    row_type = SweepRow
    noun = "sweep"

    # -- views ---------------------------------------------------------------------

    def by_corner(self) -> dict[tuple[str, str], SweepRow]:
        """Last row per ``(node, corner)`` pair (the guardband lookup)."""
        return {(row.point.node, row.point.corner): row for row in self.rows}

    def claims_group(self) -> tuple[str, str]:
        """The ``(node, corner)`` group :meth:`headline_claims` reads.

        On a homogeneous sweep that is the only group present; on a
        node/corner grid (the ``corners`` sweep) claims are only
        meaningful within one group, so the paper's nominal
        ``("3nm", "typical")`` pair is preferred when present,
        otherwise the first group in row order.
        """
        if not self.rows:
            raise ConfigurationError("no sweep rows")
        groups = [(r.point.node, r.point.corner) for r in self.rows]
        nominal = (DEFAULT_NODE, DEFAULT_CORNER)
        if nominal in groups:
            return nominal
        return groups[0]

    def headline_claims(self, accuracy: float = float("nan"),
                        node: str | None = None,
                        corner: str | None = None) -> HeadlineClaims:
        """Recompute the abstract's claims from (possibly cached) rows.

        ``accuracy`` is supplied separately because sweep rows hold only
        hardware metrics; pass the functional-model test accuracy when
        known.  Claims are always derived within exactly one
        ``(node, corner)`` group: by default :meth:`claims_group`; a
        partially-specified override fills the missing half with the
        nominal default, never by mixing corners.  The group must hold
        one row per cell (:func:`~repro.system.claims.headline_claims`).
        """
        if node is None and corner is None:
            node, corner = self.claims_group()
        elif node is None:
            node = DEFAULT_NODE
        elif corner is None:
            corner = DEFAULT_CORNER
        return headline_claims(
            [r.metrics for r in self.rows
             if r.point.node == node and r.point.corner == corner],
            accuracy,
        )

    def render(self) -> str:
        """Generic fixed-width table over every sweep axis and metric."""
        table_rows = [
            [
                r.point.cell_type.value,
                f"{r.point.vprech * 1e3:.0f}",
                r.point.node,
                r.point.corner,
                str(r.point.sample_images),
                r.point.engine,
                f"{r.metrics.throughput_minf_s:.1f}",
                f"{r.metrics.energy_per_inference_pj:.0f}",
                f"{r.metrics.power_mw:.1f}",
                f"{r.metrics.area_mm2 * 1e3:.1f}",
                "hit" if r.cached else "eval",
            ]
            for r in self.rows
        ]
        return render_table(
            ["cell", "Vprech [mV]", "node", "corner", "images", "engine",
             "throughput [MInf/s]", "energy [pJ/Inf]", "power [mW]",
             "area [10^-3 mm^2]", "cache"],
            table_rows,
            title=f"sweep {self.spec_name!r} "
                  f"({self.stats.evaluated} evaluated, "
                  f"{self.stats.cache_hits} cache hits)",
        )
