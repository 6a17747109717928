"""Design-space sweep specifications.

The paper's evaluation is a *grid*, not a single design point: Figure 8
walks the five SRAM cell options, Figure 7 sweeps the precharge voltage
and the ablations vary port counts and sample sizes.  A
:class:`SweepSpec` describes such a grid declaratively (cartesian
product over the axes) and expands it into hashable
:class:`DesignPoint` rows that the :class:`~repro.sweep.runner.SweepRunner`
shards across worker processes and caches on disk.

A :class:`DesignPoint` is a :class:`~repro.hw.config.HardwareConfig`
(the hardware under evaluation — cell, Vprech, technology node,
process corner, seed) plus the *evaluation* axes (cycle-accurate sample
size, simulation engine, model-quality preset).  Every point is frozen,
fully value-typed and carries its own seed, so a point evaluates to the
same metrics no matter which worker, which shard order, or which
session runs it.  The fault campaigns'
:class:`~repro.reliability.spec.FaultPoint` is a design point with a
fault condition, and :func:`check_axes` is the grid check both spec
families run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import operator
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.learning.pretrained import QUALITY_PRESETS
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.tech.constants import DEFAULT_NODE
from repro.tech.corners import DEFAULT_CORNER, PROCESS_CORNERS
from repro.tile.backends import backend_names
from repro.tile.network import validate_engine

#: The Vprech grid of the system-level ablation (Figure 7's axis,
#: restricted to the voltages the paper tabulates).
VPRECH_GRID = (0.4, 0.5, 0.6, 0.7)

#: The node/corner grid of the named "corners" sweep: the paper's 3nm
#: node next to the trailing 5nm reference, each at nominal silicon and
#: the +-3 sigma guardband corners.
CORNER_SWEEP_NODES = ("3nm", "5nm")
CORNER_SWEEP_CORNERS = ("typical", "slow", "fast")


def _integer(name: str, value) -> int:
    """``value`` as a plain ``int``: any integer, numpy's included, but
    no bool, float or string, so it can neither change a cache key nor
    be truncated into another Monte-Carlo stream."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, init=False)
class DesignPoint:
    """One fully-specified evaluation of the ESAM system.

    Hashable and order-independent: two points with equal fields are
    the same design point, which is what the on-disk result cache keys
    on (together with the network-weights fingerprint).

    The hardware identity lives in :attr:`hardware`.  Pass a full
    ``hardware`` descriptor, or build a point from flat axes —
    ``DesignPoint(cell_type=..., vprech=..., node=..., corner=...,
    seed=...)`` overrides those fields of ``hardware`` (default: the
    paper's point), which is how :meth:`SweepSpec.expand` walks a grid.
    The same names read back as properties.

    A subclass evaluates the hardware under a condition — a
    :class:`~repro.reliability.spec.FaultPoint` adds a bit-error rate
    and its Monte-Carlo trials.  It declares only the condition's
    fields, their checks and :attr:`evaluation_fields`; they are passed
    to this constructor by keyword.  Every field annotated ``int`` goes
    through one rule: any integer is stored as an ``int``, anything
    else is a :class:`ConfigurationError`.
    """

    hardware: HardwareConfig
    sample_images: int = 64
    engine: str = "fast"
    quality: str = "full"

    #: The fields :meth:`to_dict` writes after the hardware's, in that
    #: order (the order of stored entries and CSV columns);
    #: :meth:`from_dict` reads the same names back.
    evaluation_fields: ClassVar[tuple[str, ...]] = (
        "sample_images", "engine", "quality",
    )
    #: Whether a point must name its hardware (``hardware`` or a flat
    #: axis); without one, a fault point is the paper's hardware.
    hardware_required: ClassVar[bool] = True

    def __init__(self, cell_type: CellType | None = None,
                 vprech: float | None = None,
                 sample_images: int = 64, engine: str = "fast",
                 quality: str = "full", seed: int | None = None,
                 node: str | None = None, corner: str | None = None,
                 hardware: HardwareConfig | None = None,
                 **condition) -> None:
        overrides = {
            key: value
            for key, value in (
                ("cell_type", cell_type), ("vprech", vprech), ("seed", seed),
                ("node", node), ("corner", corner),
            )
            if value is not None
        }
        if hardware is None:
            if self.hardware_required and not overrides:
                raise ConfigurationError(
                    "DesignPoint needs a hardware config or a cell_type"
                )
            hardware = HardwareConfig()
        if overrides:
            hardware = hardware.replace(**overrides)
        values = dict(condition, hardware=hardware,
                      sample_images=sample_images, engine=engine,
                      quality=quality)
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, values.pop(f.name, f.default))
        if values:
            raise TypeError(f"{type(self).__name__}() got an unexpected "
                            f"keyword argument {next(iter(values))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        if not isinstance(self.hardware, HardwareConfig):
            raise ConfigurationError(
                f"hardware must be a HardwareConfig, got {self.hardware!r}"
            )
        for f in dataclasses.fields(self):
            if f.type in ("int", int):
                object.__setattr__(
                    self, f.name, _integer(f.name, getattr(self, f.name))
                )
        if self.sample_images < 1:
            raise ConfigurationError("sample_images must be >= 1")
        if self.quality not in QUALITY_PRESETS:
            raise ConfigurationError(
                f"quality must be one of {QUALITY_PRESETS}, "
                f"got {self.quality!r}"
            )

    # -- hardware views ----------------------------------------------------------

    @property
    def cell_type(self) -> CellType:
        return self.hardware.cell_type

    @property
    def vprech(self) -> float:
        return self.hardware.vprech

    @property
    def node(self) -> str:
        return self.hardware.node

    @property
    def corner(self) -> str:
        return self.hardware.corner

    @property
    def seed(self) -> int:
        return self.hardware.seed

    @property
    def read_ports(self) -> int:
        """Row-wise inference ports of this point's cell."""
        return self.cell_type.inference_ports

    @property
    def label(self) -> str:
        """Compact human-readable identity, e.g.
        ``1RW+4R@500mV/3nm/typical/64img/fast``."""
        return (
            f"{self.hardware.label}"
            f"/{self.sample_images}img/{self.engine}"
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (``cell_type`` by its paper name).

        Flat on purpose, and it covers *every* equality-bearing field
        (the full hardware dict, then :attr:`evaluation_fields`) —
        these keys feed the cache key and the CSV export, and the
        golden cache-key tests pin this exact shape.
        """
        out = self.hardware.to_dict()
        out.update((name, getattr(self, name))
                   for name in self.evaluation_fields)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DesignPoint":
        """Inverse of :meth:`to_dict`."""
        # Derived from the dataclass, not hardcoded: a field added to
        # HardwareConfig round-trips here without a matching edit.
        hardware_keys = {
            f.name for f in dataclasses.fields(HardwareConfig)
        }
        hardware = HardwareConfig.from_dict(
            {k: v for k, v in data.items() if k in hardware_keys}
        )
        return cls(hardware=hardware,
                   **{name: data[name] for name in cls.evaluation_fields})


def check_axes(noun: str, name: str, axes: dict[str, tuple]) -> None:
    """The grid check every campaign spec runs: a non-empty name, and
    each axis non-empty and free of duplicates.

    A duplicated axis value would evaluate the same point twice (both
    as cache misses within one run), count more points than the
    distinct cache entries can hold, and fold a fault campaign's copies
    into one malformed yield curve.
    """
    if not name:
        raise ConfigurationError(f"{noun} name must be non-empty")
    for axis, values in axes.items():
        if not values:
            raise ConfigurationError(f"{noun} axis {axis} is empty")
        if len(set(values)) != len(values):
            raise ConfigurationError(
                f"{noun} axis {axis} contains duplicates: {values}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian grid over the ESAM design axes.

    Axes: SRAM cell option (or equivalently read-port count), read-port
    precharge voltage, technology node, process corner, cycle-accurate
    sample size and simulation engine.  ``expand()`` produces the grid
    in deterministic lexicographic order (cells outermost), so sweep
    output files are stable across runs and machines.
    """

    name: str
    cell_types: tuple[CellType, ...] = ALL_CELLS
    vprechs: tuple[float, ...] = (0.500,)
    sample_images: tuple[int, ...] = (64,)
    engines: tuple[str, ...] = ("fast",)
    nodes: tuple[str, ...] = (DEFAULT_NODE,)
    corners: tuple[str, ...] = (DEFAULT_CORNER,)
    quality: str = "full"
    seed: int = 42

    def __post_init__(self) -> None:
        check_axes("sweep", self.name, {
            "cell_types": self.cell_types,
            "vprechs": self.vprechs,
            "sample_images": self.sample_images,
            "engines": self.engines,
            "nodes": self.nodes,
            "corners": self.corners,
        })

    @classmethod
    def over_ports(cls, ports: Iterable[int], name: str = "ports",
                   **kwargs) -> "SweepSpec":
        """Grid over read-port counts, mapped to their cell options."""
        cells = tuple(CellType.from_ports(p) for p in ports)
        return cls(name=name, cell_types=cells, **kwargs)

    def expand(self) -> list[DesignPoint]:
        """All design points of the grid, in deterministic order."""
        return [
            DesignPoint(
                cell_type=cell, vprech=vprech, node=node, corner=corner,
                sample_images=n, engine=engine, quality=self.quality,
                seed=self.seed,
            )
            for cell, vprech, node, corner, n, engine in itertools.product(
                self.cell_types, self.vprechs, self.nodes, self.corners,
                self.sample_images, self.engines,
            )
        ]

    def __len__(self) -> int:
        return (len(self.cell_types) * len(self.vprechs) * len(self.nodes)
                * len(self.corners) * len(self.sample_images)
                * len(self.engines))


# -- named sweeps -------------------------------------------------------------------


def figure8_spec(sample_images: int = 64, quality: str = "full",
                 seed: int = 42, vprech: float = 0.500,
                 engine: str = "fast", node: str = DEFAULT_NODE,
                 corner: str = DEFAULT_CORNER) -> SweepSpec:
    """Figure 8's x-axis: the five SRAM cell options."""
    return SweepSpec(
        name="figure8", cell_types=ALL_CELLS, vprechs=(vprech,),
        sample_images=(sample_images,), engines=(engine,),
        nodes=(node,), corners=(corner,),
        quality=quality, seed=seed,
    )


def vprech_spec(sample_images: int = 64, quality: str = "full",
                seed: int = 42,
                vprechs: Sequence[float] = VPRECH_GRID,
                engine: str = "fast",
                node: str = DEFAULT_NODE,
                corner: str = DEFAULT_CORNER) -> SweepSpec:
    """System-level Vprech ablation on the selected 1RW+4R cell."""
    return SweepSpec(
        name="vprech", cell_types=(CellType.C1RW4R,),
        vprechs=tuple(vprechs), sample_images=(sample_images,),
        engines=(engine,), nodes=(node,), corners=(corner,),
        quality=quality, seed=seed,
    )


def ports_spec(sample_images: int = 64, quality: str = "full",
               seed: int = 42, vprech: float = 0.500,
               engine: str = "fast",
               node: str = DEFAULT_NODE,
               corner: str = DEFAULT_CORNER) -> SweepSpec:
    """Port-count design space (the multiport cells, 1 to 4 ports)."""
    return SweepSpec.over_ports(
        (1, 2, 3, 4), vprechs=(vprech,), sample_images=(sample_images,),
        engines=(engine,), nodes=(node,), corners=(corner,),
        quality=quality, seed=seed,
    )


def engines_spec(sample_images: int = 64, quality: str = "full",
                 seed: int = 42, vprech: float = 0.500,
                 engines: Sequence[str] | None = None,
                 node: str = DEFAULT_NODE,
                 corner: str = DEFAULT_CORNER) -> SweepSpec:
    """Cross-backend audit grid on the selected design point.

    Defaults to *every* engine backend
    (:func:`repro.tile.backends.backend_names`), so a backend added to
    the table joins the audit sweep without a spec edit.
    """
    return SweepSpec(
        name="engines", cell_types=(CellType.C1RW4R,),
        vprechs=(vprech,), sample_images=(sample_images,),
        engines=backend_names() if engines is None else tuple(engines),
        nodes=(node,), corners=(corner,),
        quality=quality, seed=seed,
    )


def corners_spec(sample_images: int = 64, quality: str = "full",
                 seed: int = 42, vprech: float = 0.500,
                 engine: str = "fast",
                 nodes: Sequence[str] = CORNER_SWEEP_NODES,
                 corners: Sequence[str] = CORNER_SWEEP_CORNERS) -> SweepSpec:
    """Node x corner grid: the Table-1 guardband axes, end to end.

    Walks the 6T baseline and the selected 1RW+4R cell across the node
    and corner registries, so the paper's headline comparison can be
    re-derived at every corner (and ``--claims`` works on the result).
    """
    return SweepSpec(
        name="corners",
        cell_types=(CellType.C6T, CellType.C1RW4R),
        vprechs=(vprech,), sample_images=(sample_images,),
        engines=(engine,), nodes=tuple(nodes), corners=tuple(corners),
        quality=quality, seed=seed,
    )


#: Named sweeps runnable from the CLI (``python -m repro.sweep <name>``).
NAMED_SWEEPS = {
    "figure8": figure8_spec,
    "vprech": vprech_spec,
    "ports": ports_spec,
    "engines": engines_spec,
    "corners": corners_spec,
}
