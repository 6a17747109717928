"""The declarative hardware descriptor: :class:`HardwareConfig`.

Table 1 of the paper fixes one experimental setup — the imec 3nm node,
a 500 mV read-port precharge, +-3 sigma process corners, the
768:256:256:256:10 MNIST topology.  ``HardwareConfig`` turns that whole
row into a single frozen, hashable, JSON-round-trippable value with all
validation centralized, so the same descriptor can be threaded from the
bitcell models to the serving registry and swept along any of its axes
(cell option, Vprech, technology node, process corner).

Design rules:

* **Frozen and hashable** — a config is a value; two equal configs are
  the same hardware, which is what sweep caches and registries key on.
* **String-keyed node/corner** — ``node`` and ``corner`` are registry
  keys (:data:`repro.tech.constants.TECHNOLOGY_NODES`,
  :data:`repro.tech.corners.PROCESS_CORNERS`), not objects, so a config
  serializes losslessly and a typo fails at construction with the list
  of valid choices.
* **One validator per rule** — e.g. the Vprech range check lives in
  :func:`validate_vprech` and nowhere else; every layer that used to
  re-validate loose kwargs now delegates here.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sram.bitcell import ALL_CELLS, SELECTED_CELL, CellType
from repro.tech.constants import (
    DEFAULT_NODE,
    TECHNOLOGY_NODES,
    TechnologyNode,
    resolve_node,
)
from repro.tech.corners import (
    DEFAULT_CORNER,
    PROCESS_CORNERS,
    CornerSpec,
    resolve_corner,
)

#: The paper's network topology for MNIST (section 4.4.2).
PAPER_LAYER_SIZES = (768, 256, 256, 256, 10)

#: The paper's read-port precharge voltage (section 4.2 sweet spot).
PAPER_VPRECH = 0.500

#: Default seed shared by model training, sampling and serving traces.
DEFAULT_SEED = 42


def validate_vprech(vprech: float, vdd: float | None = None) -> float:
    """The single Vprech range check: ``0 < vprech <= vdd``.

    ``vdd`` defaults to the paper node's 700 mV supply.  Returns the
    validated value so callers can use it inline.  Every layer that
    accepts a precharge voltage (configs, design points, the read-port
    model) routes through here, so the error message — and the rule —
    cannot drift between entry points.
    """
    if vdd is None:
        vdd = TECHNOLOGY_NODES[DEFAULT_NODE].vdd
    if not 0.0 < vprech <= vdd:
        raise ConfigurationError(
            f"vprech out of range: {vprech} (must be in (0, {vdd:g}] V)"
        )
    return float(vprech)


def validate_layer_sizes(layer_sizes) -> tuple[int, ...]:
    """Validate and canonicalize a network topology.

    Accepts any iterable of positive integers with at least an input
    and an output layer; returns it as a plain ``tuple[int, ...]``.
    """
    try:
        sizes = tuple(int(s) for s in layer_sizes)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"layer_sizes must be an iterable of ints, got {layer_sizes!r}"
        ) from None
    if len(sizes) < 2:
        raise ConfigurationError("need at least input + output layer")
    if any(s < 1 for s in sizes):
        raise ConfigurationError(f"layer sizes must be >= 1, got {sizes}")
    return sizes


@dataclass(frozen=True)
class HardwareConfig:
    """One fully-specified ESAM hardware instance.

    Attributes
    ----------
    cell_type:
        SRAM cell option (the Figure-8 x-axis).
    vprech:
        Read-port precharge voltage in volts; must lie in
        ``(0, vdd]`` of the selected node.
    node:
        Technology-node registry key (``"3nm"`` — the paper's node —
        ``"5nm"`` or ``"2nm"``).
    corner:
        Process-corner registry key (``"typical"``, ``"slow"``,
        ``"fast"``; the latter two are the +-3 sigma design corners).
    layer_sizes:
        Network topology the hardware is sized for.
    clock_period_ns:
        Optional explicit clock override; ``None`` (default) derives
        the clock from the pipeline model.  The corner's delay derate
        applies on top either way.
    seed:
        Seed for model training, spike sampling and serving traces.
    """

    cell_type: CellType = SELECTED_CELL
    vprech: float = PAPER_VPRECH
    node: str = DEFAULT_NODE
    corner: str = DEFAULT_CORNER
    layer_sizes: tuple[int, ...] = PAPER_LAYER_SIZES
    clock_period_ns: float | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not isinstance(self.cell_type, CellType):
            raise ConfigurationError(
                f"cell_type must be a CellType, got {self.cell_type!r}"
            )
        technology = resolve_node(self.node)   # raises on unknown key
        resolve_corner(self.corner)            # raises on unknown key
        validate_vprech(self.vprech, technology.vdd)
        object.__setattr__(
            self, "layer_sizes", validate_layer_sizes(self.layer_sizes)
        )
        if self.clock_period_ns is not None and self.clock_period_ns <= 0.0:
            raise ConfigurationError(
                f"clock_period_ns must be positive, got {self.clock_period_ns}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")

    # -- resolved views --------------------------------------------------------------

    @property
    def technology(self) -> TechnologyNode:
        """The resolved :class:`TechnologyNode` behind :attr:`node`."""
        return resolve_node(self.node)

    @property
    def corner_spec(self) -> CornerSpec:
        """The resolved :class:`CornerSpec` behind :attr:`corner`."""
        return resolve_corner(self.corner)

    @property
    def read_ports(self) -> int:
        """Row-wise inference ports of the selected cell."""
        return self.cell_type.inference_ports

    @property
    def label(self) -> str:
        """Compact human-readable identity, e.g. ``1RW+4R@500mV/3nm/typical``."""
        return (
            f"{self.cell_type.value}@{self.vprech * 1e3:.0f}mV"
            f"/{self.node}/{self.corner}"
        )

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready representation (``cell_type`` by its paper name)."""
        return {
            "cell_type": self.cell_type.value,
            "vprech": self.vprech,
            "node": self.node,
            "corner": self.corner,
            "layer_sizes": list(self.layer_sizes),
            "clock_period_ns": self.clock_period_ns,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown HardwareConfig fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        kwargs = dict(data)
        if "cell_type" in kwargs:
            try:
                kwargs["cell_type"] = CellType(kwargs["cell_type"])
            except ValueError:
                valid = ", ".join(c.value for c in ALL_CELLS)
                raise ConfigurationError(
                    f"unknown cell_type {kwargs['cell_type']!r} "
                    f"(known: {valid})"
                ) from None
        if "vprech" in kwargs:
            kwargs["vprech"] = float(kwargs["vprech"])
        if "layer_sizes" in kwargs:
            kwargs["layer_sizes"] = tuple(kwargs["layer_sizes"])
        if "seed" in kwargs:
            kwargs["seed"] = int(kwargs["seed"])
        if kwargs.get("clock_period_ns") is not None:
            kwargs["clock_period_ns"] = float(kwargs["clock_period_ns"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "HardwareConfig":
        """Load a config from a JSON file (the CLI ``--config`` format)."""
        path = pathlib.Path(path)
        try:
            with path.open() as handle:
                data = json.load(handle)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read hardware config {str(path)!r}: {error}"
            ) from None
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"hardware config {str(path)!r} is not valid JSON: {error}"
            ) from None
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"hardware config {str(path)!r} must be a JSON object"
            )
        return cls.from_dict(data)

    def replace(self, **changes) -> "HardwareConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def __repr__(self) -> str:
        return f"HardwareConfig({self.label}, seed={self.seed})"

