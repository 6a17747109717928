"""Hardware description layer: one declarative descriptor for the stack.

:class:`HardwareConfig` is the single, frozen, JSON-round-trippable
description of an ESAM hardware instance — SRAM cell option, read-port
precharge voltage, technology node, process corner, network topology,
optional clock override and seed.  Every layer above the bitcell
(``SramMacro``, ``Tile``, ``EsamNetwork``, ``EsamSystem``,
``SystemEvaluator``, the sweep engine's ``DesignPoint`` and the serving
registry) consumes the same descriptor, so a design point means the
same thing in a unit test, a sweep shard, a benchmark and a serving
deployment.

:mod:`repro.hw.cli` provides the shared argparse surface
(``--config / --cell / --vprech / --node / --corner``) used by both the
``repro.sweep`` and ``repro.serve`` CLIs.
"""

from repro.hw.config import (
    PAPER_LAYER_SIZES,
    HardwareConfig,
    validate_layer_sizes,
    validate_vprech,
)

__all__ = [
    "HardwareConfig",
    "PAPER_LAYER_SIZES",
    "validate_layer_sizes",
    "validate_vprech",
]
