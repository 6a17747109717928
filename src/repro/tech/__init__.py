"""Technology models for IMEC's 3nm FinFET node.

This subpackage replaces the paper's Cadence Spectre / Calibre PEX flow
with analytical device, wire and statistical models.  The models are
physically structured (alpha-power-law drive currents, distributed RC
wires, Gaussian threshold-voltage variation) and their coefficients are
calibrated against the silicon-simulation numbers the paper reports; see
DESIGN.md section 2 for the substitution rationale.
"""

from repro.tech.constants import (
    IMEC_2NM,
    IMEC_3NM,
    IMEC_5NM,
    TECHNOLOGY_NODES,
    TechnologyNode,
    resolve_node,
)
from repro.tech.finfet import FinFetDevice, DeviceType, VtFlavor
from repro.tech.wire import MetalLayer, Wire, elmore_delay_ns
from repro.tech.corners import PROCESS_CORNERS, CornerSpec, resolve_corner
from repro.tech.write_assist import NegativeBitlineAssist, WriteAssistResult

__all__ = [
    "TechnologyNode",
    "IMEC_3NM",
    "IMEC_5NM",
    "IMEC_2NM",
    "TECHNOLOGY_NODES",
    "resolve_node",
    "CornerSpec",
    "PROCESS_CORNERS",
    "resolve_corner",
    "FinFetDevice",
    "DeviceType",
    "VtFlavor",
    "MetalLayer",
    "Wire",
    "elmore_delay_ns",
    "NegativeBitlineAssist",
    "WriteAssistResult",
]
