"""Multiport transposable SRAM: cells, arrays, macros and electrical models.

This subpackage implements section 3.2 of the paper (the 1RW ... 1RW+4R
bitcells), the periphery of section 3.2 (sense amplifiers, precharge,
column mux), and the circuit-level evaluations of section 4.2
(Figures 6 and 7).
"""

from repro.sram.bitcell import CellType, BitcellSpec, ALL_CELLS
from repro.sram.layout import CellLayout, ArrayFloorplan
from repro.sram.electrical import TransposedPortModel, TransposedAccess
from repro.sram.readport import ReadPortModel, ReadPortOperatingPoint
from repro.sram.sense_amp import (
    DifferentialSenseAmp,
    InverterCascadeSenseAmp,
)
from repro.sram.array import SramArray
from repro.sram.macro import SramMacro
from repro.sram.variation_study import VariationStudy, ReadTimingDistribution
from repro.sram.faults import (
    FaultInjector,
    flip_bits,
    trial_seed_sequence,
)

__all__ = [
    "VariationStudy",
    "ReadTimingDistribution",
    "FaultInjector",
    "flip_bits",
    "trial_seed_sequence",
    "CellType",
    "BitcellSpec",
    "ALL_CELLS",
    "CellLayout",
    "ArrayFloorplan",
    "TransposedPortModel",
    "TransposedAccess",
    "ReadPortModel",
    "ReadPortOperatingPoint",
    "DifferentialSenseAmp",
    "InverterCascadeSenseAmp",
    "SramArray",
    "SramMacro",
]
