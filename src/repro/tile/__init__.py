"""Tile and system composition (paper Figure 2 and section 4.4).

A Tile couples per-row-block arbiters, a grid of SRAM macros and a
neuron array; tiles cascade directly to form multi-layer networks,
with spikes passed fully in parallel as binary pulses.
"""

from repro.tile.pipeline import PipelineModel, PipelineStageReport
from repro.tile.mapping import LayerMapping
from repro.tile.tile import Tile, TileInferenceStats
from repro.tile.fast import DrainSchedule, drain_schedule, grant_cycle_of_rows
from repro.tile.engine import FastEngine
from repro.tile.backends import backend_factory, backend_names
from repro.tile.backends.bitpacked import BitpackedEngine
from repro.tile.backends.cycle import CycleEngine
from repro.tile.network import EsamNetwork, InferenceTrace, validate_engine
from repro.tile.scheduler import PipelinedScheduler, PipelineRunReport

__all__ = [
    "PipelineModel",
    "PipelineStageReport",
    "LayerMapping",
    "Tile",
    "TileInferenceStats",
    "DrainSchedule",
    "drain_schedule",
    "grant_cycle_of_rows",
    "FastEngine",
    "BitpackedEngine",
    "CycleEngine",
    "backend_factory",
    "backend_names",
    "validate_engine",
    "EsamNetwork",
    "InferenceTrace",
    "PipelinedScheduler",
    "PipelineRunReport",
]
