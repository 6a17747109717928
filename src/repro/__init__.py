"""ESAM reproduction: energy-efficient SNN architecture using 3nm FinFET
multiport SRAM-based CIM with online learning (DAC 2024).

Public API overview
-------------------
``repro.core.EsamSystem``
    Top-level facade: build the accelerator, classify images
    cycle-accurately, run online learning.
``repro.hw``
    The declarative hardware description layer: ``HardwareConfig``
    (cell, Vprech, technology node, process corner, topology, seed)
    threaded from the bitcell models to serving, plus the shared CLI
    config surface.
``repro.sram``
    Multiport transposable bitcells, arrays and the calibrated
    circuit-level models (Figures 6 and 7).
``repro.arbiter``
    Priority encoders, cascaded/tree arbiters and synthesis-style
    timing/area analysis (section 3.3).
``repro.neuron``
    Digital IF neurons with validity flags (section 3.4).
``repro.tile``
    Cycle-accurate tiles, pipeline timing (Table 2) and cascaded-tile
    networks.
``repro.learning``
    Pure-numpy BNN training, BNN->SNN conversion, stochastic 1-bit STDP
    and the online-learning engine.
``repro.system``
    System-level metrics (Figure 8), SOTA comparison (Table 3) and
    report rendering.
``repro.sweep`` / ``repro.reliability`` / ``repro.serve``
    Design-space sweep engine (sharded, cached grids), Monte-Carlo
    fault & variation campaigns (yield curves, accuracy floors,
    shared result cache), and the micro-batching inference-serving
    subsystem (bounded-queue backpressure, model registry, latency
    SLO metrics).
``repro.data`` / ``repro.snn``
    Synthetic MNIST-like digits, input encoding and the functional
    binary-SNN reference.
``repro.resilience``
    The fault-tolerant execution layer shared by serving and the
    campaign runners: retry/backoff policies, per-model circuit
    breakers, crash-supervised sharding and the seeded chaos harness
    (``docs/resilience.md``).
"""

from repro.core.esam import EsamSystem
from repro.core.results import ClassificationResult, HardwareReport
from repro.errors import (
    DeadlineExceededError,
    InjectedFaultError,
    ModelUnavailableError,
    QueueFullError,
    ServingError,
    WorkerCrashError,
)
from repro.hw.config import HardwareConfig, validate_vprech
from repro.sram.bitcell import CellType

__version__ = "0.1.0"

__all__ = [
    "EsamSystem",
    "ClassificationResult",
    "HardwareReport",
    "HardwareConfig",
    "validate_vprech",
    "CellType",
    "DeadlineExceededError",
    "InjectedFaultError",
    "ModelUnavailableError",
    "QueueFullError",
    "ServingError",
    "WorkerCrashError",
    "__version__",
]
