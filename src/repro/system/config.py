"""System-level calibration constants.

The hardware description itself lives in :mod:`repro.hw.config`; this
module holds the system-energy calibration the evaluator applies on top
of the per-macro models.
"""

from __future__ import annotations

#: Clock-tree + pipeline-register energy per tile per clock cycle (pJ).
#: Covers clock distribution, the request/grant registers and the
#: pipeline latches of one tile; calibrated with the system energy so
#: the 1RW+4R design point lands at the paper's ~607 pJ/Inf.
CLOCK_ENERGY_PER_TILE_CYCLE_PJ = 2.60

#: Static power of the non-SRAM periphery (neuron registers, clock
#: buffers kept alive, bias generators), in mW.
PERIPHERY_STATIC_MW = 2.2
