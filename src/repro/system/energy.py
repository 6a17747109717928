"""System power/performance roll-up (the Figure 8 metrics).

Combines the cycle-accurate activity of an :class:`EsamNetwork` run
with the electrical models:

* dynamic energy — SRAM reads, neuron updates, arbiter switching
  (the trace's per-tile counts, priced by each tile) plus
  clock/register energy per cycle;
* static energy — macro leakage plus periphery static power integrated
  over the pipelined inference time;
* timing — tiles are pipelined, so sustained throughput is set by the
  slowest tile's drain time and latency by the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.system.config import (
    CLOCK_ENERGY_PER_TILE_CYCLE_PJ,
    PERIPHERY_STATIC_MW,
)
from repro.tile.network import EsamNetwork, InferenceTrace
from repro.units import throughput_per_s


@dataclass(frozen=True)
class SystemMetrics:
    """Figure-8 style metrics for one design point."""

    cell_type_label: str
    clock_period_ns: float
    cycles_per_inference: float
    latency_ns: float
    inference_time_ns: float
    dynamic_energy_pj: float
    clock_energy_pj: float
    leakage_energy_pj: float
    area_um2: float

    @property
    def energy_per_inference_pj(self) -> float:
        return self.dynamic_energy_pj + self.clock_energy_pj + self.leakage_energy_pj

    @property
    def throughput_inf_s(self) -> float:
        return throughput_per_s(1.0, self.inference_time_ns)

    @property
    def throughput_minf_s(self) -> float:
        return self.throughput_inf_s / 1e6

    @property
    def power_mw(self) -> float:
        # pJ/inf * inf/s = pW; 1e-9 converts to mW.
        return self.energy_per_inference_pj * self.throughput_inf_s * 1e-9

    @property
    def area_mm2(self) -> float:
        return self.area_um2 / 1e6


class SystemEnergyModel:
    """Derives :class:`SystemMetrics` from a simulated network run."""

    def __init__(self, network: EsamNetwork) -> None:
        self.network = network

    def metrics(self, trace: InferenceTrace) -> SystemMetrics:
        """Roll up a completed multi-image trace into per-inference metrics.

        The dynamic energy prices the trace's own inference counts, so
        what the network served outside the trace, and its tiles'
        learning column updates, stay out.
        """
        if trace.images < 1:
            raise ConfigurationError("trace contains no inferences")
        n = trace.images
        stretch = self.network.cycle_stretch
        t_clk = self.network.clock_period_ns
        per_tile_cycles = [c * stretch / n for c in trace.per_tile_cycles]
        bottleneck = max(per_tile_cycles)
        latency_cycles = sum(per_tile_cycles)
        inference_time_ns = bottleneck * t_clk
        total_tile_cycles = sum(per_tile_cycles)
        dynamic_pj = sum(
            tile.inference_energy_pj(counts)
            for tile, counts in zip(self.network.tiles, trace.counts)
        ) / n
        clock_pj = total_tile_cycles * CLOCK_ENERGY_PER_TILE_CYCLE_PJ
        leak_mw = self.network.leakage_power_mw() + PERIPHERY_STATIC_MW
        leakage_pj = leak_mw * inference_time_ns
        return SystemMetrics(
            cell_type_label=self.network.cell_type.value,
            clock_period_ns=t_clk,
            cycles_per_inference=bottleneck,
            latency_ns=latency_cycles * t_clk,
            inference_time_ns=inference_time_ns,
            dynamic_energy_pj=dynamic_pj,
            clock_energy_pj=clock_pj,
            leakage_energy_pj=leakage_pj,
            area_um2=self.network.area_um2(),
        )
