"""Pipelined multi-image scheduler — validates the throughput model.

Figure 8's throughput assumes tiles operate as a pipeline: while tile
``k`` drains image ``i``, tile ``k-1`` is already arbitrating image
``i+1`` (spikes travel between tiles as parallel binary pulses, so
hand-off is a single cycle).  The system energy model uses the slowest
tile's drain time as the steady-state initiation interval.

This module actually runs that pipeline at cycle granularity — every
global clock steps every busy tile once, with back-pressure stalls when
a downstream tile is still draining — and measures the sustained
initiation interval, so the analytic assumption can be checked against
a discrete-event execution (see ``tests/test_tile_scheduler.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.tile.network import EsamNetwork


@dataclass
class PipelineRunReport:
    """Outcome of a pipelined multi-image run."""

    images: int
    total_cycles: int
    completion_cycles: list[int] = field(default_factory=list)
    image_latency_cycles: list[int] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    stall_cycles: int = 0

    @property
    def sustained_cycles_per_image(self) -> float:
        """Steady-state initiation interval measured from the run
        (slope of the completion times, which discards pipeline fill)."""
        if self.images < 2:
            return float(self.total_cycles)
        return (self.completion_cycles[-1] - self.completion_cycles[0]) / (
            self.images - 1
        )


class _TileStage:
    """Per-tile pipeline state: the image it is working on, if any."""

    def __init__(self, tile) -> None:
        self.tile = tile
        self.image_id: int | None = None

    @property
    def busy(self) -> bool:
        return self.image_id is not None

    def accept(self, image_id: int, spikes: np.ndarray) -> None:
        self.tile.submit_spikes(spikes)
        self.image_id = image_id


class PipelinedScheduler:
    """Cycle-granular pipelined execution of an :class:`EsamNetwork`."""

    def __init__(self, network: EsamNetwork) -> None:
        self.network = network

    def run(self, spike_batch: np.ndarray) -> PipelineRunReport:
        """Stream a batch of spike vectors through the tile pipeline.

        Returns per-image outputs (identical to sequential execution)
        plus cycle accounting, including back-pressure stalls.
        """
        spikes = np.atleast_2d(np.asarray(spike_batch)).astype(bool)
        n_images = spikes.shape[0]
        if n_images == 0:
            raise ConfigurationError("spike batch is empty")
        if spikes.shape[1] != self.network.tiles[0].n_in:
            raise ConfigurationError(
                f"spike width {spikes.shape[1]} != "
                f"{self.network.tiles[0].n_in}"
            )
        stages = [_TileStage(t) for t in self.network.tiles]
        outputs: dict[int, np.ndarray] = {}
        completion: dict[int, int] = {}
        start: dict[int, int] = {}
        stalls = 0
        next_image = 0
        cycle = 0
        max_cycles = 10_000_000
        while len(outputs) < n_images:
            cycle += 1
            if cycle > max_cycles:
                raise ConfigurationError("pipeline did not converge")
            if not stages[0].busy and next_image < n_images:
                stages[0].accept(next_image, spikes[next_image])
                start[next_image] = cycle
                next_image += 1
            # Step stages back-to-front so a hand-off frees the upstream
            # stage in the same global cycle it happens.
            for k in range(len(stages) - 1, -1, -1):
                stage = stages[k]
                if not stage.busy:
                    continue
                if not stage.tile.r_empty:
                    stage.tile.step()
                    continue
                image_id = stage.image_id
                if k == len(stages) - 1:
                    outputs[image_id] = self._read_out(stage)
                    completion[image_id] = cycle
                    stage.image_id = None
                elif not stages[k + 1].busy:
                    fired = stage.tile.fire()
                    stage.image_id = None
                    stages[k + 1].accept(image_id, fired)
                else:
                    # Back-pressure: downstream still draining.
                    stalls += 1
        report = PipelineRunReport(
            images=n_images, total_cycles=cycle, stall_cycles=stalls
        )
        report.outputs = [outputs[i] for i in range(n_images)]
        report.completion_cycles = [completion[i] for i in range(n_images)]
        report.image_latency_cycles = [
            completion[i] - start[i] + 1 for i in range(n_images)
        ]
        return report

    def _read_out(self, stage: _TileStage) -> np.ndarray:
        """Membrane readout of the output tile (one fire cycle)."""
        vmem = stage.tile.read_out().astype(np.float64)
        if self.network.output_bias is not None:
            vmem = vmem + self.network.output_bias
        return vmem
