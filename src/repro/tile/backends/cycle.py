"""The per-cycle reference, adapted to the engine-backend protocol.

This backend owns no clever arithmetic: every batch row is pushed
through :meth:`EsamNetwork.infer` (and every timestep through
:meth:`Tile.run_timestep`), stepping each tile clock-by-clock.  It is
the trusted reference every other backend is pinned against by the
conformance suite — optimized backends compute *what this one
simulates*.
"""

from __future__ import annotations

import numpy as np


class CycleEngine:
    """Per-cycle bit-true reference, stepping every tile clock-by-clock."""

    def __init__(self, network) -> None:
        self.network = network

    def infer_batch(self, spikes: np.ndarray, trace=None) -> np.ndarray:
        """Sequential :meth:`EsamNetwork.infer` over every batch row.

        The trace records the rows as one batch, an empty one included.
        """
        tiles = self.network.tiles
        marks = None if trace is None else trace.mark(tiles)
        scores = np.zeros((len(spikes), tiles[-1].n_out))
        for b, row in enumerate(spikes):
            scores[b] = self.network.infer(row)
        if trace is not None:
            trace.record(tiles, len(spikes), marks)
        return scores

    def classify_batch(self, spikes: np.ndarray, trace=None) -> np.ndarray:
        """Predicted class per batch row (arg-max readout)."""
        return np.argmax(self.infer_batch(spikes, trace), axis=1)

    def run_temporal(self, spike_trains: np.ndarray):
        """Multi-timestep IF dynamics via :meth:`Tile.run_timestep`."""
        from repro.snn.temporal import TemporalResult

        network = self.network
        trains = np.atleast_2d(np.asarray(spike_trains)).astype(bool)
        n_out = network.tiles[-1].n_out
        out_counts = np.zeros(n_out, dtype=np.int64)
        hidden_totals = np.zeros(trains.shape[0], dtype=np.int64)
        for t, spikes in enumerate(trains):
            x = spikes
            for k, tile in enumerate(network.tiles):
                x = tile.run_timestep(x)
                if k < len(network.tiles) - 1:
                    hidden_totals[t] += int(x.sum())
            out_counts += x.astype(np.int64)
        final = network.tiles[-1].membrane_potentials().astype(np.float64)
        if network.output_bias is not None:
            final = final + network.output_bias
        return TemporalResult(
            spike_counts=out_counts[None, :],
            final_vmem=final[None, :],
            hidden_spike_totals=hidden_totals,
        )
