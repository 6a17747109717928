"""On-chip online-learning engine over the transposable SRAM.

Connects the plasticity rule to the hardware cost model: every learning
event on a post-synaptic neuron triggers a column read-modify-write
through the transposed port of each row-block macro holding that
neuron's synapses (:meth:`~repro.tile.tile.Tile.update_neuron_column`).
For the multiport cells this costs ``2 x 4`` transposed accesses per
128-row block; the 6T baseline must instead read-modify-write all 128
rows (section 4.4.1).  The tile counts the macro columns and
:meth:`~repro.sram.electrical.TransposedPortModel.column_update_cost`
prices each one, the same model behind :func:`column_update_comparison`
and the paper's 257.8 ns / 157 pJ vs 9.9 ns + 8.04 ns comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.learning.stdp import StochasticSTDP
from repro.sram.bitcell import CellType
from repro.sram.electrical import TransposedPortModel
from repro.tile.tile import Tile


@dataclass
class OnlineLearningReport:
    """Accumulated cost of the on-chip learning activity.

    ``learning_events`` and ``column_updates`` (one per neuron updated)
    count the engine's calls; the accesses, time and energy are the
    tile's :attr:`~repro.tile.tile.Tile.column_updates` priced at its
    :attr:`~repro.tile.tile.Tile.column_update_cost`.
    """

    learning_events: int = 0
    column_updates: int = 0
    transposed_accesses: int = 0
    time_ns: float = 0.0
    energy_pj: float = 0.0


class OnlineLearningEngine:
    """Applies a plasticity rule to one tile through its learning port."""

    def __init__(self, tile: Tile, rule: StochasticSTDP | None = None) -> None:
        self.tile = tile
        self.rule = rule or StochasticSTDP()
        self.report = OnlineLearningReport()

    def learn(self, pre_spikes: np.ndarray, learning_neurons: np.ndarray) -> int:
        """One learning step.

        Parameters
        ----------
        pre_spikes:
            Pre-synaptic activity vector for the tile's inputs (0/1).
        learning_neurons:
            Indices (or boolean mask) of post-neurons with a learning
            event this step.

        Returns the number of column updates performed.
        """
        pre = np.asarray(pre_spikes).astype(bool)
        if pre.shape != (self.tile.n_in,):
            raise ConfigurationError(
                f"pre_spikes shape {pre.shape} != ({self.tile.n_in},)"
            )
        neurons = np.asarray(learning_neurons)
        if neurons.dtype == bool:
            neurons = np.flatnonzero(neurons)
        neurons = neurons.astype(int)
        tile, report = self.tile, self.report
        for neuron in neurons:
            tile.update_neuron_column(int(neuron), pre, self.rule.update_column)
        report.learning_events += 1
        report.column_updates += len(neurons)
        cost = tile.column_update_cost
        report.transposed_accesses = tile.column_updates * cost.total_accesses
        report.time_ns = tile.column_updates * cost.total_time_ns
        report.energy_pj = tile.column_updates * cost.energy_pj
        return len(neurons)


def column_update_comparison(rows: int = 128, cols: int = 128,
                             ) -> dict[str, dict[str, float]]:
    """Section 4.4.1 numbers: 6T full-array RMW vs multiport column RMW.

    Returns a mapping with the paper's reference quantities:
    the 6T baseline's ``2 x rows`` cycles / 257.8 ns / 157 pJ, and the
    per-column read/write times of every transposable cell.
    """
    model = TransposedPortModel(rows, cols)
    result: dict[str, dict[str, float]] = {}
    baseline = model.full_array_update_cost(CellType.C6T)
    result[CellType.C6T.value] = {
        "accesses": float(baseline.total_accesses),
        "time_ns": baseline.total_time_ns,
        "energy_pj": baseline.energy_pj,
        "read_time_ns": baseline.read_time_ns,
        "write_time_ns": baseline.write_time_ns,
    }
    for cell in (CellType.C1RW1R, CellType.C1RW2R, CellType.C1RW3R,
                 CellType.C1RW4R):
        cost = model.column_update_cost(cell)
        result[cell.value] = {
            "accesses": float(cost.total_accesses),
            "time_ns": cost.total_time_ns,
            "energy_pj": cost.energy_pj,
            "read_time_ns": cost.read_time_ns,
            "write_time_ns": cost.write_time_ns,
            # The paper quotes "9.9 ns (26.0x less)" and "8.04 ns (19.5x
            # less)"; numerically those are 257.8/9.9 and 157/8.04 — we
            # reproduce both quoted ratios plus the plain time speedup.
            "paper_read_ratio": baseline.total_time_ns / cost.read_time_ns,
            "paper_write_ratio": baseline.energy_pj / cost.write_time_ns,
            "time_speedup_vs_6t": baseline.total_time_ns / cost.total_time_ns,
        }
    return result
