"""SRAM macro: the functional array plus its read-port cost model.

A macro couples the bit-true :class:`~repro.sram.array.SramArray` with
the calibrated read-port model, so that system-level simulations can
report energy and time per workload (the paper's "simulate the network
on a spike-by-spike basis in Python" methodology, section 4.1).  The
macro keeps no counts: the owning tile counts its inference reads
(:class:`~repro.tile.tile.TileInferenceStats`), priced at
:attr:`SramMacro.read_energy_pj`, and its learning column updates
(:attr:`~repro.tile.tile.Tile.column_updates`), priced by the
transposed-port model.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.sram.array import SramArray
from repro.sram.readport import ReadPortModel

if TYPE_CHECKING:  # repro.hw imports repro.sram; avoid the cycle at runtime
    from repro.hw.config import HardwareConfig


class SramMacro:
    """One physical SRAM array with its periphery and read-port model.

    The macro's electrical identity (cell option, Vprech, technology
    node) is one :class:`~repro.hw.config.HardwareConfig`; ``None``
    means the paper's design point.
    """

    def __init__(self, config: "HardwareConfig | None" = None,
                 rows: int = 128, cols: int = 128,
                 read_port_model: ReadPortModel | None = None) -> None:
        if config is None:
            # Imported here: repro.hw imports repro.sram.
            from repro.hw.config import HardwareConfig

            config = HardwareConfig()
        node = config.technology
        self.array = SramArray(config.cell_type, rows, cols, node)
        self.cell_type = config.cell_type
        self.rows = rows
        self.cols = cols
        self.node = node
        self.vprech = config.vprech
        self.read_ports = read_port_model or ReadPortModel(rows, cols, node)
        self._operating_point = self.read_ports.operating_point(
            self.cell_type, self.vprech
        )

    # -- static properties ------------------------------------------------------

    @property
    def read_port_count(self) -> int:
        return self.array.read_port_count

    @property
    def area_um2(self) -> float:
        return self.array.floorplan.macro_area_um2()

    @property
    def leakage_power_mw(self) -> float:
        return self._operating_point.leakage_power_mw

    @property
    def read_energy_pj(self) -> float:
        """Dynamic energy of one inference row read."""
        return self._operating_point.read_energy_pj

    # -- inference path -----------------------------------------------------------

    def load_weights(self, bits: np.ndarray) -> None:
        self.array.load_weights(bits)

    def serve_spikes(self, row_indices: list[int] | np.ndarray) -> np.ndarray:
        """Serve up to ``p`` granted spikes: parallel row reads.

        Returns the sensed bits, shape ``(n_spikes, cols)``; the tile
        counts the reads.
        """
        return self.array.read_rows(row_indices)

    # -- learning path --------------------------------------------------------------

    def update_column_6t(self, col: int, bits: np.ndarray) -> None:
        """6T-baseline column update: read-modify-write every row.

        The 6T cell has no transposed port, so a column update takes
        ``2 x rows`` clocked accesses through the single RW port: the
        paper's 257.8 ns / 157 pJ reference when applied to the full
        array (section 4.4.1).  Transposable cells write a column with
        :meth:`SramArray.write_column` instead.
        """
        if self.cell_type.is_transposable:
            raise ConfigurationError(
                "update_column_6t models the non-transposable baseline; "
                f"{self.cell_type} writes a column through its transposed port"
            )
        bits = np.asarray(bits)
        for row in range(self.rows):
            row_bits = self.array.read_row_rw(row)
            row_bits[col] = bits[row]
            self.array.write_row_rw(row, row_bits)

    def __repr__(self) -> str:
        return (
            f"SramMacro({self.cell_type.value}, {self.rows}x{self.cols}, "
            f"vprech={self.vprech:.2f} V)"
        )
