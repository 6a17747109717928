"""SRAM macro: functional array plus timing/energy bookkeeping.

A macro couples the bit-true :class:`~repro.sram.array.SramArray` with
the calibrated electrical models, so that system-level simulations can
report energy and time per workload (the paper's "simulate the network
on a spike-by-spike basis in Python" methodology, section 4.1).  Its
inference reads are counted by the owning tile's record
(:class:`~repro.tile.tile.TileInferenceStats`) and priced at
:attr:`SramMacro.read_energy_pj`; the macro's own ledger holds only the
learning accesses through the transposed port.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.sram.array import SramArray
from repro.sram.electrical import TransposedPortModel
from repro.sram.layout import TRANSPOSED_MUX_FACTOR
from repro.sram.readport import ReadPortModel

if TYPE_CHECKING:  # repro.hw imports repro.sram; avoid the cycle at runtime
    from repro.hw.config import HardwareConfig


@dataclass
class MacroEnergyLedger:
    """Learning activity of one macro, through its transposed port.

    Energies and times are logged per access; leakage is integrated at
    the end from the elapsed time (the system model owns wall-clock).
    """

    transposed_reads: int = 0
    transposed_writes: int = 0
    transposed_energy_pj: float = 0.0
    transposed_time_ns: float = 0.0


class SramMacro:
    """One physical SRAM array with its periphery and cost models.

    The macro's electrical identity (cell option, Vprech, technology
    node) is one :class:`~repro.hw.config.HardwareConfig`; ``None``
    means the paper's design point.
    """

    def __init__(self, config: "HardwareConfig | None" = None,
                 rows: int = 128, cols: int = 128,
                 read_port_model: ReadPortModel | None = None,
                 transposed_model: TransposedPortModel | None = None) -> None:
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
        self.transposed = transposed_model or TransposedPortModel(rows, cols, node)
        self.ledger = MacroEnergyLedger()
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

    def read_column(self, col: int) -> np.ndarray:
        """Column read for learning; transposable cells only.

        Cost: ``mux_factor`` transposed accesses (section 4.4.1).
        """
        bits = self.array.read_column(col)
        access = self.transposed.access(self.cell_type)
        n = TRANSPOSED_MUX_FACTOR
        self.ledger.transposed_reads += n
        self.ledger.transposed_energy_pj += n * access.read_energy_pj
        self.ledger.transposed_time_ns += n * access.read_time_ns
        return bits

    def write_column(self, col: int, bits: np.ndarray) -> None:
        """Column write for learning; transposable cells only."""
        self.array.write_column(col, bits)
        access = self.transposed.access(self.cell_type)
        n = TRANSPOSED_MUX_FACTOR
        self.ledger.transposed_writes += n
        self.ledger.transposed_energy_pj += n * access.write_energy_pj
        self.ledger.transposed_time_ns += n * access.write_time_ns

    def update_column_6t(self, col: int, bits: np.ndarray) -> None:
        """6T-baseline column update: read-modify-write every row.

        Costs ``2 x rows`` clocked accesses through the single RW port —
        the paper's 257.8 ns / 157 pJ reference when applied to the full
        array (section 4.4.1).
        """
        if self.cell_type.is_transposable:
            raise ConfigurationError(
                "update_column_6t models the non-transposable baseline; "
                f"{self.cell_type} should use write_column instead"
            )
        bits = np.asarray(bits)
        access = self.transposed.access(self.cell_type)
        for row in range(self.rows):
            row_bits = self.array.read_row_rw(row)
            row_bits[col] = bits[row]
            self.array.write_row_rw(row, row_bits)
        self.ledger.transposed_reads += self.rows
        self.ledger.transposed_writes += self.rows
        self.ledger.transposed_energy_pj += self.rows * access.rw_energy_pj
        from repro.sram.electrical import C6T_CYCLE_NS

        self.ledger.transposed_time_ns += 2 * self.rows * C6T_CYCLE_NS

    # -- bookkeeping -------------------------------------------------------------

    def leakage_energy_pj(self, elapsed_ns: float) -> float:
        """Static energy over ``elapsed_ns`` of wall-clock."""
        if elapsed_ns < 0.0:
            raise ConfigurationError("elapsed time must be >= 0")
        return self.leakage_power_mw * elapsed_ns

    def reset_ledger(self) -> None:
        self.ledger = MacroEnergyLedger()

    def __repr__(self) -> str:
        return (
            f"SramMacro({self.cell_type.value}, {self.rows}x{self.cols}, "
            f"vprech={self.vprech:.2f} V)"
        )
