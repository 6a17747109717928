"""Functional model of the multiport transposable SRAM array.

Bit-true storage with the two access paths of Figure 2:

* **inference reads** (purple): up to ``p`` rows sensed simultaneously
  through the decoupled read ports RBL0..RBL3;
* **transposed read/write** (green): column-wise access through the
  rotated 6T port, 4:1 muxed, used for online learning.

The array enforces the paper's design rules at construction: pitch
limits (max 4 decoupled ports) and the NBL write-assist yield rule
(max 128 rows/columns).
"""

from __future__ import annotations

import numpy as np

from repro.binary import is_binary
from repro.errors import ConfigurationError, SimulationError
from repro.sram.bitcell import BitcellSpec, CellType, bitcell_spec
from repro.sram.layout import ArrayFloorplan
from repro.tech.constants import IMEC_3NM, TechnologyNode
from repro.tech.write_assist import NegativeBitlineAssist


class SramArray:
    """A ``rows x cols`` array of one bitcell flavor storing binary weights."""

    def __init__(self, cell_type: CellType, rows: int = 128, cols: int = 128,
                 node: TechnologyNode = IMEC_3NM,
                 enforce_design_rules: bool = True) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError("array dimensions must be >= 1")
        self.cell_type = cell_type
        self.rows = rows
        self.cols = cols
        self.node = node
        self.spec: BitcellSpec = bitcell_spec(cell_type, node)
        self.floorplan = ArrayFloorplan(cell=self.spec, rows=rows, cols=cols)
        if enforce_design_rules:
            NegativeBitlineAssist(vdd=node.vdd).check(
                rows, cols, cell_type.extra_read_ports
            )
        self._bits = np.zeros((rows, cols), dtype=np.uint8)
        self.read_port_count = cell_type.inference_ports

    # -- content management ---------------------------------------------------

    def load_weights(self, bits: np.ndarray) -> None:
        """Load a binary weight matrix (values must be 0/1)."""
        bits = np.asarray(bits)
        if bits.shape != (self.rows, self.cols):
            raise ConfigurationError(
                f"weight shape {bits.shape} != array {self.rows}x{self.cols}"
            )
        if not is_binary(bits):
            raise ConfigurationError("weights must be binary (0/1)")
        self._bits = bits.astype(np.uint8).copy()

    def load_block(self, bits: np.ndarray) -> None:
        """Store ``bits`` in the top-left corner; every other cell reads 0.

        Unlike :meth:`load_weights` this makes no 0/1 check: ``bits``
        is a block of a matrix its caller checked once
        (:meth:`repro.tile.tile.Tile.load_weights`).
        """
        rows, cols = bits.shape
        self._bits[:rows, :cols] = bits
        self._bits[rows:] = 0
        self._bits[:rows, cols:] = 0

    def dump_weights(self) -> np.ndarray:
        """Copy of the stored bits (test/debug path, not a hardware port)."""
        return self._bits.copy()

    # -- inference reads (decoupled ports) -------------------------------------

    def read_rows(self, row_indices: list[int] | np.ndarray) -> np.ndarray:
        """Simultaneously read up to ``read_port_count`` rows.

        Returns an array of shape ``(len(row_indices), cols)``.  The
        hardware cannot raise more RWLs than it has ports per cycle;
        exceeding that is a simulation bug, not a data error.
        """
        idx = np.asarray(row_indices, dtype=np.int64)
        if idx.size > self.read_port_count:
            raise SimulationError(
                f"{idx.size} simultaneous row reads exceed the "
                f"{self.read_port_count} read ports of {self.cell_type}"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= self.rows):
            raise SimulationError(f"row index out of range: {idx}")
        if np.unique(idx).size != idx.size:
            raise SimulationError(f"duplicate rows in one access: {idx}")
        return self._bits[idx, :].copy()

    # -- transposed port (learning) ---------------------------------------------

    def read_column(self, col: int) -> np.ndarray:
        """Read one logical column through the transposed port.

        Only transposable cells expose this path; the 6T baseline must
        use :meth:`read_row_rw` row by row (section 2.2).
        """
        self._require_transposable("column read")
        self._check_col(col)
        return self._bits[:, col].copy()

    def write_column(self, col: int, bits: np.ndarray) -> None:
        """Write one logical column through the transposed port."""
        self._require_transposable("column write")
        self._check_col(col)
        bits = np.asarray(bits)
        if bits.shape != (self.rows,):
            raise ConfigurationError(
                f"column data shape {bits.shape} != ({self.rows},)"
            )
        if not is_binary(bits):
            raise ConfigurationError("column data must be binary (0/1)")
        self._bits[:, col] = bits.astype(np.uint8)

    def read_row_rw(self, row: int) -> np.ndarray:
        """Read one row through the standard RW port (6T learning path)."""
        self._check_row(row)
        return self._bits[row, :].copy()

    def write_row_rw(self, row: int, bits: np.ndarray) -> None:
        """Write one row through the standard RW port."""
        self._check_row(row)
        bits = np.asarray(bits)
        if bits.shape != (self.cols,):
            raise ConfigurationError(f"row data shape {bits.shape} != ({self.cols},)")
        if not is_binary(bits):
            raise ConfigurationError("row data must be binary (0/1)")
        self._bits[row, :] = bits.astype(np.uint8)

    # -- helpers ----------------------------------------------------------------

    def _require_transposable(self, what: str) -> None:
        if not self.cell_type.is_transposable:
            raise SimulationError(
                f"{self.cell_type} has no transposed port; {what} requires a "
                "multiport cell (paper section 2.2)"
            )

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.cols:
            raise SimulationError(f"column index {col} out of range")

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise SimulationError(f"row index {row} out of range")

    def __repr__(self) -> str:
        return (
            f"SramArray({self.cell_type.value}, {self.rows}x{self.cols}, "
            f"{self.read_port_count} read ports)"
        )
