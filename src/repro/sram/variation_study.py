"""Process-variation study of the read path (Table 1 methodology).

The paper evaluates at +-3 sigma and times the array for its worst-case
cell/row/column, i.e. the read times used throughout (and hence the
Table-2 clocks) are already guardbanded figures.  This module makes
that guardband explicit:

* the shipped read time is interpreted as the 3-sigma design corner;
  the implied *typical* cell is correspondingly faster;
* Monte-Carlo sampling of per-cell drive variation produces the full
  read-time distribution around that typical point;
* cell-level parametric yield follows as the fraction of cells meeting
  a given clock's read budget — ~Phi(3) at the shipped clock by
  construction, collapsing quickly when over-clocked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sram.bitcell import CellType
from repro.sram.readport import CLOCK_PERIOD_NS, ReadPortModel
from repro.tech.corners import ProcessVariation


@dataclass(frozen=True)
class ReadTimingDistribution:
    """Monte-Carlo read-timing statistics for one cell flavor."""

    cell_type: CellType
    shipped_read_ns: float      # 3-sigma guardbanded figure (the model's)
    typical_read_ns: float      # implied typical-cell read time
    mean_read_ns: float
    sigma_read_ns: float
    worst_sample_read_ns: float
    clock_period_ns: float

    @property
    def guardband_ns(self) -> float:
        """Margin the shipped figure holds over the typical cell."""
        return self.shipped_read_ns - self.typical_read_ns

    @property
    def covers_three_sigma(self) -> bool:
        """True when mean + 3 sigma of the sampled distribution fits the
        shipped (design-corner) read time."""
        return (
            self.mean_read_ns + 3.0 * self.sigma_read_ns
            <= self.shipped_read_ns * 1.02
        )


class VariationStudy:
    """Monte-Carlo analysis of read timing under local variation."""

    def __init__(self, rows: int = 128, cols: int = 128,
                 variation: ProcessVariation | None = None,
                 read_port_model: ReadPortModel | None = None) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError("array dimensions must be >= 1")
        self.rows = rows
        self.cols = cols
        self.variation = variation or ProcessVariation(seed=2024)
        self.read_ports = read_port_model or ReadPortModel(rows, cols)

    # -- decomposition ------------------------------------------------------------

    def _discharge_fraction(self, cell_type: CellType) -> float:
        """Share of the read time carried by the (varying) cell current.

        RWL distribution and the SA cascade are periphery (they average
        over many devices); only the bitline discharge rides on the
        single accessed cell's drive strength.
        """
        read = self.read_ports.read_time_ns(cell_type)
        sa = self.read_ports.sense_amp.resolve_delay_ns
        if cell_type is CellType.C6T:
            return max(0.1, (read - 0.15) / read)
        rwl = 0.08
        return (read - rwl - sa) / read

    def typical_read_ns(self, cell_type: CellType) -> float:
        """Typical-cell read time implied by the 3-sigma shipped figure."""
        shipped = self.read_ports.read_time_ns(cell_type)
        frac = self._discharge_fraction(cell_type)
        worst = self.variation.worst_case(3.0)
        return shipped * (1.0 - frac) + shipped * frac * worst.drive_factor

    # -- Monte-Carlo ----------------------------------------------------------------

    def sample_read_times(self, cell_type: CellType, n: int = 4096,
                          ) -> np.ndarray:
        """Per-cell read times (ns) under drive-strength variation.

        Takes ``n`` corners from the study's generator as arrays; the
        Vt shifts are drawn, in order, but do not enter the read time.
        """
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        shipped = self.read_ports.read_time_ns(cell_type)
        frac = self._discharge_fraction(cell_type)
        worst = self.variation.worst_case(3.0)
        fixed = shipped * (1.0 - frac)
        discharge_typ = shipped * frac * worst.drive_factor
        _, drives = self.variation.draw(n)
        return fixed + discharge_typ / drives

    def distribution(self, cell_type: CellType, n: int = 4096,
                     ) -> ReadTimingDistribution:
        samples = self.sample_read_times(cell_type, n)
        return ReadTimingDistribution(
            cell_type=cell_type,
            shipped_read_ns=self.read_ports.read_time_ns(cell_type),
            typical_read_ns=self.typical_read_ns(cell_type),
            mean_read_ns=float(samples.mean()),
            sigma_read_ns=float(samples.std()),
            worst_sample_read_ns=float(samples.max()),
            clock_period_ns=CLOCK_PERIOD_NS[cell_type],
        )

    # -- yield -----------------------------------------------------------------------

    def read_budget_ns(self, cell_type: CellType, clock_period_ns: float) -> float:
        """Read time a given clock affords.

        The shipped clock affords exactly the shipped (3-sigma) read
        time; scaling the clock scales the budget proportionally within
        the SRAM+neuron stage split.
        """
        if clock_period_ns <= 0.0:
            raise ConfigurationError("clock period must be positive")
        shipped_clock = CLOCK_PERIOD_NS[cell_type]
        shipped_read = self.read_ports.read_time_ns(cell_type)
        return clock_period_ns - shipped_clock + shipped_read

    def parametric_yield(self, cell_type: CellType, clock_period_ns: float,
                         n: int = 8192) -> float:
        """Fraction of cells whose read meets the clock's budget.

        ~Phi(3) = 99.87 % at the shipped clock by construction.
        """
        budget = self.read_budget_ns(cell_type, clock_period_ns)
        samples = self.sample_read_times(cell_type, n)
        return float((samples <= budget).mean())

    def corner_parametric_yield(self, cell_type: CellType, corner,
                                clock_period_ns: float | None = None,
                                n: int = 8192) -> float:
        """Parametric yield with a named design corner folded in.

        ``corner`` is a :class:`~repro.tech.corners.CornerSpec`.  At a
        non-typical corner the whole read path slows (or speeds) by the
        corner's ``delay_factor`` — sampled local read times stretch by
        it — while the clock derates by the same factor, so the budget
        follows :meth:`read_budget_ns` of the derated clock.  Because
        the budget is affine in the clock — the *whole* cycle derates,
        not just the SRAM share of it — slow silicon under its derated
        clock gains a little margin and aggressively-clocked fast
        silicon gives some back; the typical corner reproduces
        :meth:`parametric_yield` exactly.
        """
        base_clock = (CLOCK_PERIOD_NS[cell_type]
                      if clock_period_ns is None else clock_period_ns)
        derated_clock = base_clock * corner.delay_factor
        budget = self.read_budget_ns(cell_type, derated_clock)
        samples = self.sample_read_times(cell_type, n) * corner.delay_factor
        return float((samples <= budget).mean())
