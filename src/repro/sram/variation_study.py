"""Process-variation study of the read path (Table 1 methodology).

The paper evaluates at +-3 sigma and times the array for its worst-case
cell/row/column, i.e. the read times used throughout (and hence the
Table-2 clocks) are already guardbanded figures.  This module makes
that guardband explicit:

* the shipped read time is interpreted as the 3-sigma design corner;
  the implied *typical* cell is correspondingly faster;
* a cell reads in ``fixed + discharge / drive``: only the bitline
  discharge rides on the cell's drive, a lognormal ``exp(N(0, sigma))``,
  so the read-time distribution is a shifted lognormal whose moments
  and quantiles are closed form;
* cell-level parametric yield follows as the fraction of cells meeting
  a given clock's read budget, ``Phi(ln((budget - fixed) / discharge) /
  sigma)`` — exactly Phi(3) at the shipped clock by construction,
  collapsing quickly when over-clocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sram.bitcell import CellType
from repro.sram.readport import CLOCK_PERIOD_NS, ReadPortModel
from repro.tech.corners import CORNER_SIGMA_DRIVE, TYPICAL_CORNER, CornerSpec


@dataclass(frozen=True)
class ReadTimingDistribution:
    """Read-timing statistics of one cell flavor under drive variation."""

    cell_type: CellType
    shipped_read_ns: float      # 3-sigma guardbanded figure (the model's)
    typical_read_ns: float      # implied typical-cell read time
    mean_read_ns: float
    sigma_read_ns: float
    clock_period_ns: float

    @property
    def guardband_ns(self) -> float:
        """Margin the shipped figure holds over the typical cell."""
        return self.shipped_read_ns - self.typical_read_ns

    @property
    def covers_three_sigma(self) -> bool:
        """True when mean + 3 sigma of the distribution fits the shipped
        (design-corner) read time."""
        return (
            self.mean_read_ns + 3.0 * self.sigma_read_ns
            <= self.shipped_read_ns * 1.02
        )


class VariationStudy:
    """Closed-form read timing under local drive variation.

    ``sigma_drive`` is the one-sigma spread of ``ln(drive)``; its default
    is the one the named ``slow``/``fast`` corners sit 3 sigma out on.
    """

    def __init__(self, rows: int = 128, cols: int = 128,
                 sigma_drive: float = CORNER_SIGMA_DRIVE,
                 read_port_model: ReadPortModel | None = None) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError("array dimensions must be >= 1")
        if not (math.isfinite(sigma_drive) and sigma_drive >= 0.0):
            raise ConfigurationError(
                f"sigma_drive must be finite and non-negative, "
                f"got {sigma_drive}"
            )
        self.rows = rows
        self.cols = cols
        self.sigma_drive = sigma_drive
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

    def _read_split(self, cell_type: CellType) -> tuple[float, float]:
        """The typical cell's read as ``(fixed, discharge)`` in ns.

        A cell of drive ``d`` reads in ``fixed + discharge / d``; the
        shipped figure is that read at the 3-sigma weak drive
        ``exp(-3 sigma)``.
        """
        shipped = self.read_ports.read_time_ns(cell_type)
        frac = self._discharge_fraction(cell_type)
        return (shipped * (1.0 - frac),
                shipped * frac * math.exp(-3.0 * self.sigma_drive))

    def typical_read_ns(self, cell_type: CellType) -> float:
        """Typical-cell read time implied by the 3-sigma shipped figure."""
        fixed, discharge = self._read_split(cell_type)
        return fixed + discharge

    def distribution(self, cell_type: CellType) -> ReadTimingDistribution:
        """The read time's exact moments.

        ``1 / drive`` is lognormal: its mean is ``exp(s^2 / 2)`` and its
        standard deviation ``exp(s^2 / 2) sqrt(exp(s^2) - 1)``.
        """
        fixed, discharge = self._read_split(cell_type)
        variance = self.sigma_drive ** 2
        spread = discharge * math.exp(variance / 2.0)
        return ReadTimingDistribution(
            cell_type=cell_type,
            shipped_read_ns=self.read_ports.read_time_ns(cell_type),
            typical_read_ns=fixed + discharge,
            mean_read_ns=fixed + spread,
            sigma_read_ns=spread * math.sqrt(math.expm1(variance)),
            clock_period_ns=CLOCK_PERIOD_NS[cell_type],
        )

    # -- yield -----------------------------------------------------------------------

    def read_budget_ns(self, cell_type: CellType, clock_period_ns: float) -> float:
        """Read time a given clock affords.

        The shipped clock affords exactly the shipped (3-sigma) read
        time; scaling the clock scales the budget proportionally within
        the SRAM+neuron stage split.
        """
        if not (math.isfinite(clock_period_ns) and clock_period_ns > 0.0):
            raise ConfigurationError(
                f"clock period must be finite and positive, "
                f"got {clock_period_ns}"
            )
        shipped_clock = CLOCK_PERIOD_NS[cell_type]
        shipped_read = self.read_ports.read_time_ns(cell_type)
        return clock_period_ns - shipped_clock + shipped_read

    def parametric_yield(self, cell_type: CellType,
                         clock_period_ns: float | None = None,
                         corner: CornerSpec = TYPICAL_CORNER) -> float:
        """Fraction of cells whose read meets the clock's budget.

        The clock defaults to the cell's shipped one, where the typical
        corner's yield is Phi(3) = 99.87 % by construction.  At another
        corner the whole read path slows (or speeds) by the corner's
        ``delay_factor`` while the clock derates by the same factor, so
        the budget follows :meth:`read_budget_ns` of the derated clock.
        Because the budget is affine in the clock — the *whole* cycle
        derates, not just the SRAM share of it — slow silicon under its
        derated clock gains a little margin and aggressively-clocked
        fast silicon gives some back.
        """
        if clock_period_ns is None:
            clock_period_ns = CLOCK_PERIOD_NS[cell_type]
        # The corner stretches every read by its delay factor; shrink
        # the budget by it instead.
        budget = self.read_budget_ns(
            cell_type, clock_period_ns * corner.delay_factor
        ) / corner.delay_factor
        fixed, discharge = self._read_split(cell_type)
        if budget <= fixed:
            return 0.0
        if self.sigma_drive == 0.0:
            # Every cell reads in the typical time.
            return 1.0 if fixed + discharge <= budget else 0.0
        # A cell meets the budget when ln(drive) >= ln(discharge /
        # (budget - fixed)); Phi(x) = erfc(-x / sqrt(2)) / 2.
        x = math.log((budget - fixed) / discharge) / self.sigma_drive
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
