"""Transposed-port read/write electrical model (paper Figure 6).

Reproduces the circuit-level evaluation of section 4.2: write/read time
and energy through the transposed BL/BLB port for each cell flavor, and
the online-learning access arithmetic of section 4.4.1.

Model structure
---------------
Raw estimates are assembled from the physical primitives
(:mod:`repro.tech.wire` Elmore delays, junction/gate loads, the NBL
boost swing from :mod:`repro.tech.write_assist`), then calibrated
against the paper's anchors:

* the 6T array read-modify-writes all its weights in 2 x 128 cycles,
  257.8 ns and 157 pJ  ->  6T cycle 1.007 ns, per-access read+write
  energy 1.2266 pJ;
* the 1RW+4R cell reads a full 128-cell column in 9.9 ns and writes it
  in 8.04 ns, in 4 accesses each (4:1 row mux)  ->  4R read access
  2.475 ns, write access 2.01 ns.

Times use a two-point affine calibration (6T and 4R anchors); energies
use a one-point scale calibration on the 6T anchor, since the paper
gives no absolute 4R energy.  Intermediate cells then follow the
physics: bitline length grows with cell width, the write boost swing
grows with the ports' parasitics (write assist), and every multiport
cell pays the narrow-wordline penalty — the "immediate and significant
increase" the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sram.bitcell import ALL_CELLS, CellType, bitcell_spec
from repro.sram.layout import TRANSPOSED_MUX_FACTOR, ArrayFloorplan
from repro.sram.sense_amp import DifferentialSenseAmp
from repro.tech.constants import IMEC_3NM, TechnologyNode
from repro.tech.finfet import DeviceType, FinFetDevice
from repro.tech.write_assist import NegativeBitlineAssist
from repro.tech.wire import elmore_delay_ns

#: Cycle time of the 6T baseline system: 2 x 128 cycles = 257.8 ns
#: (section 4.4.1) -> 257.8 / 256 cycles.
C6T_CYCLE_NS = 257.8 / 256.0

#: Paper anchors used for calibration (see module docstring).
_ANCHOR_6T_READ_TIME_NS = 0.49
_ANCHOR_6T_WRITE_TIME_NS = 0.52
_ANCHOR_4R_READ_TIME_NS = 9.9 / 4.0
_ANCHOR_4R_WRITE_TIME_NS = 8.04 / 4.0
#: 157 pJ / 128 read+write pairs, split ~2:1 write:read (write moves the
#: full boosted swing; read only develops the SA margin).
_ANCHOR_6T_RW_ENERGY_PJ = 157.0 / 128.0
_ANCHOR_6T_READ_ENERGY_PJ = 0.4166
_ANCHOR_6T_WRITE_ENERGY_PJ = _ANCHOR_6T_RW_ENERGY_PJ - _ANCHOR_6T_READ_ENERGY_PJ


@dataclass(frozen=True)
class TransposedAccess:
    """Per-access figures of the transposed port for one cell flavor.

    One access covers one 4:1-muxed group (32 bits of a 128-bit line);
    this is the unit Figure 6 reports.
    """

    cell_type: CellType
    write_time_ns: float
    read_time_ns: float
    write_energy_pj: float
    read_energy_pj: float
    vwd_v: float

    @property
    def rw_energy_pj(self) -> float:
        return self.write_energy_pj + self.read_energy_pj


@dataclass(frozen=True)
class ColumnUpdateCost:
    """Cost of reading + writing one logical column (one post-neuron).

    For transposable (multiport) cells this takes ``2 x mux_factor``
    accesses; the 6T baseline must read-modify-write every row of the
    array, i.e. ``2 x rows`` clock cycles (section 4.4.1).
    """

    cell_type: CellType
    read_accesses: int
    write_accesses: int
    read_time_ns: float
    write_time_ns: float
    energy_pj: float

    @property
    def total_time_ns(self) -> float:
        return self.read_time_ns + self.write_time_ns

    @property
    def total_accesses(self) -> int:
        return self.read_accesses + self.write_accesses


class TransposedPortModel:
    """Figure-6 model: transposed-port timing/energy for every cell."""

    def __init__(self, rows: int = 128, cols: int = 128,
                 node: TechnologyNode = IMEC_3NM,
                 assist: NegativeBitlineAssist | None = None,
                 sense_amp: DifferentialSenseAmp | None = None) -> None:
        if rows < TRANSPOSED_MUX_FACTOR or cols < 1:
            raise ConfigurationError(
                f"transposed port needs at least {TRANSPOSED_MUX_FACTOR} rows"
            )
        self.rows = rows
        self.cols = cols
        self.node = node
        self.assist = assist or NegativeBitlineAssist(vdd=node.vdd)
        self.sense_amp = sense_amp or DifferentialSenseAmp()
        # Access devices seen by the wordline (RW pass-gates, 1 fin each).
        self._access_fet = FinFetDevice(device_type=DeviceType.NMOS, fins=1)
        self._cell_pulldown = FinFetDevice(device_type=DeviceType.NMOS, fins=2)
        self._time_calibration = self._fit_time_calibration()
        self._energy_calibration = self._fit_energy_calibration()

    # -- raw physical estimates ------------------------------------------------

    def _floorplan(self, cell_type: CellType) -> ArrayFloorplan:
        return ArrayFloorplan(
            cell=bitcell_spec(cell_type, self.node), rows=self.rows, cols=self.cols
        )

    def _boost_swing_v(self, cell_type: CellType) -> float:
        result = self.assist.analyze(
            self.rows, self.cols, cell_type.extra_read_ports
        )
        return result.boost_swing_v

    def _wordline_delay_ns(self, cell_type: CellType) -> float:
        """Transposed WL rise time: driver + (narrowed) vertical wire."""
        plan = self._floorplan(cell_type)
        wl = plan.transposed_wordline()
        gate_load_ff = self.rows * 2.0 * self._access_fet.gate_capacitance_ff
        return elmore_delay_ns(r_driver_kohm=0.4, wire=wl, c_load_ff=gate_load_ff)

    def _bitline_delay_ns(self, cell_type: CellType) -> float:
        """BL settling: driver + horizontal wire + junction load."""
        plan = self._floorplan(cell_type)
        bl = plan.transposed_bitline()
        junction_ff = self.cols * self._access_fet.junction_capacitance_ff
        return elmore_delay_ns(r_driver_kohm=0.3, wire=bl, c_load_ff=junction_ff)

    def _bitline_capacitance_ff(self, cell_type: CellType) -> float:
        plan = self._floorplan(cell_type)
        bl = plan.transposed_bitline()
        junction_ff = self.cols * self._access_fet.junction_capacitance_ff
        return bl.capacitance_ff() + junction_ff

    def _raw_write_time_ns(self, cell_type: CellType) -> float:
        boost = self._boost_swing_v(cell_type)
        # Cell flip once the boosted differential is applied; stronger
        # undershoot flips faster, but never below the feedback delay.
        flip_ns = 0.1 * self.node.vdd / max(boost - 0.35, 0.05)
        return (
            self._wordline_delay_ns(cell_type)
            + self._bitline_delay_ns(cell_type)
            + flip_ns
        )

    def _raw_read_time_ns(self, cell_type: CellType) -> float:
        c_bl = self._bitline_capacitance_ff(cell_type)
        i_read_ua = self._cell_pulldown.drive_current_ua(self.node.vdd) * 0.5
        develop_ns = c_bl * self.sense_amp.required_swing_v / i_read_ua
        return (
            self._wordline_delay_ns(cell_type)
            + develop_ns
            + self.sense_amp.resolve_delay_ns
        )

    def _raw_write_energy_pj(self, cell_type: CellType) -> float:
        """Active BL pairs for one 4:1-muxed access group (32 bits)."""
        c_bl = self._bitline_capacitance_ff(cell_type)
        boost = self._boost_swing_v(cell_type)
        active_pairs = max(1, self.rows // TRANSPOSED_MUX_FACTOR)
        return active_pairs * 2.0 * c_bl * boost * boost * 1e-3

    def _raw_read_energy_pj(self, cell_type: CellType) -> float:
        c_bl = self._bitline_capacitance_ff(cell_type)
        active_pairs = max(1, self.rows // TRANSPOSED_MUX_FACTOR)
        swing = self.sense_amp.required_swing_v
        bitline_pj = active_pairs * 2.0 * c_bl * self.node.vdd * swing * 1e-3
        sa_pj = active_pairs * self.sense_amp.energy_pj
        plan = self._floorplan(cell_type)
        wl_pj = (
            plan.transposed_wordline().capacitance_ff()
            * self.node.vdd * self.node.vdd * 1e-3
        )
        return bitline_pj + sa_pj + wl_pj

    # -- calibration -------------------------------------------------------

    def _fit_time_calibration(self) -> dict[str, tuple[float, float]]:
        """Two-point affine fits (a + b * raw) on the 6T and 4R anchors."""
        fits: dict[str, tuple[float, float]] = {}
        for name, raw_fn, lo, hi in (
            ("write", self._raw_write_time_ns,
             _ANCHOR_6T_WRITE_TIME_NS, _ANCHOR_4R_WRITE_TIME_NS),
            ("read", self._raw_read_time_ns,
             _ANCHOR_6T_READ_TIME_NS, _ANCHOR_4R_READ_TIME_NS),
        ):
            raw_6t = raw_fn(CellType.C6T)
            raw_4r = raw_fn(CellType.C1RW4R)
            if raw_4r <= raw_6t:
                raise ConfigurationError(
                    f"raw {name} time model is not monotonic in ports"
                )
            slope = (hi - lo) / (raw_4r - raw_6t)
            fits[name] = (lo - slope * raw_6t, slope)
        return fits

    def _fit_energy_calibration(self) -> dict[str, float]:
        """One-point scale fits on the 6T energy anchors."""
        return {
            "write": _ANCHOR_6T_WRITE_ENERGY_PJ / self._raw_write_energy_pj(CellType.C6T),
            "read": _ANCHOR_6T_READ_ENERGY_PJ / self._raw_read_energy_pj(CellType.C6T),
        }

    # -- public API ---------------------------------------------------------

    def access(self, cell_type: CellType) -> TransposedAccess:
        """Figure-6 data point for ``cell_type``."""
        a_w, b_w = self._time_calibration["write"]
        a_r, b_r = self._time_calibration["read"]
        return TransposedAccess(
            cell_type=cell_type,
            write_time_ns=a_w + b_w * self._raw_write_time_ns(cell_type),
            read_time_ns=a_r + b_r * self._raw_read_time_ns(cell_type),
            write_energy_pj=(
                self._energy_calibration["write"]
                * self._raw_write_energy_pj(cell_type)
            ),
            read_energy_pj=(
                self._energy_calibration["read"]
                * self._raw_read_energy_pj(cell_type)
            ),
            vwd_v=self.assist.required_vwd_v(
                self.rows, self.cols, cell_type.extra_read_ports
            ),
        )

    def figure6(self) -> list[TransposedAccess]:
        """All five Figure-6 data points, in port order."""
        return [self.access(cell) for cell in ALL_CELLS]

    def column_update_cost(self, cell_type: CellType) -> ColumnUpdateCost:
        """Cost of updating one post-neuron's column (section 4.4.1)."""
        access = self.access(cell_type)
        if cell_type.is_transposable:
            n = TRANSPOSED_MUX_FACTOR
            return ColumnUpdateCost(
                cell_type=cell_type,
                read_accesses=n,
                write_accesses=n,
                read_time_ns=n * access.read_time_ns,
                write_time_ns=n * access.write_time_ns,
                energy_pj=n * access.rw_energy_pj,
            )
        # 6T baseline: read-modify-write every row, one clocked access each.
        n = self.rows
        return ColumnUpdateCost(
            cell_type=cell_type,
            read_accesses=n,
            write_accesses=n,
            read_time_ns=n * C6T_CYCLE_NS,
            write_time_ns=n * C6T_CYCLE_NS,
            energy_pj=n * access.rw_energy_pj,
        )

    def full_array_update_cost(self, cell_type: CellType) -> ColumnUpdateCost:
        """Cost of reading + writing every weight in the array.

        For the 6T baseline this is the paper's 2 x 128 cycles = 257.8 ns
        / 157 pJ reference point; for transposable cells it is ``cols``
        column updates.
        """
        if cell_type.is_transposable:
            per_column = self.column_update_cost(cell_type)
            return ColumnUpdateCost(
                cell_type=cell_type,
                read_accesses=per_column.read_accesses * self.cols,
                write_accesses=per_column.write_accesses * self.cols,
                read_time_ns=per_column.read_time_ns * self.cols,
                write_time_ns=per_column.write_time_ns * self.cols,
                energy_pj=per_column.energy_pj * self.cols,
            )
        return self.column_update_cost(cell_type)
