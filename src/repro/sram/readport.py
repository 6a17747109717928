"""Decoupled read-port model: precharge/sense sweep (paper Figure 7).

Models the single-ended inference read path of the multiport cells —
RWL rise, RBL discharge through the M7/M8..M11 stack, inverter-cascade
sensing — across precharge voltage and port count, plus the 6T
baseline's full-VDD read path for the system comparison.

Physics captured (all referenced to section 4.2 of the paper):

* **Precharge slows superlinearly at low Vprech** — the precharge
  device's overdrive collapses as ``Vprech`` approaches its threshold
  (alpha-power law), and simultaneous multiport precharge droops the
  Vprech rail once the headroom is small (below ~450 mV).
* **Cycle quantisation** — precharge overlaps the preceding pipeline
  stage; if it cannot finish inside that window the access stretches by
  a full clock, and the slowly-ramping bitlines hold the first SA stage
  near its trip point, burning crowbar current.  This is why 400 mV
  *saves* energy on 1-2 port cells but *costs* energy on 3-4 port cells.
* **Port parasitics** — added ports widen the cell (longer RWL) and
  pack the read bitlines at tighter pitch (higher coupling), so the
  average access energy bottoms out at 3 ports and rises again at 4.

Calibration anchors: the read times are chosen so the SRAM+neuron
pipeline stage reproduces Table 2; the relative energy/time claims of
Figure 7 (>=43 % energy saving and <=19 % access-time cost at 500 mV vs
700 mV; ~10 % extra saving at 400 mV for 1-2 ports but a net increase
for 3-4 ports; average access energy rising after the 4th port) are
asserted by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sram.bitcell import AREA_RATIO, CellType, bitcell_spec
from repro.sram.layout import ArrayFloorplan
from repro.sram.sense_amp import InverterCascadeSenseAmp
from repro.tech.constants import FIG7_VPRECH_SWEEP_V, IMEC_3NM, TechnologyNode
from repro.tech.finfet import FinFetDevice

# ---------------------------------------------------------------------------
# Calibrated model constants (fitted to the paper's reported behaviour).
# ---------------------------------------------------------------------------

#: Precharge RC scale in ns (driver strength x nominal RBL load).
_PRECHARGE_SCALE_NS = 0.09

#: Effective threshold of the precharge device (V).
_PRECHARGE_VT_V = 0.28

#: Velocity-saturation exponent of the precharge drive.
_PRECHARGE_ALPHA = 1.35

#: Vprech-rail droop per simultaneously-precharging extra port, active
#: once the rail headroom drops below ``_DROOP_ONSET_V``.
_DROOP_PER_PORT = 0.16
_DROOP_ONSET_V = 0.45
_DROOP_RANGE_V = 0.05

#: RBL coupling factor vs number of decoupled ports (tighter bitline
#: pitch as ports are added; the 4th port exhausts the pitch budget).
_COUPLING_BY_PORTS = {1: 1.00, 2: 1.02, 3: 1.06, 4: 1.20}

#: Read-path fixed components (ns): RWL driver and RBL discharge to the
#: SA trip margin at the design point.
_RWL_DELAY_NS = 0.08
_DISCHARGE_NS = 0.40

#: Fraction of columns whose cell holds '1' and discharges its RBL.
_DISCHARGE_ACTIVITY = 0.5

#: Array leakage at Vprech = 500 mV for the 1RW+1R flavor (mW), and its
#: Vprech sensitivity exponent (read-stack subthreshold + gate leakage
#: scale with the bitline voltage).
_LEAKAGE_1R_MW = 0.060
_LEAKAGE_V_EXP = 1.5

#: Crowbar duty factor of the first SA stage during an extended
#: (slow-ramp) precharge.
_CROWBAR_DUTY = 0.35

#: Extra RBL capacitance per attached row (fF): drain contact, via stack
#: to the routing layer, and M7/M8 junction not covered by the plain
#: wire + access-junction estimate.
_RBL_EXTRA_FF_PER_ROW = 0.0077

#: Clock periods per cell flavor (ns) — the Table 2 outcome, duplicated
#: here as a calibration constant so the precharge-budget check does not
#: depend on the pipeline package (the pipeline test cross-checks both).
CLOCK_PERIOD_NS = {
    CellType.C6T: 257.8 / 256.0,
    CellType.C1RW1R: 1.08,
    CellType.C1RW2R: 1.18,
    CellType.C1RW3R: 1.14,
    CellType.C1RW4R: 1.2346,
}

#: Inference read time of the 6T baseline through its native row port
#: (differential-style full-VDD read; Table 2's 0.69 ns SRAM+neuron
#: stage minus the 0.20 ns single-input neuron update).
INFERENCE_READ_TIME_6T_NS = 0.49


@dataclass(frozen=True)
class ReadPortOperatingPoint:
    """One (cell, Vprech) point of the Figure-7 sweep.

    All energies are for one *row read*: one RWL pulse across ``cols``
    columns, sensed by that port's column SAs.  ``avg_*`` quantities
    divide by the port count under the paper's full-utilisation
    assumption (p simultaneous reads per access).
    """

    cell_type: CellType
    vprech: float
    ports: int
    precharge_time_ns: float
    read_time_ns: float
    extended_precharge: bool
    access_time_ns: float
    read_energy_pj: float
    leakage_power_mw: float

    @property
    def avg_access_time_ns(self) -> float:
        return self.access_time_ns / self.ports

    @property
    def avg_access_energy_pj(self) -> float:
        """Per-read energy incl. the leakage share of the access window."""
        leak_share = self.leakage_power_mw * self.access_time_ns / self.ports
        return self.read_energy_pj + leak_share


class ReadPortModel:
    """Figure-7 model plus the per-spike read costs the system level uses."""

    def __init__(self, rows: int = 128, cols: int = 128,
                 node: TechnologyNode = IMEC_3NM,
                 sense_amp: InverterCascadeSenseAmp | None = None) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError("array dimensions must be >= 1")
        self.rows = rows
        self.cols = cols
        self.node = node
        self.sense_amp = sense_amp or InverterCascadeSenseAmp()
        self._access_fet = FinFetDevice(fins=1)
        self._dim_scale = (rows / 128.0, cols / 128.0)
        # Every macro of a network asks for the same point; the memo
        # lives and dies with this model.
        self._points: dict[tuple[CellType, float], ReadPortOperatingPoint] = {}

    # -- geometry-derived loads ---------------------------------------------

    def _rwl_capacitance_ff(self, cell_type: CellType) -> float:
        plan = ArrayFloorplan(
            cell=bitcell_spec(cell_type, self.node), rows=self.rows, cols=self.cols
        )
        wire_ff = plan.inference_wordline().capacitance_ff()
        gate_ff = self.cols * self._access_fet.gate_capacitance_ff
        return wire_ff + gate_ff

    def _rbl_capacitance_ff(self, cell_type: CellType) -> float:
        """One read bitline: vertical wire + per-cell junction, coupled."""
        plan = ArrayFloorplan(
            cell=bitcell_spec(cell_type, self.node), rows=self.rows, cols=self.cols
        )
        coupling = _COUPLING_BY_PORTS.get(cell_type.extra_read_ports, 1.0)
        wire_ff = plan.inference_bitline().capacitance_ff(coupling_factor=coupling)
        junction_ff = self.rows * (
            self._access_fet.junction_capacitance_ff + _RBL_EXTRA_FF_PER_ROW
        )
        return wire_ff + junction_ff

    def _coupling(self, cell_type: CellType) -> float:
        return _COUPLING_BY_PORTS.get(cell_type.extra_read_ports, 1.0)

    # -- timing ---------------------------------------------------------------

    def precharge_time_ns(self, cell_type: CellType, vprech: float) -> float:
        """Time to precharge one RBL set to ``vprech``.

        ``t = scale * F(V) * coupling * droop`` with the alpha-power
        shape ``F(V) = V / (V - Vt)^alpha`` and a multiport rail-droop
        term below the headroom onset.
        """
        self._validate_vprech(vprech)
        overdrive = vprech - _PRECHARGE_VT_V
        if overdrive <= 0.0:
            raise ConfigurationError(
                f"vprech {vprech} V leaves no precharge overdrive "
                f"(device Vt ~ {_PRECHARGE_VT_V} V)"
            )
        shape = vprech / overdrive ** _PRECHARGE_ALPHA
        ports = cell_type.inference_ports
        droop = 1.0 + _DROOP_PER_PORT * (ports - 1) * max(
            0.0, (_DROOP_ONSET_V - vprech) / _DROOP_RANGE_V
        )
        row_scale = self._dim_scale[0]
        return _PRECHARGE_SCALE_NS * shape * self._coupling(cell_type) * droop * row_scale

    def read_time_ns(self, cell_type: CellType) -> float:
        """RWL rise + RBL discharge to the SA margin + SA cascade."""
        if cell_type is CellType.C6T:
            return INFERENCE_READ_TIME_6T_NS * self._dim_scale[0]
        discharge = _DISCHARGE_NS * self._coupling(cell_type) * self._dim_scale[0]
        return _RWL_DELAY_NS + discharge + self.sense_amp.resolve_delay_ns

    def precharge_budget_ns(self, cell_type: CellType) -> float:
        """Window available for precharge: it overlaps the preceding
        pipeline stage, ending when the next sensing must begin."""
        return CLOCK_PERIOD_NS[cell_type] - self.sense_amp.resolve_delay_ns

    # -- energy ---------------------------------------------------------------

    def _rwl_energy_pj(self, cell_type: CellType) -> float:
        return self._rwl_capacitance_ff(cell_type) * self.node.vdd ** 2 * 1e-3

    def _rbl_energy_pj(self, cell_type: CellType, vprech: float) -> float:
        c_rbl = self._rbl_capacitance_ff(cell_type)
        return self.cols * _DISCHARGE_ACTIVITY * c_rbl * vprech * vprech * 1e-3

    def _sa_energy_pj(self, cell_type: CellType, vprech: float) -> float:
        return self.cols * self.sense_amp.energy_fj(vprech) * 1e-3

    def _crowbar_penalty_pj(self, cell_type: CellType) -> float:
        """Crowbar energy of this port's SAs during an extended precharge."""
        i_peak_ua = self.sense_amp.dc_current_ua(0.5 * self.node.vdd, self.node.vdd)
        window_ns = CLOCK_PERIOD_NS[cell_type]
        return (
            self.cols * i_peak_ua * _CROWBAR_DUTY * window_ns * self.node.vdd * 1e-3
        )

    def leakage_power_mw(self, cell_type: CellType, vprech: float) -> float:
        """Static power of one array at the given read-port bias."""
        area_ratio = AREA_RATIO[cell_type]
        v = vprech if cell_type.is_multiport else self.node.vdd
        scale = (v / 0.5) ** _LEAKAGE_V_EXP
        cells_scale = self._dim_scale[0] * self._dim_scale[1]
        return _LEAKAGE_1R_MW * (area_ratio / 1.5) * scale * cells_scale

    # -- composed operating point ---------------------------------------------

    def operating_point(self, cell_type: CellType,
                        vprech: float) -> ReadPortOperatingPoint:
        """Full Figure-7 data point for ``(cell_type, vprech)``.

        For the 6T baseline, ``vprech`` is forced to VDD: its shared RW
        port cannot scale the precharge voltage without destroying the
        read margin (this is precisely the saving the decoupled ports
        unlock — section 3.2).
        """
        key = (cell_type, vprech)
        if key in self._points:
            return self._points[key]
        if cell_type is CellType.C6T:
            vprech = self.node.vdd
        self._validate_vprech(vprech)
        ports = cell_type.inference_ports
        t_pre = self.precharge_time_ns(cell_type, vprech)
        t_read = self.read_time_ns(cell_type)
        budget = self.precharge_budget_ns(cell_type)
        extended = t_pre > budget
        access = t_pre + t_read
        energy = (
            self._rwl_energy_pj(cell_type)
            + self._rbl_energy_pj(cell_type, vprech)
            + self._sa_energy_pj(cell_type, vprech)
        )
        if extended:
            access += CLOCK_PERIOD_NS[cell_type]
            energy += self._crowbar_penalty_pj(cell_type)
        point = self._points[key] = ReadPortOperatingPoint(
            cell_type=cell_type,
            vprech=vprech,
            ports=ports,
            precharge_time_ns=t_pre,
            read_time_ns=t_read,
            extended_precharge=extended,
            access_time_ns=access,
            read_energy_pj=energy,
            leakage_power_mw=self.leakage_power_mw(cell_type, vprech),
        )
        return point

    def figure7(self) -> list[ReadPortOperatingPoint]:
        """The full Figure-7 grid: multiport cells x precharge voltages
        (:data:`~repro.tech.constants.FIG7_VPRECH_SWEEP_V`)."""
        points = []
        for vprech in FIG7_VPRECH_SWEEP_V:
            for ports in (1, 2, 3, 4):
                points.append(
                    self.operating_point(CellType.from_ports(ports), vprech)
                )
        return points

    def _validate_vprech(self, vprech: float) -> None:
        # Deferred import: repro.hw sits above repro.sram in the layer
        # stack (it imports repro.sram.bitcell), so importing it at
        # module scope here would be circular.
        from repro.hw.config import validate_vprech

        validate_vprech(vprech, self.node.vdd)
