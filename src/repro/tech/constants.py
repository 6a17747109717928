"""Node-level constants for the technology models.

The numeric values are representative of an imec 3nm FinFET research
node (CPP/fin-pitch/metal-pitch class figures are taken from public imec
DTCO publications, refs [19]-[21] of the paper).  They serve as the
*structural* inputs of the analytical models in this package; the
quantities the paper actually reports (cell areas, access times and
energies) are produced by models calibrated on top of these.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TechnologyNode:
    """Geometric and electrical summary of a logic/SRAM technology node.

    Attributes
    ----------
    name:
        Human-readable node name.
    vdd:
        Nominal supply voltage in volts.  The paper operates at 700 mV.
    contacted_poly_pitch_um:
        CPP (gate pitch) in micrometres.
    fin_pitch_um:
        Fin pitch in micrometres.
    metal_pitch_um:
        Minimum metal (M1-class) pitch in micrometres.
    sram_6t_area_um2:
        Layout area of the standard 6T bitcell.  The paper reports
        0.01512 um^2 for imec's 3nm 6T cell (ref [20]).
    sram_6t_width_um / sram_6t_height_um:
        Cell footprint.  Width x height must equal the 6T area; the
        aspect ratio follows the 2-fin-pitch-tall thin-cell style used
        by FinFET SRAM.
    temperature_c:
        Simulation temperature.
    """

    name: str
    vdd: float
    contacted_poly_pitch_um: float
    fin_pitch_um: float
    metal_pitch_um: float
    sram_6t_area_um2: float
    sram_6t_width_um: float
    sram_6t_height_um: float
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ConfigurationError(f"vdd must be positive, got {self.vdd}")
        area = self.sram_6t_width_um * self.sram_6t_height_um
        if abs(area - self.sram_6t_area_um2) > 1e-6:
            raise ConfigurationError(
                "6T width x height must equal the 6T area: "
                f"{self.sram_6t_width_um} x {self.sram_6t_height_um} = {area}"
                f" != {self.sram_6t_area_um2}"
            )


#: The node used throughout the paper: imec 3nm FinFET at VDD = 700 mV.
#: The 6T cell area (0.01512 um^2) is the paper's reported value; the
#: 0.135 x 0.112 um footprint realises it with the standard thin-cell
#: aspect ratio (cell height = 2 fin pitches + isolation).
IMEC_3NM = TechnologyNode(
    name="imec-3nm-finfet",
    vdd=0.700,
    contacted_poly_pitch_um=0.045,
    fin_pitch_um=0.024,
    metal_pitch_um=0.024,
    sram_6t_area_um2=0.01512,
    sram_6t_width_um=0.135,
    sram_6t_height_um=0.112,
)

#: Trailing-edge reference node (5nm-class FinFET, ~0.021 um^2 6T cell,
#: nominal VDD 750 mV).  Structural figures follow public 5nm DTCO data;
#: the analytical models rescale their geometric inputs from these, while
#: the Table-2 pipeline calibration anchors remain the 3nm values.
IMEC_5NM = TechnologyNode(
    name="imec-5nm-finfet",
    vdd=0.750,
    contacted_poly_pitch_um=0.051,
    fin_pitch_um=0.028,
    metal_pitch_um=0.030,
    sram_6t_area_um2=0.021,
    sram_6t_width_um=0.150,
    sram_6t_height_um=0.140,
    temperature_c=25.0,
)

#: Forward-scaled node (2nm-class nanosheet, projected 0.0126 um^2 6T
#: cell, VDD 650 mV).  As with the 5nm entry, this is a *structural*
#: what-if axis for design-space sweeps, not a silicon-calibrated point.
IMEC_2NM = TechnologyNode(
    name="imec-2nm-nanosheet",
    vdd=0.650,
    contacted_poly_pitch_um=0.042,
    fin_pitch_um=0.021,
    metal_pitch_um=0.021,
    sram_6t_area_um2=0.0126,
    sram_6t_width_um=0.120,
    sram_6t_height_um=0.105,
    temperature_c=25.0,
)

#: Node registry keyed by the short names the config/CLI layer uses
#: (``HardwareConfig.node``, ``--node``).  "3nm" is the paper's node and
#: the default everywhere.
TECHNOLOGY_NODES: dict[str, TechnologyNode] = {
    "3nm": IMEC_3NM,
    "5nm": IMEC_5NM,
    "2nm": IMEC_2NM,
}

#: The default node key (the paper's imec 3nm FinFET node).
DEFAULT_NODE = "3nm"


def resolve_node(node: str) -> TechnologyNode:
    """Look up a technology node by its registry key.

    The registry keys (not the descriptive ``TechnologyNode.name``
    strings) are the sweep/CLI vocabulary, so an unknown key lists the
    valid choices.
    """
    try:
        return TECHNOLOGY_NODES[node]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_NODES))
        raise ConfigurationError(
            f"unknown technology node {node!r} (known: {known})"
        ) from None


#: Precharge voltages swept in Figure 7 of the paper.
FIG7_VPRECH_SWEEP_V = (0.400, 0.500, 0.600, 0.700)
