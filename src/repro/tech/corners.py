"""Named process corners (+-3 sigma, worst-case cell/row/column).

The paper's experimental setup (Table 1) evaluates the SRAM at +-3 sigma
process variation and sizes timing for the worst-case cell, row and
column.  We reproduce that treatment at model level: a corner shifts
the threshold voltage and scales the drive strength by a lognormal
factor, and the "slow"/"fast" corners sit at the 3-sigma tails the
paper designs against.  The read-time distribution that variation
implies is computed in closed form by
:mod:`repro.sram.variation_study`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


#: Subthreshold swing used to translate a corner's Vt shift into a
#: leakage multiplier (V per decade of subthreshold current at 25 C).
SUBTHRESHOLD_SWING_V_PER_DECADE = 0.090

#: One-sigma local variation behind the named design corners: the Vt
#: shift in volts (random dopant and work-function fluctuation at
#: 3nm-class fins is ~15-20 mV per device) and the relative drive
#: strength, whose lognormal spread is also the read-time spread of
#: :class:`~repro.sram.variation_study.VariationStudy`.
_CORNER_SIGMA_VT_V = 0.018
CORNER_SIGMA_DRIVE = 0.06


@dataclass(frozen=True)
class CornerSpec:
    """A named deterministic process corner (the Table-1 design points).

    A ``CornerSpec`` is a *declarative* corner the configuration layer
    can name, hash and serialize: "typical" is the nominal silicon every
    calibration anchor refers to, "slow"/"fast" are the +-3 sigma
    guardband corners the paper sizes timing against.

    Attributes
    ----------
    name:
        Registry key (``typical`` / ``slow`` / ``fast``).
    vt_shift_v:
        Deterministic threshold-voltage shift (positive = slower).
    drive_factor:
        Multiplicative drive-current factor (1.0 = typical).
    """

    name: str
    vt_shift_v: float
    drive_factor: float

    def __post_init__(self) -> None:
        if self.drive_factor <= 0.0:
            raise ConfigurationError("drive_factor must be positive")

    @property
    def delay_factor(self) -> float:
        """First-order path-delay multiplier (delay scales as 1/drive)."""
        return 1.0 / self.drive_factor

    @property
    def leakage_factor(self) -> float:
        """Subthreshold-leakage multiplier from the corner's Vt shift.

        A slow corner (high Vt) leaks less, a fast corner more, at
        ~90 mV/decade — exactly 1.0 at the typical corner so nominal
        evaluations are bit-identical to the corner-unaware model.
        """
        return 10.0 ** (-self.vt_shift_v / SUBTHRESHOLD_SWING_V_PER_DECADE)


def _sigma_corner(name: str, n_sigma: float) -> CornerSpec:
    """Corner at ``n_sigma`` (positive = slow) on the default sigmas."""
    return CornerSpec(
        name=name,
        vt_shift_v=n_sigma * _CORNER_SIGMA_VT_V,
        drive_factor=float(np.exp(-n_sigma * CORNER_SIGMA_DRIVE)),
    )


#: Nominal silicon: every calibrated model value holds verbatim.
TYPICAL_CORNER = CornerSpec(name="typical", vt_shift_v=0.0, drive_factor=1.0)

#: Named corner registry keyed by the config/CLI vocabulary
#: (``HardwareConfig.corner``, ``--corner``).  "slow"/"fast" are the
#: +-3 sigma design corners of the paper's Table-1 methodology.
PROCESS_CORNERS: dict[str, CornerSpec] = {
    "typical": TYPICAL_CORNER,
    "slow": _sigma_corner("slow", 3.0),
    "fast": _sigma_corner("fast", -3.0),
}

#: The default corner key (nominal silicon).
DEFAULT_CORNER = "typical"


def resolve_corner(corner: str) -> CornerSpec:
    """Look up a process corner by its registry key."""
    try:
        return PROCESS_CORNERS[corner]
    except KeyError:
        known = ", ".join(sorted(PROCESS_CORNERS))
        raise ConfigurationError(
            f"unknown process corner {corner!r} (known: {known})"
        ) from None
