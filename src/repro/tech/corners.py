"""Process-variation model (+-3 sigma, worst-case cell/row/column).

The paper's experimental setup (Table 1) evaluates the SRAM at +-3 sigma
process variation and sizes timing for the worst-case cell, row and
column.  We reproduce that statistical treatment at model level:
threshold voltages receive Gaussian shifts, drive strengths lognormal
factors, and the "worst-case" accessor returns the 3-sigma tail the
paper designs against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


#: Subthreshold swing used to translate a corner's Vt shift into a
#: leakage multiplier (V per decade of subthreshold current at 25 C).
SUBTHRESHOLD_SWING_V_PER_DECADE = 0.090

#: One-sigma parameters behind the named design corners; mirror the
#: :class:`ProcessVariation` defaults so ``worst_case()``/``best_case()``
#: land exactly on the "slow"/"fast" registry entries.
_CORNER_SIGMA_VT_V = 0.018
_CORNER_SIGMA_DRIVE = 0.06


@dataclass(frozen=True)
class CornerSpec:
    """A named deterministic process corner (the Table-1 design points).

    Unlike the Monte-Carlo :class:`CornerSample`, a ``CornerSpec`` is a
    *declarative* corner the configuration layer can name, hash and
    serialize: "typical" is the nominal silicon every calibration anchor
    refers to, "slow"/"fast" are the +-3 sigma guardband corners the
    paper sizes timing against.

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

    def sample(self) -> CornerSample:
        """The equivalent Monte-Carlo sample point."""
        return CornerSample(
            vt_shift_v=self.vt_shift_v, drive_factor=self.drive_factor
        )


def _sigma_corner(name: str, n_sigma: float) -> CornerSpec:
    """Corner at ``n_sigma`` (positive = slow) on the default sigmas."""
    return CornerSpec(
        name=name,
        vt_shift_v=n_sigma * _CORNER_SIGMA_VT_V,
        drive_factor=float(np.exp(-n_sigma * _CORNER_SIGMA_DRIVE)),
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


@dataclass(frozen=True)
class CornerSample:
    """One sampled process point.

    Attributes
    ----------
    vt_shift_v:
        Threshold-voltage shift in volts (positive = slower device).
    drive_factor:
        Multiplicative factor on drive current (1.0 = typical).
    """

    vt_shift_v: float
    drive_factor: float

    def scaled_delay(self, typical_delay_ns: float) -> float:
        """First-order delay at this corner: delay scales as 1/drive."""
        if self.drive_factor <= 0.0:
            raise ConfigurationError("drive_factor must be positive")
        return typical_delay_ns / self.drive_factor


class ProcessVariation:
    """Monte-Carlo generator of process corners.

    Parameters
    ----------
    sigma_vt_v:
        One-sigma local Vt variation in volts.  Random dopant/work-function
        fluctuation at 3nm-class fins is ~15-20 mV per device; an SRAM
        read path stacks a few devices so the path-level sigma is similar
        after averaging.
    sigma_drive:
        One-sigma relative drive-strength variation.
    seed:
        Seed for the deterministic RNG (reproducible runs).
    """

    def __init__(self, sigma_vt_v: float = _CORNER_SIGMA_VT_V,
                 sigma_drive: float = _CORNER_SIGMA_DRIVE,
                 seed: int = 2024) -> None:
        if sigma_vt_v < 0.0 or sigma_drive < 0.0:
            raise ConfigurationError("variation sigmas must be non-negative")
        self.sigma_vt_v = sigma_vt_v
        self.sigma_drive = sigma_drive
        self._rng = np.random.default_rng(seed)

    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` independent corners as two arrays: Vt shifts (V)
        and drive factors, in that order from the generator."""
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        vt = self._rng.normal(0.0, self.sigma_vt_v, size=n)
        # Lognormal keeps drive strictly positive.
        drive = np.exp(self._rng.normal(0.0, self.sigma_drive, size=n))
        return vt, drive

    def sample(self, n: int) -> list[CornerSample]:
        """Draw ``n`` independent corner samples (:meth:`draw`, one
        object per corner)."""
        vt, drive = self.draw(n)
        return [CornerSample(float(v), float(d)) for v, d in zip(vt, drive)]

    def worst_case(self, n_sigma: float = 3.0) -> CornerSample:
        """The deterministic slow corner at ``n_sigma`` (paper: 3 sigma).

        Worst case for read timing: high Vt, weak drive.
        """
        if n_sigma < 0.0:
            raise ConfigurationError("n_sigma must be non-negative")
        return CornerSample(
            vt_shift_v=n_sigma * self.sigma_vt_v,
            drive_factor=float(np.exp(-n_sigma * self.sigma_drive)),
        )

    def best_case(self, n_sigma: float = 3.0) -> CornerSample:
        """The deterministic fast corner (low Vt, strong drive)."""
        if n_sigma < 0.0:
            raise ConfigurationError("n_sigma must be non-negative")
        return CornerSample(
            vt_shift_v=-n_sigma * self.sigma_vt_v,
            drive_factor=float(np.exp(n_sigma * self.sigma_drive)),
        )

    def worst_of_array(self, rows: int, cols: int, quantile_sigma: float = 3.0,
                       n_trials: int = 256) -> CornerSample:
        """Empirical worst cell of a ``rows x cols`` array.

        Samples ``n_trials`` arrays and returns the average of their worst
        cells, clipped to the ``quantile_sigma`` design corner — matching
        the paper's "worst-case Cell/Row/Column" target (Table 1): the
        array is timed for its slowest cell, but never beyond the +-3
        sigma design corner.
        """
        if rows < 1 or cols < 1:
            raise ConfigurationError("array dimensions must be >= 1")
        n_cells = rows * cols
        worst_vts = np.empty(n_trials)
        worst_drives = np.empty(n_trials)
        for trial in range(n_trials):
            vt = self._rng.normal(0.0, self.sigma_vt_v, size=n_cells)
            drive = np.exp(self._rng.normal(0.0, self.sigma_drive, size=n_cells))
            # Slowest cell: maximal vt+weak drive combination; rank by
            # first-order delay factor exp(sigma)/drive.
            slowness = vt / max(self.sigma_vt_v, 1e-12) - np.log(drive) / max(
                self.sigma_drive, 1e-12
            )
            worst = int(np.argmax(slowness))
            worst_vts[trial] = vt[worst]
            worst_drives[trial] = drive[worst]
        cap = self.worst_case(quantile_sigma)
        return CornerSample(
            vt_shift_v=min(float(worst_vts.mean()), cap.vt_shift_v),
            drive_factor=max(float(worst_drives.mean()), cap.drive_factor),
        )
