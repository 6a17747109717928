"""Named process corners (+-3 sigma, worst-case cell)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tech.corners import PROCESS_CORNERS, CornerSpec


class TestNamedCorners:
    def test_slow_corner_is_three_sigma_out(self):
        """High Vt, weak drive: 3 x 18 mV and exp(-3 x 0.06)."""
        slow = PROCESS_CORNERS["slow"]
        assert slow.vt_shift_v == pytest.approx(0.054)
        assert slow.drive_factor == pytest.approx(np.exp(-0.18))
        assert slow.delay_factor > 1.0

    def test_fast_corner_mirrors_slow(self):
        slow, fast = PROCESS_CORNERS["slow"], PROCESS_CORNERS["fast"]
        assert fast.vt_shift_v == pytest.approx(-slow.vt_shift_v)
        assert fast.drive_factor * slow.drive_factor == pytest.approx(1.0)

    @pytest.mark.parametrize("drive", [0.0, -1.0])
    def test_rejects_a_non_positive_drive(self, drive):
        with pytest.raises(ConfigurationError, match="drive_factor"):
            CornerSpec(name="broken", vt_shift_v=0.0, drive_factor=drive)
