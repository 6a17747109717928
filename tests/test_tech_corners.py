"""Process-variation model (+-3 sigma, worst-case cell)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tech.corners import CornerSample, ProcessVariation


class TestCornerSample:
    def test_scaled_delay(self):
        corner = CornerSample(vt_shift_v=0.0, drive_factor=0.5)
        assert corner.scaled_delay(1.0) == pytest.approx(2.0)

    def test_rejects_zero_drive(self):
        corner = CornerSample(vt_shift_v=0.0, drive_factor=0.0)
        with pytest.raises(ConfigurationError):
            corner.scaled_delay(1.0)


class TestProcessVariation:
    def test_deterministic_with_seed(self):
        a = ProcessVariation(seed=5).sample(10)
        b = ProcessVariation(seed=5).sample(10)
        assert all(
            x.vt_shift_v == y.vt_shift_v and x.drive_factor == y.drive_factor
            for x, y in zip(a, b)
        )

    def test_sample_statistics(self):
        pv = ProcessVariation(sigma_vt_v=0.018, sigma_drive=0.06, seed=1)
        samples = pv.sample(4000)
        vts = np.array([s.vt_shift_v for s in samples])
        assert abs(vts.mean()) < 0.002
        assert vts.std() == pytest.approx(0.018, rel=0.1)

    def test_drive_always_positive(self):
        pv = ProcessVariation(seed=2)
        assert all(s.drive_factor > 0.0 for s in pv.sample(500))

    def test_sample_wraps_the_array_draw(self):
        vt, drive = ProcessVariation(seed=5).draw(50)
        samples = ProcessVariation(seed=5).sample(50)
        assert [s.vt_shift_v for s in samples] == vt.tolist()
        assert [s.drive_factor for s in samples] == drive.tolist()

    def test_worst_case_3sigma(self):
        pv = ProcessVariation(sigma_vt_v=0.018, sigma_drive=0.06)
        worst = pv.worst_case(3.0)
        assert worst.vt_shift_v == pytest.approx(0.054)
        assert worst.drive_factor == pytest.approx(np.exp(-0.18))

    def test_best_case_mirrors_worst(self):
        pv = ProcessVariation()
        best, worst = pv.best_case(3.0), pv.worst_case(3.0)
        assert best.vt_shift_v == pytest.approx(-worst.vt_shift_v)
        assert best.drive_factor * worst.drive_factor == pytest.approx(1.0)

    def test_worst_case_slows_delay(self):
        pv = ProcessVariation()
        assert pv.worst_case().scaled_delay(1.0) > 1.0

    def test_worst_of_array_worse_than_typical(self):
        pv = ProcessVariation(seed=3)
        worst = pv.worst_of_array(64, 64, n_trials=16)
        assert worst.vt_shift_v > 0.0
        assert worst.drive_factor < 1.0

    def test_worst_of_array_capped_at_design_corner(self):
        """Paper designs against the 3-sigma corner, not the extreme tail."""
        pv = ProcessVariation(seed=4)
        cap = pv.worst_case(3.0)
        worst = pv.worst_of_array(128, 128, quantile_sigma=3.0, n_trials=8)
        assert worst.vt_shift_v <= cap.vt_shift_v + 1e-12
        assert worst.drive_factor >= cap.drive_factor - 1e-12

    def test_rejects_bad_args(self):
        pv = ProcessVariation()
        with pytest.raises(ConfigurationError):
            pv.sample(0)
        with pytest.raises(ConfigurationError):
            pv.worst_case(-1.0)
        with pytest.raises(ConfigurationError):
            ProcessVariation(sigma_vt_v=-0.01)
        with pytest.raises(ConfigurationError):
            pv.worst_of_array(0, 10)
