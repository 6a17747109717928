"""Monte-Carlo variation study of the read path."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sram.bitcell import CellType
from repro.sram.readport import CLOCK_PERIOD_NS
from repro.sram.variation_study import VariationStudy
from repro.tech.corners import CornerSample, ProcessVariation


@pytest.fixture(scope="module")
def study() -> VariationStudy:
    return VariationStudy(variation=ProcessVariation(seed=7))


class TestDistribution:
    def test_typical_faster_than_shipped(self, study):
        """The shipped (3-sigma) figure must sit above the typical cell."""
        dist = study.distribution(CellType.C1RW4R, n=2048)
        assert dist.typical_read_ns < dist.shipped_read_ns
        assert dist.guardband_ns > 0.0

    def test_mean_near_typical(self, study):
        dist = study.distribution(CellType.C1RW4R, n=4096)
        assert dist.mean_read_ns == pytest.approx(
            dist.typical_read_ns, rel=0.05
        )

    def test_spread_positive(self, study):
        dist = study.distribution(CellType.C1RW2R, n=2048)
        assert dist.sigma_read_ns > 0.0
        assert dist.worst_sample_read_ns > dist.mean_read_ns

    def test_shipped_figure_covers_three_sigma(self, study):
        """Table 1: the design is timed at the 3-sigma worst case."""
        for cell in (CellType.C1RW1R, CellType.C1RW2R,
                     CellType.C1RW3R, CellType.C1RW4R):
            dist = study.distribution(cell, n=4096)
            assert dist.covers_three_sigma, cell

    def test_more_variation_widens_distribution(self):
        tight = VariationStudy(variation=ProcessVariation(sigma_drive=0.02, seed=1))
        loose = VariationStudy(variation=ProcessVariation(sigma_drive=0.12, seed=1))
        cell = CellType.C1RW4R
        assert (
            loose.distribution(cell).sigma_read_ns
            > 2.0 * tight.distribution(cell).sigma_read_ns
        )


class TestYield:
    def test_budget_at_shipped_clock_is_shipped_read(self, study):
        cell = CellType.C1RW4R
        budget = study.read_budget_ns(cell, CLOCK_PERIOD_NS[cell])
        assert budget == pytest.approx(study.read_ports.read_time_ns(cell))

    def test_yield_high_at_shipped_clock(self, study):
        y = study.parametric_yield(
            CellType.C1RW4R, CLOCK_PERIOD_NS[CellType.C1RW4R], n=8192
        )
        assert y > 0.995  # ~Phi(3) by construction

    def test_yield_collapses_when_overclocked(self, study):
        y = study.parametric_yield(CellType.C1RW4R, clock_period_ns=1.0, n=4096)
        assert y < 0.5

    def test_yield_monotonic_in_clock(self, study):
        slow = study.parametric_yield(CellType.C1RW2R, 1.3, n=4096)
        fast = study.parametric_yield(CellType.C1RW2R, 1.1, n=4096)
        assert slow >= fast

    def test_relaxed_clock_reaches_full_yield(self, study):
        cell = CellType.C1RW1R
        y = study.parametric_yield(cell, CLOCK_PERIOD_NS[cell] + 0.3, n=4096)
        assert y == pytest.approx(1.0)


class TestArrayDraw:
    @pytest.mark.parametrize("cell", [CellType.C6T, CellType.C1RW4R])
    def test_read_times_equal_the_corner_sample_path(self, cell):
        """The array draw gives the read times the list of CornerSample
        objects gave, value for value, and leaves the generator where
        that path left it."""
        seed, n = 7, 1000
        study = VariationStudy(variation=ProcessVariation(seed=seed))
        times = study.sample_read_times(cell, n)

        variation = ProcessVariation(seed=seed)
        rng = np.random.default_rng(seed)
        vt = rng.normal(0.0, variation.sigma_vt_v, size=n)
        drive = np.exp(rng.normal(0.0, variation.sigma_drive, size=n))
        corners = [CornerSample(float(v), float(d)) for v, d in zip(vt, drive)]
        shipped = study.read_ports.read_time_ns(cell)
        frac = study._discharge_fraction(cell)
        discharge_typ = shipped * frac * variation.worst_case(3.0).drive_factor
        expected = shipped * (1.0 - frac) + discharge_typ / np.array(
            [c.drive_factor for c in corners]
        )
        assert np.array_equal(times, expected)
        next_vt, _ = study.variation.draw(4)
        assert np.array_equal(next_vt,
                              rng.normal(0.0, variation.sigma_vt_v, size=4))


class TestValidation:
    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            VariationStudy(rows=0)

    def test_rejects_bad_sample_count(self, study):
        with pytest.raises(ConfigurationError):
            study.sample_read_times(CellType.C1RW4R, n=0)

    def test_rejects_bad_clock(self, study):
        with pytest.raises(ConfigurationError):
            study.parametric_yield(CellType.C1RW4R, 0.0)
