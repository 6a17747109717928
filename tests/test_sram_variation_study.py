"""Closed-form variation study of the read path."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.sram.readport import CLOCK_PERIOD_NS
from repro.sram.variation_study import VariationStudy
from repro.tech.corners import (
    CORNER_SIGMA_DRIVE,
    PROCESS_CORNERS,
    TYPICAL_CORNER,
)

PHI_3 = 0.5 * math.erfc(-3.0 / math.sqrt(2.0))


@pytest.fixture(scope="module")
def study() -> VariationStudy:
    return VariationStudy()


class TestDistribution:
    def test_typical_faster_than_shipped(self, study):
        """The shipped (3-sigma) figure must sit above the typical cell."""
        dist = study.distribution(CellType.C1RW4R)
        assert dist.typical_read_ns < dist.shipped_read_ns
        assert dist.guardband_ns > 0.0

    def test_mean_near_typical(self, study):
        dist = study.distribution(CellType.C1RW4R)
        assert dist.mean_read_ns == pytest.approx(
            dist.typical_read_ns, rel=0.05
        )

    def test_spread_positive(self, study):
        """``1 / drive`` is lognormal, so the mean read sits above the
        typical (median) one."""
        dist = study.distribution(CellType.C1RW2R)
        assert dist.sigma_read_ns > 0.0
        assert dist.mean_read_ns > dist.typical_read_ns

    def test_shipped_figure_covers_three_sigma(self, study):
        """Table 1: the design is timed at the 3-sigma worst case."""
        for cell in (CellType.C1RW1R, CellType.C1RW2R,
                     CellType.C1RW3R, CellType.C1RW4R):
            dist = study.distribution(cell)
            assert dist.covers_three_sigma, cell

    def test_more_variation_widens_distribution(self):
        tight = VariationStudy(sigma_drive=0.02)
        loose = VariationStudy(sigma_drive=0.12)
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

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: c.value)
    def test_yield_at_shipped_clock_is_phi_3(self, study, cell):
        """The shipped read is the 3-sigma cell, so exactly Phi(3) of the
        typical corner's cells meet it."""
        assert study.parametric_yield(cell) == pytest.approx(PHI_3,
                                                             abs=1e-12)
        assert study.parametric_yield(
            cell, CLOCK_PERIOD_NS[cell], TYPICAL_CORNER
        ) == study.parametric_yield(cell)

    def test_yield_collapses_when_overclocked(self, study):
        y = study.parametric_yield(CellType.C1RW4R, clock_period_ns=1.0)
        assert y < 0.5

    def test_yield_monotonic_in_clock(self, study):
        slow = study.parametric_yield(CellType.C1RW2R, 1.3)
        fast = study.parametric_yield(CellType.C1RW2R, 1.1)
        assert slow >= fast

    def test_relaxed_clock_reaches_full_yield(self, study):
        cell = CellType.C1RW1R
        y = study.parametric_yield(cell, CLOCK_PERIOD_NS[cell] + 0.3)
        assert y == pytest.approx(1.0)

    def test_slow_silicon_gains_and_fast_silicon_gives_back(self, study):
        cell = CellType.C1RW4R
        typical = study.parametric_yield(cell)
        assert study.parametric_yield(
            cell, corner=PROCESS_CORNERS["slow"]) > typical
        assert study.parametric_yield(
            cell, corner=PROCESS_CORNERS["fast"]) < typical


class TestSampledReference:
    """A seeded sampler of ``fixed + discharge / drive`` agrees with the
    closed form within its standard error."""

    N = 8192

    @staticmethod
    def _reads(study, cell, seed, n=N):
        shipped = study.read_ports.read_time_ns(cell)
        frac = study._discharge_fraction(cell)
        discharge = shipped * frac * np.exp(-3.0 * study.sigma_drive)
        rng = np.random.default_rng(seed)
        drive = np.exp(rng.normal(0.0, study.sigma_drive, size=n))
        return shipped * (1.0 - frac) + discharge / drive

    @pytest.mark.parametrize("corner", sorted(PROCESS_CORNERS))
    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: c.value)
    def test_yield_within_four_standard_errors(self, study, cell, corner):
        spec = PROCESS_CORNERS[corner]
        reads = self._reads(study, cell, seed=2024) * spec.delay_factor
        for scale in (1.0, 0.95):
            clock = CLOCK_PERIOD_NS[cell] * scale
            exact = study.parametric_yield(cell, clock, spec)
            budget = study.read_budget_ns(cell, clock * spec.delay_factor)
            sampled = float((reads <= budget).mean())
            error = math.sqrt(exact * (1.0 - exact) / self.N)
            assert abs(sampled - exact) <= 4.0 * error, (scale, sampled,
                                                         exact)

    @pytest.mark.parametrize("sigma", [CORNER_SIGMA_DRIVE, 0.5])
    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: c.value)
    def test_moments_match_the_samples(self, cell, sigma):
        study = VariationStudy(sigma_drive=sigma)
        reads = self._reads(study, cell, seed=7, n=2 ** 17)
        dist = study.distribution(cell)
        error = dist.sigma_read_ns / math.sqrt(reads.size)
        assert abs(reads.mean() - dist.mean_read_ns) <= 4.0 * error
        # The sample deviation's relative standard error is about 0.4 %
        # at sigma 0.5, where a lognormal's kurtosis is about 8.9.
        assert reads.std() == pytest.approx(dist.sigma_read_ns, rel=0.02)


class TestEdges:
    def test_zero_sigma_is_a_step(self):
        """Without variation every cell reads in the typical time: all of
        them meet a budget above it, none a budget below."""
        study = VariationStudy(sigma_drive=0.0)
        cell = CellType.C1RW4R
        dist = study.distribution(cell)
        assert dist.sigma_read_ns == 0.0
        assert dist.mean_read_ns == dist.typical_read_ns
        assert dist.typical_read_ns == pytest.approx(dist.shipped_read_ns)
        shipped_clock = CLOCK_PERIOD_NS[cell]
        assert study.parametric_yield(cell, shipped_clock + 1e-6) == 1.0
        assert study.parametric_yield(cell, shipped_clock - 1e-6) == 0.0

    @pytest.mark.parametrize("below_ns", [0.0, 0.05])
    def test_budget_at_or_below_the_fixed_part_yields_nothing(
            self, study, below_ns):
        cell = CellType.C1RW4R
        fixed, _ = study._read_split(cell)
        shipped_read = study.read_ports.read_time_ns(cell)
        clock = fixed - below_ns + CLOCK_PERIOD_NS[cell] - shipped_read
        assert clock > 0.0
        assert study.parametric_yield(cell, clock) == 0.0

    @pytest.mark.parametrize("clock", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("corner", sorted(PROCESS_CORNERS))
    def test_rejects_a_clock_that_is_not_finite_and_positive(
            self, study, clock, corner):
        with pytest.raises(ConfigurationError, match="clock period"):
            study.parametric_yield(CellType.C1RW4R, clock,
                                   PROCESS_CORNERS[corner])


class TestValidation:
    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            VariationStudy(rows=0)

    @pytest.mark.parametrize("sigma", [-0.01, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma_drive"):
            VariationStudy(sigma_drive=sigma)

    def test_rejects_bad_clock(self, study):
        with pytest.raises(ConfigurationError):
            study.parametric_yield(CellType.C1RW4R, 0.0)
