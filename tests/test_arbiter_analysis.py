"""Arbiter synthesis claims (paper section 3.3 and Table 2)."""

import numpy as np
import pytest

from repro.arbiter.analysis import (
    analyze,
    arbiter_area_um2,
    arbiter_energy_per_cycle_pj,
    critical_path_ps,
    netlist_critical_path_ps,
    sta_critical_path_ps,
    tree_area_overhead,
)
from repro.errors import ConfigurationError


class TestPaperClaims:
    def test_flat_128_wide_4port_exceeds_1100ps(self):
        """Paper: '>1100 ps' for the flat 128-wide 4-port arbiter."""
        assert critical_path_ps(128, 4, tree=False) > 1100.0

    def test_tree_under_800ps(self):
        """Paper: '<800 ps' with the tree structure."""
        assert critical_path_ps(128, 4, tree=True) < 800.0

    def test_tree_area_overhead_about_8_percent(self):
        """Paper: 'at the cost of 8.0% area overhead'."""
        assert tree_area_overhead(128, 4) == pytest.approx(0.08, abs=0.015)

    def test_critical_path_insensitive_to_ports(self):
        """Table 2: the arbiter stage does not scale with added ports."""
        paths = [critical_path_ps(128, p, tree=True) for p in (1, 2, 3, 4)]
        assert max(paths) - min(paths) < 30.0

    def test_flat_netlist_longest_path_also_over_1100(self):
        """The literal cascaded-PE netlist agrees for the flat case."""
        assert netlist_critical_path_ps(128, 4, tree=False) > 1050.0


class TestScaling:
    def test_flat_path_linear_in_width(self):
        p64 = sta_critical_path_ps(64, 1, tree=False)
        p128 = sta_critical_path_ps(128, 1, tree=False)
        assert p128 == pytest.approx(2.0 * p64, rel=0.1)

    def test_tree_beats_flat_at_128(self):
        assert critical_path_ps(128, 4, tree=True) < 0.75 * critical_path_ps(
            128, 4, tree=False
        )

    def test_tree_falls_back_to_flat_when_narrow(self):
        assert sta_critical_path_ps(32, 2, tree=True, base_width=64) == (
            pytest.approx(sta_critical_path_ps(32, 2, tree=False))
        )

    def test_stage_delay_adds_clocking_overhead(self):
        report = analyze(128, 4, tree=True)
        assert report.stage_delay_ns > report.critical_path_ps * 1e-3


class TestAreaAndEnergy:
    def test_area_grows_with_ports(self):
        areas = [arbiter_area_um2(128, p) for p in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_area_positive_and_small(self):
        """An arbiter is tiny next to its 128x128 SRAM array."""
        from repro.sram.layout import floorplan
        from repro.sram.bitcell import CellType

        arb = arbiter_area_um2(128, 4)
        macro = floorplan(CellType.C1RW4R).macro_area_um2()
        assert 0.0 < arb < 0.1 * macro

    def test_energy_per_cycle_scales_with_activity(self):
        low = arbiter_energy_per_cycle_pj(128, 4, activity=0.1)
        high = arbiter_energy_per_cycle_pj(128, 4, activity=0.2)
        assert high == pytest.approx(2.0 * low)

    def test_energy_reasonable_magnitude(self):
        e = arbiter_energy_per_cycle_pj(128, 4)
        assert 0.005 < e < 0.5

    def test_energy_netlist_built_once_per_config(self, monkeypatch, rng):
        """Every tile reads the per-cycle energy; the netlist behind it
        is built once per configuration, not once per tile."""
        from repro.arbiter import analysis
        from repro.hw.config import HardwareConfig
        from repro.tile.network import EsamNetwork

        real_build = analysis.build_cascaded_netlist
        builds = []

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        arbiter_energy_per_cycle_pj.cache_clear()
        monkeypatch.setattr(analysis, "build_cascaded_netlist",
                            counting_build)
        config = HardwareConfig()
        sizes = config.layer_sizes
        weights = [rng.integers(0, 2, (a, b)).astype(np.uint8)
                   for a, b in zip(sizes[:-1], sizes[1:])]
        thresholds = [np.zeros(b, dtype=np.int64) for b in sizes[1:]]
        for _ in range(2):
            EsamNetwork(weights, thresholds, config=config)
        assert len(builds) == 1
        ports = config.cell_type.inference_ports
        assert arbiter_energy_per_cycle_pj(128, ports, tree=True) == (
            real_build(128, ports).switching_energy_fj(0.15) * 1e-3
        )


class TestValidation:
    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            critical_path_ps(0, 4)
        with pytest.raises(ConfigurationError):
            sta_critical_path_ps(128, 0, tree=True)
        with pytest.raises(ConfigurationError):
            sta_critical_path_ps(100, 4, tree=True, base_width=64)
