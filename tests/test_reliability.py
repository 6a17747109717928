"""Reliability campaigns: spec expansion, sharding parity, caching, CLI.

Mirrors the sweep-engine suite: the heart is the determinism contract
— a campaign must produce bit-identical rows and curves whether it
runs in-process, across four worker processes, or straight out of the
shared on-disk cache, and fault masks must derive from the hardware
config's seed alone.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.reliability import (
    NAMED_CAMPAIGNS,
    CampaignResult,
    FaultCampaignSpec,
    FaultPoint,
    ReliabilityRow,
    ReliabilityRunner,
    YieldCurve,
    build_yield_curves,
    evaluate_fault_point,
    reliability_spec,
)
from repro.reliability.__main__ import main as reliability_main
from repro.sram.bitcell import CellType
from repro.sweep import (
    DesignPoint,
    ResultCache,
    SweepRunner,
    entry_key,
    figure8_spec,
)
from repro.sweep.results import SweepStats

QUALITY = "fast"
SAMPLE = 8
BERS = (0.0, 1e-3, 5e-2)


def small_spec(name="small", corners=("typical",), trials=2,
               bers=BERS) -> FaultCampaignSpec:
    return FaultCampaignSpec(
        name=name, bit_error_rates=bers, trials=trials,
        corners=corners, sample_images=SAMPLE, quality=QUALITY,
    )


class TestSpec:
    def test_expand_is_cartesian_and_ordered(self):
        spec = FaultCampaignSpec(
            name="grid", bit_error_rates=(0.0, 1e-2),
            cell_types=(CellType.C6T, CellType.C1RW4R),
            corners=("typical", "slow"), trials=3, quality=QUALITY,
        )
        points = spec.expand()
        assert len(points) == len(spec) == 8
        assert [(p.cell_type, p.corner, p.bit_error_rate)
                for p in points[:4]] == [
            (CellType.C6T, "typical", 0.0),
            (CellType.C6T, "typical", 1e-2),
            (CellType.C6T, "slow", 0.0),
            (CellType.C6T, "slow", 1e-2),
        ]
        # Expanding twice yields equal (hashable) points.
        assert points == spec.expand()
        assert len(set(points)) == 8

    def test_point_validation_is_early(self):
        with pytest.raises(ConfigurationError, match="bit_error_rate"):
            FaultPoint(bit_error_rate=1.5)
        with pytest.raises(ConfigurationError, match="trials"):
            FaultPoint(trials=0)
        with pytest.raises(ConfigurationError, match="trial_start"):
            FaultPoint(trial_start=-1)
        with pytest.raises(ConfigurationError, match="engine"):
            FaultPoint(engine="warp")
        with pytest.raises(ConfigurationError, match="quality"):
            FaultPoint(quality="best")
        with pytest.raises(ConfigurationError, match="sample_images"):
            FaultPoint(sample_images=0)

    def test_point_dict_roundtrip(self):
        point = FaultPoint(
            cell_type=CellType.C1RW2R, vprech=0.6, node="5nm",
            corner="slow", bit_error_rate=1e-3, trials=5, trial_start=10,
            sample_images=4, quality=QUALITY, seed=7,
        )
        assert FaultPoint.from_dict(point.to_dict()) == point

    def test_fault_point_is_a_design_point_with_a_fault_condition(self):
        paper = FaultPoint()
        assert isinstance(paper, DesignPoint)
        assert paper.hardware == HardwareConfig()
        assert (paper.bit_error_rate, paper.trials) == (0.0, 4)
        with pytest.raises(ConfigurationError, match="needs a hardware"):
            DesignPoint()
        with pytest.raises(TypeError, match="bit_error_rate"):
            DesignPoint(cell_type=CellType.C6T, bit_error_rate=1e-3)
        # A fault point and a design point of the same hardware and
        # evaluation fields are different experiments.
        assert paper != DesignPoint(hardware=HardwareConfig())
        # The benchmark re-seeds a campaign's points this way.
        moved = dataclasses.replace(paper, trial_start=8, corner="slow")
        assert (moved.trial_indices, moved.corner) == (range(8, 12), "slow")
        assert moved.bit_error_rate == paper.bit_error_rate

    def test_point_trial_indices_and_label(self):
        point = FaultPoint(bit_error_rate=1e-3, trials=4, trial_start=8,
                           quality=QUALITY)
        assert list(point.trial_indices) == [8, 9, 10, 11]
        assert "BER1e-03" in point.label and "4tr" in point.label

    def test_empty_and_duplicate_axes_rejected(self):
        with pytest.raises(ConfigurationError, match="axis"):
            FaultCampaignSpec(name="bad", corners=())
        with pytest.raises(ConfigurationError, match="duplicates"):
            FaultCampaignSpec(name="bad", bit_error_rates=(1e-3, 1e-3))
        with pytest.raises(ConfigurationError, match="duplicates"):
            FaultCampaignSpec(name="bad", corners=("slow", "slow"))
        with pytest.raises(ConfigurationError, match="duplicates"):
            FaultCampaignSpec(name="bad", nodes=("3nm", "3nm"))

    def test_named_campaigns_registry(self):
        assert set(NAMED_CAMPAIGNS) == {"reliability", "cells"}
        for factory in NAMED_CAMPAIGNS.values():
            spec = factory(trials=1, sample_images=2, quality=QUALITY)
            assert len(spec.expand()) == len(spec) > 0
        # The acceptance campaign walks BER x corner.
        spec = NAMED_CAMPAIGNS["reliability"]()
        assert {p.corner for p in spec.expand()} == {
            "typical", "slow", "fast",
        }


class TestDeterminism:
    @pytest.mark.slow
    def test_serial_and_sharded_runs_are_bit_identical(self, tmp_path):
        """Acceptance: n_workers=4 reproduces n_workers=1, float for
        float, rows and curves both."""
        spec = small_spec(corners=("typical", "slow"))
        serial = ReliabilityRunner(
            spec, n_workers=1, cache=ResultCache(tmp_path / "a"),
        ).run()
        sharded = ReliabilityRunner(
            spec, n_workers=4, cache=ResultCache(tmp_path / "b"),
        ).run()
        assert serial.stats.evaluated == sharded.stats.evaluated == len(spec)
        for a, b in zip(serial.rows, sharded.rows):
            assert a.point == b.point
            assert a.accuracies == b.accuracies
            assert a.flipped_bits == b.flipped_bits
        assert serial.curves == sharded.curves

    def test_warm_cache_skips_every_evaluation(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        cold = ReliabilityRunner(spec, cache=cache).run()
        assert cold.stats.evaluated == len(spec)
        warm = ReliabilityRunner(spec, cache=ResultCache(tmp_path)).run()
        assert warm.stats.evaluated == 0
        assert warm.stats.cache_hits == len(spec)
        for a, b in zip(cold.rows, warm.rows):
            assert a.accuracies == b.accuracies  # lossless round-trip
            assert not a.cached and b.cached
        assert cold.curves == warm.curves

    @pytest.mark.slow
    def test_masks_follow_the_config_seed(self):
        """Regression for the latent seed bug: two configs differing
        only by seed must not share fault masks."""
        a, _ = evaluate_fault_point(
            FaultPoint(bit_error_rate=5e-2, trials=2, sample_images=SAMPLE,
                       quality=QUALITY, seed=42)
        )
        b, flips_b = evaluate_fault_point(
            FaultPoint(bit_error_rate=5e-2, trials=2, sample_images=SAMPLE,
                       quality=QUALITY, seed=42)
        )
        assert a == b  # same seed: bit-identical
        # A different seed is a different model *and* different masks;
        # the flip counts alone distinguish the mask streams.
        c_flips = evaluate_fault_point(
            FaultPoint(bit_error_rate=5e-2, trials=2, sample_images=SAMPLE,
                       quality=QUALITY, seed=7)
        )[1]
        assert c_flips != flips_b

    def test_trial_partition_is_bit_identical(self):
        full = FaultPoint(bit_error_rate=5e-2, trials=4,
                          sample_images=SAMPLE, quality=QUALITY)
        first = dataclasses.replace(full, trials=2, trial_start=0)
        rest = dataclasses.replace(full, trials=2, trial_start=2)
        fa, ff = evaluate_fault_point(full)
        aa, af = evaluate_fault_point(first)
        ba, bf = evaluate_fault_point(rest)
        assert fa == aa + ba
        assert ff == af + bf

    def test_cache_key_depends_on_every_field(self):
        base = FaultPoint(bit_error_rate=1e-3, quality=QUALITY)
        keys = {entry_key("reliability", base.to_dict(), "f" * 64)}
        for variant in (
            dataclasses.replace(base, bit_error_rate=1e-2),
            dataclasses.replace(base, trials=8),
            dataclasses.replace(base, trial_start=4),
            dataclasses.replace(base, sample_images=16),
            dataclasses.replace(base, engine="cycle"),
            FaultPoint(bit_error_rate=1e-3, quality=QUALITY, corner="slow"),
            FaultPoint(bit_error_rate=1e-3, quality=QUALITY, node="5nm"),
            FaultPoint(bit_error_rate=1e-3, quality=QUALITY, seed=7),
        ):
            keys.add(entry_key("reliability", variant.to_dict(), "f" * 64))
        keys.add(entry_key("reliability", base.to_dict(), "0" * 64))
        assert len(keys) == 10

    def test_cache_kinds_cannot_alias(self):
        """A sweep entry and a reliability entry with byte-identical
        point dicts still key differently (the v3 kind discriminator)."""
        payload = {"any": "dict"}
        assert (entry_key("sweep", payload, "f" * 64)
                != entry_key("reliability", payload, "f" * 64))

    def test_campaign_shares_the_sweep_cache_directory(self, tmp_path):
        """Both families live in one ResultCache without clashing."""
        cache = ResultCache(tmp_path)
        SweepRunner(figure8_spec(sample_images=SAMPLE, quality=QUALITY),
                    cache=cache).run()
        entries_after_sweep = len(cache)
        campaign = ReliabilityRunner(small_spec(), cache=cache).run()
        assert campaign.stats.evaluated == len(small_spec())
        assert len(cache) == entries_after_sweep + len(small_spec())
        # Re-running either family hits its own entries.
        assert ReliabilityRunner(
            small_spec(), cache=cache,
        ).run().stats.cache_hits == len(small_spec())

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            ReliabilityRunner(small_spec(), n_workers=0)


class TestAggregation:
    def make_curve(self, bers, means, **kwargs):
        defaults = dict(
            cell_type="1RW+4R", node="3nm", corner="typical",
            bit_error_rates=tuple(bers), mean_accuracy=tuple(means),
            worst_accuracy=tuple(means), timing_yield=0.9987,
            clock_period_ns=1.1,
        )
        defaults.update(kwargs)
        return YieldCurve(**defaults)

    def test_accuracy_floor_walks_upward(self):
        curve = self.make_curve(
            (0.0, 1e-4, 1e-3, 1e-2), (0.95, 0.94, 0.93, 0.50),
        )
        assert curve.accuracy_floor_ber(max_drop=0.05) == 1e-3
        assert curve.accuracy_floor_ber(max_drop=0.01) == 1e-4

    def test_accuracy_floor_ignores_non_monotonic_recovery(self):
        """A chance-level plateau that wobbles back above the threshold
        must not extend the floor past the first collapse."""
        curve = self.make_curve(
            (0.0, 1e-3, 1e-2, 1e-1), (0.95, 0.50, 0.94, 0.94),
        )
        assert curve.accuracy_floor_ber(max_drop=0.05) == 0.0

    def test_accuracy_at_unknown_ber_rejected(self):
        curve = self.make_curve((0.0, 1e-3), (0.95, 0.9))
        assert curve.accuracy_at(1e-3) == 0.9
        with pytest.raises(ConfigurationError, match="not tested"):
            curve.accuracy_at(2e-3)

    def test_build_yield_curves_groups_and_sorts(self):
        rows = []
        for corner in ("typical", "slow"):
            for ber in (1e-2, 0.0):  # deliberately unsorted
                point = FaultPoint(bit_error_rate=ber, trials=2,
                                   corner=corner, quality=QUALITY)
                rows.append(ReliabilityRow(
                    point=point, accuracies=(0.9, 0.8),
                    flipped_bits=(3, 4),
                ))
        curves = build_yield_curves(rows, mc_seed=42, mc_samples=64)
        assert [(c.corner, c.bit_error_rates) for c in curves] == [
            ("typical", (0.0, 1e-2)), ("slow", (0.0, 1e-2)),
        ]
        # Aggregation is deterministic for the same rows.
        again = build_yield_curves(rows, mc_seed=42, mc_samples=64)
        assert curves == again

    def test_typical_timing_yield_is_the_designed_guardband(self):
        row = ReliabilityRow(
            point=FaultPoint(bit_error_rate=0.0, trials=1, quality=QUALITY),
            accuracies=(1.0,), flipped_bits=(0,),
        )
        (curve,) = build_yield_curves([row], mc_seed=42)
        assert curve.timing_yield == pytest.approx(0.9987, abs=0.01)

    def test_claims_curve_prefers_nominal_group(self):
        nominal = self.make_curve((0.0,), (0.9,))
        slow = self.make_curve((0.0,), (0.9,), corner="slow")
        result = CampaignResult("c", curves=[slow, nominal])
        assert result.claims_curve() is nominal
        only_slow = CampaignResult("c", curves=[slow])
        assert only_slow.claims_curve() is slow
        with pytest.raises(ConfigurationError, match="curves"):
            CampaignResult("c").claims_curve()

    def test_accuracy_floor_for_matches_hardware_group(self):
        curve = self.make_curve((0.0, 1e-3, 1e-1), (0.95, 0.94, 0.2),
                                corner="slow")
        result = CampaignResult("c", curves=[curve])
        hw = HardwareConfig(corner="slow")
        assert result.accuracy_floor_for(hw) == 1e-3
        with pytest.raises(ConfigurationError, match="no campaign group"):
            result.accuracy_floor_for(HardwareConfig(corner="fast"))


class TestStore:
    def test_json_roundtrip_is_lossless(self, tmp_path):
        result = ReliabilityRunner(small_spec(), cache=None).run()
        loaded = CampaignResult.from_json(result.to_json(tmp_path / "r.json"))
        assert loaded.spec_name == result.spec_name
        assert loaded.stats.evaluated == result.stats.evaluated
        for a, b in zip(loaded.rows, result.rows):
            assert a.point == b.point
            assert a.accuracies == b.accuracies
        assert loaded.curves == result.curves

    def test_csv_export(self, tmp_path):
        result = ReliabilityRunner(small_spec(), cache=None).run()
        path = result.to_csv(tmp_path / "r.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(result.rows)
        header = lines[0].split(",")
        for column in ("cell_type", "corner", "bit_error_rate",
                       "mean_accuracy", "worst_accuracy"):
            assert column in header

    def test_empty_csv_export_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="rows"):
            CampaignResult(spec_name="empty").to_csv(tmp_path / "r.csv")

    def test_row_shape_mismatch_rejected(self):
        point = FaultPoint(bit_error_rate=0.0, trials=2, quality=QUALITY)
        with pytest.raises(ConfigurationError, match="accuracies"):
            ReliabilityRow(point=point, accuracies=(1.0,),
                           flipped_bits=(0, 0))
        with pytest.raises(ConfigurationError, match="flip"):
            ReliabilityRow(point=point, accuracies=(1.0, 1.0),
                           flipped_bits=(0,))

    def test_render_mentions_cache_state(self):
        result = ReliabilityRunner(small_spec(), cache=None).run()
        text = result.render()
        assert "small" in text and "eval" in text

    def test_stats_roundtrip(self):
        stats = SweepStats(evaluated=3, cache_hits=2)
        assert stats.total == 5
        assert stats.to_dict() == {"evaluated": 3, "cache_hits": 2}


class TestServingHook:
    def test_registry_reports_measured_accuracy_floor(self):
        from repro.serve import ModelRegistry
        from repro.sweep import DesignPoint

        registry = ModelRegistry()
        point = DesignPoint(cell_type=CellType.C1RW4R, quality=QUALITY,
                            sample_images=SAMPLE)
        registry.register("edge", point)
        assert "accuracy_floor_ber" not in registry.entry("edge").describe()

        campaign = ReliabilityRunner(small_spec(), cache=None).run()
        floor = registry.attach_reliability("edge", campaign)
        described = registry.entry("edge").describe()
        assert described["accuracy_floor_ber"] == floor
        expected = campaign.curve_for("1RW+4R", "3nm", "typical")
        assert floor == expected.accuracy_floor_ber()

    def test_in_place_weight_update_retires_the_floor(self):
        """An in-place hot-swap serves different weights; describe()
        must stop reporting a floor measured on the old ones."""
        from repro.serve import ModelRegistry
        from repro.sweep import DesignPoint

        registry = ModelRegistry()
        registry.register("edge", DesignPoint(
            cell_type=CellType.C1RW4R, quality=QUALITY,
            sample_images=SAMPLE,
        ))
        campaign = ReliabilityRunner(small_spec(), cache=None).run()
        registry.attach_reliability("edge", campaign)
        assert "accuracy_floor_ber" in registry.entry("edge").describe()
        registry.get("edge").tiles[0].note_weight_update()
        assert "accuracy_floor_ber" not in registry.entry("edge").describe()
        # Re-attaching re-validates against the new versions.
        registry.attach_reliability("edge", campaign)
        assert "accuracy_floor_ber" in registry.entry("edge").describe()

    def test_attach_fails_for_unmeasured_group(self):
        from repro.serve import ModelRegistry
        from repro.sweep import DesignPoint

        registry = ModelRegistry()
        registry.register("edge-5nm", DesignPoint(
            cell_type=CellType.C1RW4R, node="5nm", quality=QUALITY,
            sample_images=SAMPLE,
        ))
        campaign = ReliabilityRunner(small_spec(), cache=None).run()
        with pytest.raises(ConfigurationError, match="no campaign group"):
            registry.attach_reliability("edge-5nm", campaign)


class TestCli:
    def test_list(self, capsys):
        assert reliability_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in NAMED_CAMPAIGNS:
            assert name in out

    def test_default_campaign_with_outputs(self, tmp_path, capsys):
        code = reliability_main([
            "--trials", "1", "--sample-images", "2", "--quality", QUALITY,
            "--bers", "0,5e-2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "r.json"),
            "--csv", str(tmp_path / "r.csv"),
            "--claims",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign 'reliability'" in out
        assert "degradation under faults" in out
        assert "read-timing yield" in out
        loaded = CampaignResult.from_json(tmp_path / "r.json")
        assert len(loaded.rows) == 2 * 3  # 2 BERs x 3 corners
        assert (tmp_path / "r.csv").exists()

    def test_corner_flag_narrows_the_campaign(self, tmp_path, capsys):
        code = reliability_main([
            "--trials", "1", "--sample-images", "2", "--quality", QUALITY,
            "--bers", "0,5e-2", "--corner", "slow",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(2 evaluated" in out
        assert "slow" in out
        assert "typical" not in out

    def test_config_file_seed_drives_the_masks(self, tmp_path, capsys):
        """A --config seed flows into the campaign spec (and thus into
        every fault mask)."""
        cfg = tmp_path / "hw.json"
        cfg.write_text(json.dumps(HardwareConfig(seed=7).to_dict()))
        code = reliability_main([
            "--trials", "1", "--sample-images", "2", "--quality", QUALITY,
            "--bers", "0", "--corner", "typical", "--config", str(cfg),
            "--cache-dir", str(tmp_path / "cache"), "--out",
            str(tmp_path / "r.json"),
        ])
        assert code == 0
        loaded = CampaignResult.from_json(tmp_path / "r.json")
        assert {row.point.seed for row in loaded.rows} == {7}

    def test_warm_rerun_is_all_hits(self, tmp_path, capsys):
        argv = [
            "--trials", "1", "--sample-images", "2", "--quality", QUALITY,
            "--bers", "0,5e-2", "--corner", "typical",
            "--cache-dir", str(tmp_path),
        ]
        assert reliability_main(argv) == 0
        capsys.readouterr()
        assert reliability_main(argv) == 0
        assert "(0 evaluated, 2 cache hits)" in capsys.readouterr().out
