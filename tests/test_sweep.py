"""Sweep engine: spec expansion, sharding parity, caching, CLI.

The heart of this suite is the determinism contract: a sweep must
produce bit-identical rows whether it runs in-process, across four
worker processes, or straight out of the on-disk cache — and the cache
must invalidate when the weights or any point parameter changes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.learning.convert import ConvertedSNN
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.store import STORE_FILENAME
from repro.sweep import (
    NAMED_SWEEPS,
    DesignPoint,
    ResultCache,
    SweepResult,
    SweepRunner,
    SweepSpec,
    entry_key,
    figure8_spec,
    vprech_spec,
    weights_fingerprint,
)
from repro.sweep.__main__ import main as sweep_main
from repro.tech.constants import FIG7_VPRECH_SWEEP_V
from repro.system.evaluate import SystemEvaluator

QUALITY = "fast"
SAMPLE = 8


def small_spec(name="small", cells=(CellType.C6T, CellType.C1RW4R),
               sample_images=SAMPLE) -> SweepSpec:
    return SweepSpec(
        name=name, cell_types=cells, sample_images=(sample_images,),
        quality=QUALITY,
    )


class TestSpec:
    def test_expand_is_cartesian_and_ordered(self):
        spec = SweepSpec(
            name="grid", cell_types=(CellType.C6T, CellType.C1RW4R),
            vprechs=(0.4, 0.5), engines=("fast",), sample_images=(4,),
            quality=QUALITY,
        )
        points = spec.expand()
        assert len(points) == len(spec) == 4
        # Deterministic lexicographic order, cells outermost.
        assert [(p.cell_type, p.vprech) for p in points] == [
            (CellType.C6T, 0.4), (CellType.C6T, 0.5),
            (CellType.C1RW4R, 0.4), (CellType.C1RW4R, 0.5),
        ]
        # Expanding twice yields equal (hashable) points.
        assert points == spec.expand()
        assert len(set(points)) == 4

    def test_over_ports_maps_to_cells(self):
        spec = SweepSpec.over_ports((1, 4), quality=QUALITY)
        assert spec.cell_types == (CellType.C1RW1R, CellType.C1RW4R)

    def test_point_validation_is_early(self):
        with pytest.raises(ConfigurationError, match="engine"):
            DesignPoint(cell_type=CellType.C6T, engine="warp")
        with pytest.raises(ConfigurationError, match="vprech"):
            DesignPoint(cell_type=CellType.C6T, vprech=0.9)
        with pytest.raises(ConfigurationError, match="sample_images"):
            DesignPoint(cell_type=CellType.C6T, sample_images=0)
        with pytest.raises(ConfigurationError, match="quality"):
            DesignPoint(cell_type=CellType.C6T, quality="best")
        with pytest.raises(ConfigurationError, match="cell_type"):
            DesignPoint(cell_type="1RW+4R")

    def test_point_dict_roundtrip(self):
        point = DesignPoint(cell_type=CellType.C1RW2R, vprech=0.6,
                            sample_images=4, quality=QUALITY, seed=7)
        assert DesignPoint.from_dict(point.to_dict()) == point

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="axis"):
            SweepSpec(name="bad", cell_types=())

    def test_duplicate_axis_values_rejected(self):
        """A repeated axis value would evaluate the same point twice in
        one run and count more points than the cache can hold."""
        with pytest.raises(ConfigurationError, match="duplicates"):
            SweepSpec(name="dup", cell_types=(CellType.C6T, CellType.C6T),
                      sample_images=(4,), quality=QUALITY)
        with pytest.raises(ConfigurationError, match="vprechs"):
            SweepSpec(name="dup", vprechs=(0.5, 0.5), quality=QUALITY)

    def test_named_sweeps_registry(self):
        assert set(NAMED_SWEEPS) == {
            "figure8", "vprech", "ports", "engines", "corners",
        }
        for factory in NAMED_SWEEPS.values():
            spec = factory(sample_images=4, quality=QUALITY)
            assert len(spec.expand()) == len(spec) > 0

    def test_vprech_spec_sweeps_the_figure7_grid(self):
        spec = vprech_spec(sample_images=4, quality=QUALITY)
        assert spec.vprechs == FIG7_VPRECH_SWEEP_V
        assert [p.vprech for p in spec.expand()] == list(FIG7_VPRECH_SWEEP_V)
        assert {p.cell_type for p in spec.expand()} == {CellType.C1RW4R}

    def test_corners_spec_walks_node_corner_grid(self):
        spec = NAMED_SWEEPS["corners"](sample_images=4, quality=QUALITY)
        points = spec.expand()
        assert len(points) == 2 * 2 * 3  # cells x nodes x corners
        assert {(p.node, p.corner) for p in points} == {
            (node, corner)
            for node in ("3nm", "5nm")
            for corner in ("typical", "slow", "fast")
        }
        # Both claims anchors are present at every (node, corner).
        assert {p.cell_type for p in points} == {
            CellType.C6T, CellType.C1RW4R,
        }

    def test_point_hardware_view(self):
        from repro.hw import HardwareConfig

        point = DesignPoint(cell_type=CellType.C1RW2R, vprech=0.6,
                            node="5nm", corner="slow", quality=QUALITY)
        assert point.hardware == HardwareConfig(
            cell_type=CellType.C1RW2R, vprech=0.6, node="5nm", corner="slow",
        )
        hw = HardwareConfig(cell_type=CellType.C6T, corner="fast", seed=7)
        from_hw = DesignPoint(hardware=hw, quality=QUALITY)
        assert from_hw.cell_type is CellType.C6T
        assert from_hw.corner == "fast"
        assert from_hw.seed == 7

    def test_point_rejects_unknown_node_and_corner(self):
        with pytest.raises(ConfigurationError, match="node"):
            DesignPoint(cell_type=CellType.C6T, node="1nm")
        with pytest.raises(ConfigurationError, match="corner"):
            DesignPoint(cell_type=CellType.C6T, corner="cryo")


class TestShardingParity:
    def test_serial_and_sharded_runs_are_bit_identical(self, tmp_path):
        spec = small_spec()
        serial = SweepRunner(spec, n_workers=1,
                             cache=ResultCache(tmp_path / "a")).run()
        sharded = SweepRunner(spec, n_workers=4,
                              cache=ResultCache(tmp_path / "b")).run()
        assert serial.stats.evaluated == sharded.stats.evaluated == len(spec)
        for a, b in zip(serial.rows, sharded.rows):
            assert a.point == b.point
            assert a.metrics == b.metrics  # exact float equality

    def test_sharded_figure8_matches_evaluator_bit_identically(self, tmp_path):
        """Acceptance: n_workers=4 reproduces SystemEvaluator.figure8()."""
        evaluator = SystemEvaluator(
            sample_images=SAMPLE, quality=QUALITY,
        )
        expected = evaluator.figure8()
        result = SweepRunner(
            figure8_spec(sample_images=SAMPLE, quality=QUALITY),
            n_workers=4, cache=ResultCache(tmp_path),
        ).run()
        assert [r.point.cell_type for r in result.rows] == list(ALL_CELLS)
        for got, want in zip(result.figure8_rows(), expected):
            assert got.cell_type == want.cell_type
            assert got.metrics == want.metrics  # bit-identical

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            SweepRunner(small_spec(), n_workers=0)


@pytest.mark.store
class TestCache:
    def test_warm_cache_skips_every_evaluation(self, tmp_path):
        """Acceptance: warm figure-8 re-run does zero network evaluations."""
        spec = figure8_spec(sample_images=SAMPLE, quality=QUALITY)
        cache = ResultCache(tmp_path)
        cold = SweepRunner(spec, cache=cache).run()
        assert cold.stats.evaluated == len(spec)
        assert cold.stats.cache_hits == 0
        warm = SweepRunner(spec, cache=ResultCache(tmp_path)).run()
        assert warm.stats.evaluated == 0
        assert warm.stats.cache_hits == len(spec)
        for a, b in zip(cold.rows, warm.rows):
            assert a.metrics == b.metrics  # cache round-trip is lossless
            assert not a.cached and b.cached

    def test_overlapping_sweep_reuses_shared_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(vprech_spec(sample_images=SAMPLE, quality=QUALITY),
                    cache=cache).run()
        fig8 = SweepRunner(figure8_spec(sample_images=SAMPLE, quality=QUALITY),
                           cache=cache).run()
        # The 1RW+4R@500mV point is shared between the two grids.
        assert fig8.stats.cache_hits == 1
        assert fig8.stats.evaluated == 4

    def test_cache_invalidates_when_weights_change(self, tmp_path, fast_model):
        cache = ResultCache(tmp_path)
        spec = small_spec(cells=(CellType.C1RW4R,))
        snn_a = fast_model.snn
        run_a = SweepRunner(spec, cache=cache, snn=snn_a).run()
        assert run_a.stats.evaluated == 1

        # Flip one weight bit: a different network must be a cache miss.
        weights = [w.copy() for w in snn_a.weights]
        weights[0][0, 0] ^= 1
        snn_b = ConvertedSNN(weights=weights, thresholds=snn_a.thresholds,
                             output_bias=snn_a.output_bias)
        assert weights_fingerprint(snn_a) != weights_fingerprint(snn_b)
        run_b = SweepRunner(spec, cache=cache, snn=snn_b).run()
        assert run_b.stats.evaluated == 1
        assert run_b.stats.cache_hits == 0
        # And the original still hits.
        run_a2 = SweepRunner(spec, cache=cache, snn=snn_a).run()
        assert run_a2.stats.cache_hits == 1

    def test_cache_invalidates_when_config_changes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec_8 = small_spec(cells=(CellType.C6T,), sample_images=8)
        spec_4 = small_spec(cells=(CellType.C6T,), sample_images=4)
        SweepRunner(spec_8, cache=cache).run()
        changed = SweepRunner(spec_4, cache=cache).run()
        assert changed.stats.evaluated == 1
        assert changed.stats.cache_hits == 0

    def test_point_key_depends_on_every_field(self, fast_model):
        fp = weights_fingerprint(fast_model.snn)
        base = DesignPoint(cell_type=CellType.C6T, quality=QUALITY)
        keys = {entry_key("sweep", base.to_dict(), fp)}
        for variant in (
            dataclasses.replace(base, cell_type=CellType.C1RW4R),
            dataclasses.replace(base, vprech=0.6),
            dataclasses.replace(base, sample_images=16),
            dataclasses.replace(base, engine="cycle"),
            dataclasses.replace(base, seed=7),
            dataclasses.replace(base, node="5nm"),
            dataclasses.replace(base, corner="slow"),
        ):
            keys.add(entry_key("sweep", variant.to_dict(), fp))
        keys.add(entry_key("sweep", base.to_dict(), "0" * 64))
        assert len(keys) == 9

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec(cells=(CellType.C6T,))
        first = SweepRunner(spec, cache=cache).run()
        assert first.stats.evaluated == 1
        cache.store.close()
        (tmp_path / STORE_FILENAME).write_bytes(b"{not a database")
        again = SweepRunner(spec, cache=ResultCache(tmp_path)).run()
        assert again.stats.evaluated == 1  # corrupt store re-evaluated

    def test_cache_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(small_spec(), cache=cache).run()
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestStore:
    def test_json_roundtrip_is_lossless(self, tmp_path):
        result = SweepRunner(small_spec(), cache=None).run()
        loaded = SweepResult.from_json(result.to_json(tmp_path / "r.json"))
        assert loaded.spec_name == result.spec_name
        assert loaded.stats.evaluated == result.stats.evaluated
        for a, b in zip(loaded.rows, result.rows):
            assert a.point == b.point
            assert a.metrics == b.metrics

    def test_csv_export(self, tmp_path):
        result = SweepRunner(small_spec(), cache=None).run()
        path = result.to_csv(tmp_path / "r.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(result.rows)
        header = lines[0].split(",")
        for column in ("cell_type", "vprech", "engine",
                       "throughput_minf_s", "energy_per_inf_pj"):
            assert column in header

    def test_empty_csv_export_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="rows"):
            SweepResult(spec_name="empty").to_csv(tmp_path / "r.csv")

    def test_claims_recomputed_from_cached_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = figure8_spec(sample_images=SAMPLE, quality=QUALITY)
        SweepRunner(spec, cache=cache).run()
        warm = SweepRunner(spec, cache=cache).run()
        assert warm.stats.evaluated == 0
        claims = warm.headline_claims()
        assert claims.speedup_vs_1rw > 1.0
        assert claims.energy_efficiency_vs_1rw > 1.0
        assert np.isnan(claims.accuracy)

    def test_render_mentions_cache_state(self):
        result = SweepRunner(small_spec(), cache=None).run()
        text = result.render()
        assert "small" in text and "eval" in text


class TestHardwareFidelity:
    def test_clock_pinned_point_evaluates_at_the_pinned_clock(self, fast_model):
        """The clock override must survive the whole evaluation path."""
        from repro.hw import HardwareConfig
        from repro.sweep import evaluate_point

        base = DesignPoint(cell_type=CellType.C1RW4R, quality=QUALITY,
                           sample_images=2)
        pinned = DesignPoint(
            hardware=HardwareConfig(clock_period_ns=2.0),
            quality=QUALITY, sample_images=2,
        )
        nominal = evaluate_point(base, fast_model.snn)
        overridden = evaluate_point(pinned, fast_model.snn)
        assert overridden.clock_period_ns == 2.0
        assert nominal.clock_period_ns != overridden.clock_period_ns

    def test_claims_on_corner_grid_use_the_nominal_group(self):
        """A node/corner grid derives claims at 3nm/typical, not at
        whichever group happens to sort last."""
        from repro.sweep.results import SweepRow
        from repro.system.energy import SystemMetrics

        def metrics(label, t_ns):
            return SystemMetrics(
                cell_type_label=label, clock_period_ns=1.0,
                cycles_per_inference=t_ns, latency_ns=t_ns,
                inference_time_ns=t_ns, dynamic_energy_pj=100.0,
                clock_energy_pj=10.0, leakage_energy_pj=10.0,
                area_um2=1000.0,
            )

        rows = []
        # 3nm/typical: 3x speedup; 5nm/fast: 5x speedup.
        for node, corner, base_t, best_t in (
            ("3nm", "typical", 30.0, 10.0), ("5nm", "fast", 50.0, 10.0),
        ):
            for cell, t in ((CellType.C6T, base_t), (CellType.C1RW4R, best_t)):
                point = DesignPoint(cell_type=cell, node=node, corner=corner,
                                    quality=QUALITY)
                rows.append(SweepRow(point=point,
                                     metrics=metrics(cell.value, t)))
        result = SweepResult(spec_name="corners", rows=rows)
        assert result.claims_group() == ("3nm", "typical")
        assert result.headline_claims().speedup_vs_1rw == pytest.approx(3.0)
        assert result.headline_claims(
            node="5nm", corner="fast"
        ).speedup_vs_1rw == pytest.approx(5.0)
        # A partial override fills the missing half with the nominal
        # default instead of mixing corners: there are no 5nm/typical
        # rows here, so this must fail loudly, not report 5nm/fast.
        with pytest.raises(ConfigurationError):
            result.headline_claims(node="5nm")


class TestEarlyEngineValidation:
    def test_evaluate_cell_rejects_unknown_engine_before_simulation(
            self, fast_model):
        evaluator = SystemEvaluator(
            sample_images=2, snn=fast_model.snn,
        )
        with pytest.raises(ConfigurationError, match="engine"):
            evaluator.evaluate_cell(CellType.C6T, engine="fats")


class TestCli:
    def test_list(self, capsys):
        assert sweep_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in NAMED_SWEEPS:
            assert name in out

    def test_named_run_with_outputs(self, tmp_path, capsys):
        code = sweep_main([
            "vprech", "--sample-images", "4", "--quality", QUALITY,
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "v.json"),
            "--csv", str(tmp_path / "v.csv"),
        ])
        assert code == 0
        assert (tmp_path / "v.json").exists()
        assert (tmp_path / "v.csv").exists()
        out = capsys.readouterr().out
        assert "sweep 'vprech'" in out
        loaded = SweepResult.from_json(tmp_path / "v.json")
        assert len(loaded.rows) == 4

    def test_corner_flags_narrow_the_corners_sweep(self, tmp_path, capsys):
        """Explicit --node/--corner restrict the swept grid rather than
        being silently dropped."""
        code = sweep_main([
            "corners", "--sample-images", "2", "--quality", QUALITY,
            "--node", "3nm", "--corner", "slow",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(2 evaluated" in out
        assert "slow" in out
        assert "5nm" not in out
        assert "typical" not in out

    def test_config_file_pin_narrows_the_corners_sweep(self, tmp_path, capsys):
        """A value pinned via --config narrows a swept axis exactly like
        the explicit flag does."""
        import json

        from repro.hw import HardwareConfig

        cfg = tmp_path / "hw.json"
        cfg.write_text(json.dumps(HardwareConfig(corner="slow").to_dict()))
        code = sweep_main([
            "corners", "--sample-images", "2", "--quality", QUALITY,
            "--node", "3nm", "--config", str(cfg),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # --node flag + --config corner pin: 2 cells x 1 node x 1 corner.
        assert "(2 evaluated" in out
        assert "| slow" in out
        assert "| typical" not in out

    def test_claims_on_non_figure8_sweep_fails_cleanly(self, tmp_path, capsys):
        code = sweep_main([
            "vprech", "--sample-images", "4", "--quality", QUALITY,
            "--cache-dir", str(tmp_path), "--claims",
        ])
        assert code == 1
        assert "figure-8" in capsys.readouterr().err
