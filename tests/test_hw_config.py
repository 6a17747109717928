"""The hardware description layer: HardwareConfig and its threading.

Covers the satellite contracts of the config refactor: lossless
``to_dict``/``from_dict`` round-trips across every cell/node/corner,
hashability and value equality, the single shared Vprech validator, the
golden sweep-cache-key pin (so future refactors cannot silently
invalidate on-disk caches), and the corner/node threading through the
macro -> tile -> network stack.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from repro import EsamSystem, HardwareConfig, validate_vprech
from repro.errors import ConfigurationError
from repro.hw.cli import add_hardware_arguments, hardware_from_args
from repro.hw.config import PAPER_LAYER_SIZES
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.sram.macro import SramMacro
from repro.tech.constants import IMEC_3NM, IMEC_5NM, TECHNOLOGY_NODES
from repro.tech.corners import PROCESS_CORNERS
from repro.tile.network import EsamNetwork
from repro.tile.tile import Tile

#: Pinned SHA-256 of the paper design point's sweep-cache key under an
#: all-'f' weights fingerprint.  If this changes, every on-disk sweep
#: cache in the wild silently invalidates — bump CACHE_VERSION and this
#: constant together, deliberately.
GOLDEN_PAPER_POINT_KEY = (
    "8420ee8a18609af18456fa6ed76ac6b9e62400f4298b8d439ba7f1d7dac1165a"
)

#: The same pin for the paper point's fault-campaign entry
#: (``FaultPoint(hardware=HardwareConfig())`` under ``kind="reliability"``).
GOLDEN_PAPER_FAULT_POINT_KEY = (
    "2909eda8b597bf34bfb72f8a45d7a6372fc870188fdabf6ee7605dea316a1aff"
)

#: Hardware with every field off its default, behind the two
#: non-default point pins below.
OFF_DEFAULT_HARDWARE = dict(
    cell_type=CellType.C1RW2R, vprech=0.6, node="5nm", corner="slow",
    layer_sizes=(768, 128, 10), clock_period_ns=2.5, seed=7,
)

#: ``to_dict()`` of :data:`OFF_DEFAULT_HARDWARE`, in key order: stored
#: cache entries, ``--out`` files and CSV columns are written in it.
OFF_DEFAULT_HARDWARE_ITEMS = [
    ("cell_type", "1RW+2R"), ("vprech", 0.6), ("node", "5nm"),
    ("corner", "slow"), ("layer_sizes", [768, 128, 10]),
    ("clock_period_ns", 2.5), ("seed", 7),
]

#: Cache keys of a design point and a fault point with every field off
#: its default, under an all-'f' weights fingerprint.
GOLDEN_OFF_DEFAULT_POINT_KEY = (
    "625d657324a464472115f5afcc97386cceed921c02c2755ce50e7f4231b81a1f"
)
GOLDEN_OFF_DEFAULT_FAULT_POINT_KEY = (
    "dd05f4963a7d4121e703b4b42739dd0eb40230d70c7e13192477ece2ff6c83d4"
)


def tiny_network(config: HardwareConfig) -> EsamNetwork:
    import numpy as np

    weights = [np.eye(8, dtype=np.uint8)]
    thresholds = [np.zeros(8)]
    return EsamNetwork(weights, thresholds, config=config)


class TestValidation:
    def test_defaults_are_the_paper_point(self):
        config = HardwareConfig()
        assert config.cell_type is CellType.C1RW4R
        assert config.vprech == 0.500
        assert config.node == "3nm"
        assert config.corner == "typical"
        assert config.layer_sizes == PAPER_LAYER_SIZES
        assert config.clock_period_ns is None
        assert config.seed == 42

    def test_vprech_validator_is_shared_and_single(self):
        with pytest.raises(ConfigurationError, match="vprech out of range"):
            validate_vprech(0.9)
        with pytest.raises(ConfigurationError, match="vprech out of range"):
            HardwareConfig(vprech=0.9)
        # Against an explicit supply: 0.72 is legal on the 750 mV node
        # but out of range on the paper's 700 mV node.
        assert validate_vprech(0.72, IMEC_5NM.vdd) == 0.72
        assert HardwareConfig(vprech=0.72, node="5nm").vprech == 0.72
        with pytest.raises(ConfigurationError, match="vprech out of range"):
            HardwareConfig(vprech=0.72, node="3nm")

    def test_rejects_unknown_node_and_corner(self):
        with pytest.raises(ConfigurationError, match="node"):
            HardwareConfig(node="7nm")
        with pytest.raises(ConfigurationError, match="corner"):
            HardwareConfig(corner="blazing")

    def test_rejects_bad_cell_layer_sizes_clock_seed(self):
        with pytest.raises(ConfigurationError, match="cell_type"):
            HardwareConfig(cell_type="1RW+4R")
        with pytest.raises(ConfigurationError, match="layer"):
            HardwareConfig(layer_sizes=(128,))
        with pytest.raises(ConfigurationError, match="layer"):
            HardwareConfig(layer_sizes=(128, 0))
        with pytest.raises(ConfigurationError, match="clock_period_ns"):
            HardwareConfig(clock_period_ns=0.0)
        with pytest.raises(ConfigurationError, match="seed"):
            HardwareConfig(seed="forty-two")

    def test_layer_sizes_canonicalized_to_int_tuple(self):
        config = HardwareConfig(layer_sizes=[16, 8])
        assert config.layer_sizes == (16, 8)
        assert all(isinstance(s, int) for s in config.layer_sizes)


class TestRoundTripAndHashing:
    @pytest.mark.parametrize("cell", ALL_CELLS)
    @pytest.mark.parametrize("node", sorted(TECHNOLOGY_NODES))
    @pytest.mark.parametrize("corner", sorted(PROCESS_CORNERS))
    def test_dict_roundtrip_identity(self, cell, node, corner):
        config = HardwareConfig(
            cell_type=cell, vprech=0.45, node=node, corner=corner,
            layer_sizes=(32, 16, 10), seed=7,
        )
        restored = HardwareConfig.from_dict(config.to_dict())
        assert restored == config
        assert hash(restored) == hash(config)
        # And via an actual JSON wire format.
        assert HardwareConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        ) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            HardwareConfig.from_dict({"cell": "1RW+4R"})

    def test_from_dict_rejects_unknown_cell_name(self):
        with pytest.raises(ConfigurationError, match="cell_type"):
            HardwareConfig.from_dict({"cell_type": "9T"})

    def test_equality_is_by_value(self):
        assert HardwareConfig() == HardwareConfig()
        assert HardwareConfig() != HardwareConfig(corner="slow")
        assert len({HardwareConfig(), HardwareConfig(),
                    HardwareConfig(node="5nm")}) == 2

    def test_replace_revalidates(self):
        with pytest.raises(ConfigurationError, match="vprech"):
            HardwareConfig().replace(vprech=2.0)

    def test_label_and_repr(self):
        config = HardwareConfig(node="5nm", corner="slow")
        assert config.label == "1RW+4R@500mV/5nm/slow"
        assert "5nm" in repr(config)

    def test_json_file_loading(self, tmp_path):
        path = tmp_path / "hw.json"
        config = HardwareConfig(cell_type=CellType.C1RW1R, corner="fast")
        path.write_text(json.dumps(config.to_dict()))
        assert HardwareConfig.from_json(path) == config
        with pytest.raises(ConfigurationError, match="JSON"):
            (tmp_path / "bad.json").write_text("{nope")
            HardwareConfig.from_json(tmp_path / "bad.json")
        with pytest.raises(ConfigurationError, match="read"):
            HardwareConfig.from_json(tmp_path / "missing.json")

    @pytest.mark.parametrize("clock", ["NaN", "Infinity", "-Infinity"])
    def test_json_rejects_a_clock_that_is_not_finite(self, tmp_path,
                                                     clock):
        """``json.load`` reads these tokens as floats; a NaN clock
        priced every evaluation at NaN, an infinite one at 0 MInf/s."""
        path = tmp_path / "hw.json"
        path.write_text(f'{{"clock_period_ns": {clock}}}')
        with pytest.raises(ConfigurationError, match="finite"):
            HardwareConfig.from_json(path)


class TestGoldenCacheKey:
    def test_paper_point_cache_key_is_pinned(self):
        """Golden key: changing the derivation invalidates on-disk caches."""
        from repro.sweep import DesignPoint, entry_key

        point = DesignPoint(hardware=HardwareConfig())
        assert point.to_dict() == {
            "cell_type": "1RW+4R", "vprech": 0.5, "node": "3nm",
            "corner": "typical", "layer_sizes": [768, 256, 256, 256, 10],
            "clock_period_ns": None, "sample_images": 64, "engine": "fast",
            "quality": "full", "seed": 42,
        }
        assert (entry_key("sweep", point.to_dict(), "f" * 64)
                == GOLDEN_PAPER_POINT_KEY)

    def test_paper_fault_point_cache_key_is_pinned(self):
        from repro.reliability import FaultPoint
        from repro.sweep import entry_key

        point = FaultPoint(hardware=HardwareConfig())
        assert entry_key("reliability", point.to_dict(), "f" * 64) == \
            GOLDEN_PAPER_FAULT_POINT_KEY

    def test_off_default_design_point_is_pinned(self):
        from repro.sweep import DesignPoint, entry_key

        point = DesignPoint(hardware=HardwareConfig(**OFF_DEFAULT_HARDWARE),
                            sample_images=16, engine="cycle",
                            quality="fast")
        assert list(point.to_dict().items()) == OFF_DEFAULT_HARDWARE_ITEMS + [
            ("sample_images", 16), ("engine", "cycle"), ("quality", "fast"),
        ]
        assert (entry_key("sweep", point.to_dict(), "f" * 64)
                == GOLDEN_OFF_DEFAULT_POINT_KEY)
        assert DesignPoint.from_dict(point.to_dict()) == point

    def test_off_default_fault_point_is_pinned(self):
        from repro.reliability import FaultPoint
        from repro.sweep import entry_key

        point = FaultPoint(hardware=HardwareConfig(**OFF_DEFAULT_HARDWARE),
                           bit_error_rate=1e-3, trials=3, trial_start=5,
                           sample_images=16, engine="cycle", quality="fast")
        assert list(point.to_dict().items()) == OFF_DEFAULT_HARDWARE_ITEMS + [
            ("bit_error_rate", 1e-3), ("trials", 3), ("trial_start", 5),
            ("sample_images", 16), ("engine", "cycle"), ("quality", "fast"),
        ]
        assert (entry_key("reliability", point.to_dict(), "f" * 64)
                == GOLDEN_OFF_DEFAULT_FAULT_POINT_KEY)
        assert FaultPoint.from_dict(point.to_dict()) == point

    @pytest.mark.parametrize("kind", ["sweep", "reliability"])
    def test_runner_writes_its_entry_under_the_entry_key(self, kind,
                                                         tmp_path):
        """Each campaign runner commits a point's row under
        ``entry_key(kind, point.to_dict(), weights_fingerprint(snn))``,
        with ``kind`` and ``fingerprint`` stored beside the row."""
        from repro.learning.pretrained import get_reference_model
        from repro.reliability import FaultCampaignSpec, ReliabilityRunner
        from repro.sweep import (
            ResultCache, SweepRunner, SweepSpec, entry_key,
            weights_fingerprint,
        )

        if kind == "sweep":
            runner = SweepRunner(
                SweepSpec(name="key", cell_types=(CellType.C1RW4R,),
                          sample_images=(2,), quality="fast"),
                cache=ResultCache(tmp_path),
            )
        else:
            runner = ReliabilityRunner(
                FaultCampaignSpec(name="key", bit_error_rates=(1e-3,),
                                  trials=1, sample_images=2,
                                  quality="fast"),
                cache=ResultCache(tmp_path),
            )
        (point,) = runner.spec.expand()
        fingerprint = weights_fingerprint(
            get_reference_model("fast", point.seed).snn
        )
        key = entry_key(kind, point.to_dict(), fingerprint)
        result = runner.run()
        assert result.stats.evaluated == 1
        assert len(runner.cache) == 1 and key in runner.cache
        stored = runner.cache.get(key)
        assert stored["kind"] == kind
        assert stored["fingerprint"] == fingerprint
        assert stored["point"] == point.to_dict()

    def test_clock_override_changes_the_key_and_the_evaluation(self):
        """A clock-pinned point must not alias the nominal point."""
        from repro.sweep import DesignPoint, entry_key

        nominal = DesignPoint(hardware=HardwareConfig())
        pinned = DesignPoint(hardware=HardwareConfig(clock_period_ns=2.0))
        assert nominal != pinned
        assert (entry_key("sweep", nominal.to_dict(), "f" * 64)
                != entry_key("sweep", pinned.to_dict(), "f" * 64))
        assert DesignPoint.from_dict(pinned.to_dict()) == pinned


def _campaign_point(kind: str, **fields):
    """A design point (``kind="sweep"``) or a fault point with ``fields``."""
    from repro.reliability import FaultPoint
    from repro.sweep import DesignPoint

    if kind == "sweep":
        return DesignPoint(cell_type=CellType.C6T, **fields)
    return FaultPoint(**fields)


class TestPointIntegerFields:
    """A point's integer fields accept any integer, numpy's included,
    and store a plain ``int``; anything else is a configuration error,
    never a silently different cache key or Monte-Carlo stream."""

    @pytest.mark.parametrize("kind", ["sweep", "reliability"])
    def test_numpy_integer_is_stored_as_int(self, kind):
        import numpy as np

        from repro.sweep import entry_key

        point = _campaign_point(kind, sample_images=np.int64(8))
        assert type(point.sample_images) is int
        assert (entry_key(kind, point.to_dict(), "f" * 64)
                == entry_key(kind, _campaign_point(
                    kind, sample_images=8).to_dict(), "f" * 64))

    @pytest.mark.parametrize("kind", ["sweep", "reliability"])
    @pytest.mark.parametrize("value", [8.0, 8.5, "8", True])
    def test_non_integer_sample_images_rejected(self, kind, value):
        with pytest.raises(ConfigurationError, match="sample_images"):
            _campaign_point(kind, sample_images=value)

    def test_numpy_trial_fields_are_stored_as_int(self):
        import numpy as np

        point = _campaign_point("reliability", trials=np.int32(3),
                                trial_start=np.uint8(2))
        assert (type(point.trials), type(point.trial_start)) == (int, int)
        assert point.trial_indices == range(2, 5)

    @pytest.mark.parametrize("field", ["trials", "trial_start"])
    @pytest.mark.parametrize("value", [2.9, 2.0, "2"])
    def test_non_integer_trial_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            _campaign_point("reliability", **{field: value})


class TestCornerPhysics:
    def test_typical_corner_is_exactly_neutral(self):
        typical = PROCESS_CORNERS["typical"]
        assert typical.delay_factor == 1.0
        assert typical.leakage_factor == 1.0

    def test_slow_fast_corner_ordering(self):
        slow = PROCESS_CORNERS["slow"]
        fast = PROCESS_CORNERS["fast"]
        assert slow.delay_factor > 1.0 > fast.delay_factor
        assert slow.leakage_factor < 1.0 < fast.leakage_factor


class TestThreading:
    @pytest.mark.parametrize("callee", [
        SramMacro, Tile, EsamNetwork, EsamSystem, EsamSystem.from_pretrained,
        EsamSystem.from_random,
    ], ids=lambda c: c.__qualname__)
    def test_config_is_the_only_hardware_argument(self, callee):
        parameters = inspect.signature(callee).parameters
        assert "config" in parameters
        assert not {"cell_type", "vprech", "node", "corner"} & set(parameters)

    def test_macro_defaults_to_the_paper_point(self):
        default = SramMacro(rows=16, cols=16)
        paper = SramMacro(config=HardwareConfig(), rows=16, cols=16)
        assert default.cell_type is CellType.C1RW4R
        assert default.vprech == paper.vprech == 0.500
        assert default.node is paper.node is IMEC_3NM
        assert default.leakage_power_mw == paper.leakage_power_mw

    def test_network_neurons_follow_the_config_cell(self):
        """A 6T network's neurons take one bitline input a cycle, and
        its clock takes the single-input update path."""
        import numpy as np
        from repro.neuron.if_neuron import neuron_add_time_ns

        weights = [np.eye(8, dtype=np.uint8)]
        net = EsamNetwork(weights, [np.zeros(8)],
                          config=HardwareConfig(cell_type=CellType.C6T))
        assert all(segment.ports == 1 for segment in net.tiles[0].neurons)
        pipeline = net.pipeline
        read_ns = pipeline.read_ports.read_time_ns(CellType.C6T)
        assert pipeline.sram_neuron_stage_ns(CellType.C6T) - read_ns \
            == pytest.approx(neuron_add_time_ns(1, multiport=False))

    def test_network_records_actual_topology(self):
        net = tiny_network(HardwareConfig())
        assert net.config.layer_sizes == (8, 8)

    def test_network_corner_scales_clock_and_leakage(self):
        base = tiny_network(HardwareConfig())
        slow = tiny_network(HardwareConfig(corner="slow"))
        fast = tiny_network(HardwareConfig(corner="fast"))
        spec = PROCESS_CORNERS["slow"]
        assert slow.clock_period_ns == pytest.approx(
            base.clock_period_ns * spec.delay_factor
        )
        assert fast.clock_period_ns < base.clock_period_ns
        assert slow.leakage_power_mw() < base.leakage_power_mw()
        assert fast.leakage_power_mw() > base.leakage_power_mw()

    def test_clock_override(self):
        pinned = tiny_network(HardwareConfig(clock_period_ns=2.0))
        assert pinned.clock_period_ns == 2.0
        derated = tiny_network(
            HardwareConfig(clock_period_ns=2.0, corner="slow")
        )
        assert derated.clock_period_ns == pytest.approx(
            2.0 * PROCESS_CORNERS["slow"].delay_factor
        )

    def test_node_threads_to_the_arrays(self):
        net_3 = tiny_network(HardwareConfig())
        net_5 = tiny_network(HardwareConfig(node="5nm"))
        assert net_3.tiles[0].macros[0][0].node is IMEC_3NM
        assert net_5.tiles[0].macros[0][0].node is IMEC_5NM
        # The 5nm 6T footprint is larger, so the macro area must grow.
        assert net_5.area_um2() > net_3.area_um2()


class TestSharedCliSurface:
    def _parse(self, argv, **kwargs):
        import argparse

        parser = argparse.ArgumentParser()
        add_hardware_arguments(parser, **kwargs)
        return parser.parse_args(argv)

    def test_defaults_resolve_to_paper_point(self):
        args = self._parse([])
        assert hardware_from_args(args) == HardwareConfig()

    def test_flag_overrides(self):
        args = self._parse([
            "--cell", "1RW+2R", "--vprech", "0.6",
            "--node", "5nm", "--corner", "slow",
        ])
        hardware = hardware_from_args(args, seed=7)
        assert hardware == HardwareConfig(
            cell_type=CellType.C1RW2R, vprech=0.6, node="5nm",
            corner="slow", seed=7,
        )

    def test_cell_choices_come_from_registry(self):
        with pytest.raises(SystemExit):
            self._parse(["--cell", "9T"])
        with pytest.raises(SystemExit):
            self._parse(["--node", "7nm"])
        with pytest.raises(SystemExit):
            self._parse(["--corner", "cryo"])

    def test_config_file_plus_override(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(
            HardwareConfig(cell_type=CellType.C6T, corner="slow",
                           seed=7).to_dict()
        ))
        args = self._parse(["--config", str(path), "--corner", "fast"])
        hardware = hardware_from_args(args)
        assert hardware.cell_type is CellType.C6T
        assert hardware.corner == "fast"
        # seed=None (flag not given) must not clobber the file's seed.
        assert hardware_from_args(args, seed=None).seed == 7
        assert hardware_from_args(args, seed=11).seed == 11

    def test_cell_flag_optional_for_sweep_clis(self):
        args = self._parse(["--node", "2nm"], cell=False)
        assert not hasattr(args, "cell")
        assert hardware_from_args(args).node == "2nm"


class TestDesignPointReplace:
    def test_dataclasses_replace_supports_hardware_fields(self):
        from repro.sweep import DesignPoint

        base = DesignPoint(cell_type=CellType.C6T, quality="fast")
        swapped = dataclasses.replace(base, corner="slow", node="5nm")
        assert swapped.corner == "slow"
        assert swapped.node == "5nm"
        assert swapped.cell_type is CellType.C6T
        assert swapped != base
