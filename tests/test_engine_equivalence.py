"""Fast-engine equivalence: batched schedule vs cycle-accurate reference.

The fast engine must be *indistinguishable* from the per-cycle
simulator: same predictions, same per-tile count records and the same
energies to the last bit, across cell types, Vprech regimes (cycle
stretch 1 and 2) and temporal mode.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core.esam import EsamSystem
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import CellType
from repro.tile.network import EsamNetwork, InferenceTrace

#: Layer stack crossing both row-block (160 > 128) and col-block
#: (130 > 128) boundaries, so partial blocks are exercised.
LAYER_SIZES = (160, 130, 10)

CELLS = [CellType.C6T, CellType.C1RW2R, CellType.C1RW4R]
VPRECHS = [0.5, 0.4]


def make_network(cell_type: CellType, vprech: float,
                 seed: int = 7) -> EsamNetwork:
    rng = np.random.default_rng(seed)
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])
    ]
    thresholds = [
        rng.integers(0, max(2, a // 8), b)
        for a, b in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])
    ]
    bias = rng.normal(0.0, 0.5, LAYER_SIZES[-1])
    return EsamNetwork(
        weights, thresholds, output_bias=bias,
        config=HardwareConfig(cell_type=cell_type, vprech=vprech),
    )


def sample_spikes(rng, images: int = 6) -> np.ndarray:
    return rng.random((images, LAYER_SIZES[0])) < 0.3


def assert_hardware_state_equal(fast: EsamNetwork, cycle: EsamNetwork) -> None:
    """Every count record, membrane and energy must match exactly."""
    for tf, tc in zip(fast.tiles, cycle.tiles):
        assert tf.stats == tc.stats
        assert tf.inference_energy_pj() == tc.inference_energy_pj()
        for nf, nc in zip(tf.neurons, tc.neurons):
            assert np.array_equal(nf.vmem, nc.vmem)
    assert fast.dynamic_energy_pj() == cycle.dynamic_energy_pj()


class TestBatchedInferenceEquivalence:
    @pytest.mark.parametrize("cell_type", CELLS, ids=[c.value for c in CELLS])
    @pytest.mark.parametrize("vprech", VPRECHS)
    def test_trace_and_energy_identical(self, cell_type, vprech, rng):
        spikes = sample_spikes(rng)
        fast_net = make_network(cell_type, vprech)
        cycle_net = make_network(cell_type, vprech)

        fast_trace = InferenceTrace()
        fast_scores = fast_net.infer_batch(spikes, fast_trace, engine="fast")
        cycle_trace = InferenceTrace()
        cycle_scores = np.stack(
            [cycle_net.infer(row, cycle_trace) for row in spikes]
        )

        assert np.array_equal(fast_scores, cycle_scores)
        assert fast_trace.images == cycle_trace.images
        assert fast_trace.per_tile_cycles == cycle_trace.per_tile_cycles
        assert fast_trace.total_spikes == cycle_trace.total_spikes
        assert fast_trace.total_grants == cycle_trace.total_grants
        assert fast_trace.total_array_reads == cycle_trace.total_array_reads
        assert_hardware_state_equal(fast_net, cycle_net)

    def test_vprech_regimes_cover_both_cycle_stretches(self):
        """0.5 V vs 0.4 V on the 4-port cell spans stretch 1 and 2."""
        stretches = {
            make_network(CellType.C1RW4R, vprech).cycle_stretch
            for vprech in VPRECHS
        }
        assert stretches == {1, 2}

    def test_classify_batch_matches_sequential_classify(self, rng):
        spikes = sample_spikes(rng, images=10)
        net = make_network(CellType.C1RW4R, 0.5)
        fast_preds = net.classify_batch(spikes, engine="fast")
        cycle_preds = np.array([net.classify(row) for row in spikes])
        assert np.array_equal(fast_preds, cycle_preds)

    def test_cycle_engine_reachable_through_batched_api(self, rng):
        spikes = sample_spikes(rng, images=3)
        net_a = make_network(CellType.C1RW2R, 0.5)
        net_b = make_network(CellType.C1RW2R, 0.5)
        via_batch = net_a.infer_batch(spikes, engine="cycle")
        direct = np.stack([net_b.infer(row) for row in spikes])
        assert np.array_equal(via_batch, direct)
        assert_hardware_state_equal(net_a, net_b)

    def test_unknown_engine_rejected(self, rng):
        net = make_network(CellType.C1RW4R, 0.5)
        with pytest.raises(ConfigurationError):
            net.infer_batch(sample_spikes(rng), engine="warp")

    def test_fast_engine_cached_and_refreshable(self):
        net = make_network(CellType.C1RW4R, 0.5)
        first = net.engine_backend("fast")
        assert net.engine_backend("fast") is first
        tile = net.tiles[0]
        flipped = 1 - tile.weight_matrix()
        for rb in range(tile.mapping.row_blocks):
            for cb in range(tile.mapping.col_blocks):
                tile.macros[rb][cb].load_weights(
                    tile.mapping.block_weights(flipped, rb, cb)
                )
        refreshed = net.engine_backend("fast", refresh=True)
        assert refreshed is not first
        assert np.array_equal(
            refreshed._kernels[0].signed, 2.0 * flipped.astype(np.float64) - 1.0
        )

    @pytest.mark.parametrize("engine", ["fast", "bitpacked"])
    def test_a_network_that_ran_a_batch_needs_no_collector(self, engine,
                                                           rng):
        """A network caches its engines, and the engine keeps the tiles
        and the output bias, not the network: with the cyclic collector
        off, the network is gone once its last name is deleted, and an
        engine kept on its own still runs."""
        spikes = sample_spikes(rng)
        enabled = gc.isenabled()
        gc.disable()
        try:
            net = make_network(CellType.C1RW4R, 0.5)
            expected = net.classify_batch(spikes, engine=engine)
            freed = weakref.ref(net)
            del net
            assert freed() is None
            kept = make_network(CellType.C1RW4R, 0.5).engine_backend(engine)
            assert np.array_equal(kept.classify_batch(spikes), expected)
        finally:
            if enabled:
                gc.enable()


class TestTemporalEquivalence:
    @pytest.mark.parametrize("cell_type", [CellType.C1RW4R, CellType.C6T],
                             ids=["1RW+4R", "1RW"])
    def test_persistent_membranes_identical(self, cell_type, rng):
        trains = rng.random((6, LAYER_SIZES[0])) < 0.25
        fast_net = make_network(cell_type, 0.5)
        cycle_net = make_network(cell_type, 0.5)

        fast_result = fast_net.run_temporal(trains, engine="fast")
        cycle_result = cycle_net.run_temporal(trains, engine="cycle")

        assert np.array_equal(fast_result.spike_counts, cycle_result.spike_counts)
        assert np.array_equal(fast_result.final_vmem, cycle_result.final_vmem)
        assert np.array_equal(
            fast_result.hidden_spike_totals, cycle_result.hidden_spike_totals
        )
        # Membranes persist identically in the hardware state, so the
        # engines are interchangeable mid-run.
        for tf, tc in zip(fast_net.tiles, cycle_net.tiles):
            assert np.array_equal(
                tf.membrane_potentials(), tc.membrane_potentials()
            )
        assert_hardware_state_equal(fast_net, cycle_net)

    @pytest.mark.parametrize("order", ["fast-then-cycle", "cycle-then-fast"])
    def test_engines_interchangeable_mid_temporal_run(self, order, rng):
        """Either engine resumes from the other's persisted membranes."""
        first, second = order.split("-then-")
        trains = rng.random((4, LAYER_SIZES[0])) < 0.25
        mixed = make_network(CellType.C1RW4R, 0.5)
        pure = make_network(CellType.C1RW4R, 0.5)
        mixed.run_temporal(trains[:2], engine=first)
        mixed_result = mixed.run_temporal(trains[2:], engine=second)
        pure.run_temporal(trains[:2], engine="cycle")
        pure_result = pure.run_temporal(trains[2:], engine="cycle")
        assert np.array_equal(
            mixed_result.spike_counts, pure_result.spike_counts
        )
        assert np.array_equal(
            mixed_result.final_vmem, pure_result.final_vmem
        )
        assert_hardware_state_equal(mixed, pure)


class TestSaturationExactness:
    def test_fan_in_beyond_vmem_rail_stays_exact(self, rng):
        """A layer wide enough to rail mid-drain falls back to the
        grant-ordered exact path and still matches the reference."""
        weights = [rng.integers(0, 2, (2100, 8)).astype(np.uint8)]
        thresholds = [rng.integers(0, 16, 8)]
        spikes = rng.random((3, 2100)) < 0.9  # dense: partial sums rail out
        fast_net = EsamNetwork(weights, thresholds)
        cycle_net = EsamNetwork(weights, thresholds)
        fast_scores = fast_net.infer_batch(spikes, engine="fast")
        cycle_scores = np.stack([cycle_net.infer(row) for row in spikes])
        assert np.array_equal(fast_scores, cycle_scores)
        assert_hardware_state_equal(fast_net, cycle_net)

    def test_temporal_membranes_pinned_at_rail_stay_exact(self, rng):
        """Persistent membranes near +2047 (unreachable thresholds)
        saturate mid-drain; the engines must still agree.

        The last rows carry -1 weights, so at the rail the per-cycle
        reference clips *before* subtracting them — the case a single
        end-of-drain clip gets wrong without the grant-order fallback.
        """
        weights = [np.ones((64, 6), dtype=np.uint8)]
        weights[0][56:, :] = 0                 # trailing -1 contributions
        thresholds = [np.full(6, 10_000)]      # beyond the rail: never fire
        trains = rng.random((60, 64)) < 0.9
        fast_net = EsamNetwork(weights, thresholds)
        cycle_net = EsamNetwork(weights, thresholds)
        fast_result = fast_net.run_temporal(trains, engine="fast")
        cycle_result = cycle_net.run_temporal(trains, engine="cycle")
        assert np.max(cycle_result.final_vmem) > 1983  # saturation reached
        assert np.array_equal(fast_result.final_vmem, cycle_result.final_vmem)
        assert_hardware_state_equal(fast_net, cycle_net)

    def test_static_inference_after_temporal_residue_stays_exact(self, rng):
        """Static batches accumulate on top of residual temporal charge
        (first image only) and leave all membranes cleared — in both
        engines."""
        trains = rng.random((3, LAYER_SIZES[0])) < 0.25
        spikes = sample_spikes(rng, images=4)
        fast_net = make_network(CellType.C1RW4R, 0.5)
        cycle_net = make_network(CellType.C1RW4R, 0.5)
        fast_net.run_temporal(trains, engine="cycle")   # leaves residue
        cycle_net.run_temporal(trains, engine="cycle")
        fast_scores = fast_net.infer_batch(spikes, engine="fast")
        cycle_scores = np.stack([cycle_net.infer(row) for row in spikes])
        assert np.array_equal(fast_scores, cycle_scores)
        assert_hardware_state_equal(fast_net, cycle_net)


class TestSystemFacadeEquivalence:
    def test_classify_spikes_engines_produce_identical_reports(self, rng):
        system = EsamSystem.from_random((96, 48, 10), seed=3)
        spikes = rng.random((8, 96)) < 0.3
        fast = system.classify_spikes(spikes, engine="fast")
        cycle = system.classify_spikes(spikes, engine="cycle")
        assert np.array_equal(fast.predictions, cycle.predictions)
        assert dataclasses.asdict(fast.report.metrics) == dataclasses.asdict(
            cycle.report.metrics
        )

    def test_unknown_engine_rejected(self, rng):
        system = EsamSystem.from_random((96, 48, 10), seed=3)
        with pytest.raises(ConfigurationError):
            system.classify_spikes(rng.random((2, 96)) < 0.3, engine="nope")

    def test_fault_injection_invalidates_cached_fast_engine(self, rng):
        """In-place bit flips must reach the default fast path."""
        from repro.sram.faults import FaultInjector

        net = make_network(CellType.C1RW4R, 0.5)
        spikes = sample_spikes(rng, images=4)
        net.classify_batch(spikes)  # caches the fast engine
        injector = FaultInjector(
            [t.weight_matrix() for t in net.tiles],
            [np.concatenate([n.thresholds for n in t.neurons]) for t in net.tiles],
        )
        flips = injector.apply_trial(net, 0.05, trial=0)
        assert flips > 0
        fast = net.infer_batch(spikes, engine="fast")
        cycle = np.stack([net.infer(row) for row in spikes])
        assert np.array_equal(fast, cycle)

    def test_online_learning_invalidates_cached_fast_engine(self, rng):
        """STDP weight writes must not leave a stale weight snapshot
        behind the default fast path."""
        system = EsamSystem.from_random((96, 48, 10), seed=5)
        spikes = rng.random((6, 96)) < 0.3
        system.classify_spikes(spikes)  # caches the fast engine
        learner = system.online_learning_engine(layer=0)
        learner.learn(rng.random(96) < 0.5, np.arange(48))
        engine = system.network.engine_backend("fast")
        current = system.network.tiles[0].weight_matrix()
        assert np.array_equal(
            engine._kernels[0].signed, 2.0 * current.astype(np.float64) - 1.0
        )
        fast = system.classify_spikes(spikes, engine="fast")
        cycle = system.classify_spikes(spikes, engine="cycle")
        assert np.array_equal(fast.predictions, cycle.predictions)
