"""Cross-backend conformance: every engine vs the reference.

The engine-backend table (:mod:`repro.tile.backends`) promises that
every backend is *indistinguishable* from the per-cycle reference:
same predictions, same traces, same count records, same energies to
the last bit, same persisted membranes.  This suite enforces that promise
structurally — the ``backend`` fixture (tests/conftest.py)
parametrizes over :func:`repro.tile.backends.backend_names`, so a
backend added to the table runs through the full equivalence matrix
(cells x Vprech regimes x temporal mode x mid-run engine switching x
faulted weights) with zero test edits.

The dense-vs-cycle corner cases (mid-drain saturation, temporal
residue) stay in tests/test_engine_equivalence.py; this suite covers
the generic contract every backend must meet.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_engine_equivalence import (
    LAYER_SIZES,
    assert_hardware_state_equal,
    make_network,
    sample_spikes,
)

from repro.errors import ConfigurationError
from repro.sram.bitcell import CellType
from repro.system.energy import SystemEnergyModel
from repro.tile.backends import backend_factory, backend_names
from repro.tile.network import EsamNetwork, InferenceTrace

CELLS = [CellType.C6T, CellType.C1RW2R, CellType.C1RW4R]
VPRECHS = [0.5, 0.4]


def cycle_reference(spikes, cell_type=CellType.C1RW4R, vprech=0.5):
    """Scores + network after a sequential per-cycle run."""
    net = make_network(cell_type, vprech)
    trace = InferenceTrace()
    scores = np.stack([net.infer(row, trace) for row in spikes])
    return scores, net, trace


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"fast", "cycle", "bitpacked"} <= set(backend_names())

    def test_unknown_backend_rejected_with_full_list(self):
        with pytest.raises(ConfigurationError, match="fast"):
            backend_factory("fats")


class TestStaticConformance:
    @pytest.mark.parametrize("cell_type", CELLS, ids=[c.value for c in CELLS])
    @pytest.mark.parametrize("vprech", VPRECHS)
    def test_scores_traces_and_ledgers_match_reference(
            self, backend, cell_type, vprech, rng):
        spikes = sample_spikes(rng)
        ref_scores, ref_net, ref_trace = cycle_reference(
            spikes, cell_type, vprech
        )
        net = make_network(cell_type, vprech)
        trace = InferenceTrace()
        scores = net.infer_batch(spikes, trace, engine=backend)

        assert np.array_equal(scores, ref_scores)
        assert trace.images == ref_trace.images
        assert trace.per_tile_cycles == ref_trace.per_tile_cycles
        assert trace.total_spikes == ref_trace.total_spikes
        assert trace.total_grants == ref_trace.total_grants
        assert trace.total_array_reads == ref_trace.total_array_reads
        assert_hardware_state_equal(net, ref_net)

    def test_classify_batch_matches_sequential_classify(self, backend, rng):
        spikes = sample_spikes(rng, images=10)
        net = make_network(CellType.C1RW4R, 0.5)
        preds = net.classify_batch(spikes, engine=backend)
        sequential = np.array([net.classify(row) for row in spikes])
        assert np.array_equal(preds, sequential)

    def test_duplicate_batch_rows_score_identically(self, backend, rng):
        """Repeated spike patterns (the memoization hot path) must not
        diverge from their first occurrence."""
        base = sample_spikes(rng, images=3)
        spikes = np.concatenate([base, base[::-1], base])
        net = make_network(CellType.C1RW4R, 0.5)
        scores = net.infer_batch(spikes, engine=backend)
        assert np.array_equal(scores[:3], scores[3:6][::-1])
        assert np.array_equal(scores[:3], scores[6:9])

    def test_engine_instance_cached_per_backend(self, backend):
        net = make_network(CellType.C1RW4R, 0.5)
        first = net.engine_backend(backend)
        assert net.engine_backend(backend) is first
        assert net.engine_backend(backend, refresh=True) is not first


class TestTraceCounts:
    def test_trace_counts_only_its_own_batches(self, backend, rng):
        """The same rows give equal traces and equal metrics, bit for
        bit, on a fresh network and on one that served other rows
        before and between the traced batches."""
        rows = sample_spikes(rng, images=6)
        other = sample_spikes(rng, images=5)
        fresh = make_network(CellType.C1RW4R, 0.5)
        fresh_trace = InferenceTrace()
        fresh.infer_batch(rows, fresh_trace, engine=backend)

        busy = make_network(CellType.C1RW4R, 0.5)
        busy.infer_batch(other, engine=backend)
        busy_trace = InferenceTrace()
        busy.infer_batch(rows[:2], busy_trace, engine=backend)
        busy.infer_batch(other[::-1], engine=backend)
        busy.infer_batch(rows[2:], busy_trace, engine=backend)

        assert busy_trace == fresh_trace
        assert busy_trace.counts[0].input_spikes == int(rows.sum())
        assert SystemEnergyModel(busy).metrics(busy_trace) == (
            SystemEnergyModel(fresh).metrics(fresh_trace)
        )

    def test_readout_clear_after_a_temporal_run_is_not_counted(
            self, backend, rng):
        """A temporal run leaves neuron counts on the output tile, and
        the next static readout clears them: the traced batch counts
        none of them, as on the reference."""
        trains = rng.random((3, LAYER_SIZES[0])) < 0.25
        rows = sample_spikes(rng, images=4)
        traces = []
        for engine in (backend, "cycle"):
            net = make_network(CellType.C1RW4R, 0.5)
            net.run_temporal(trains, engine="cycle")
            assert net.tiles[-1].stats.accumulate_events > 0
            trace = InferenceTrace()
            net.infer_batch(rows, trace, engine=engine)
            traces.append(trace)
        output = traces[0].counts[-1]
        assert (output.accumulate_events, output.fire_checks) == (0, 0)
        assert traces[0] == traces[1]


class TestEmptyBatch:
    def test_empty_batch_is_a_no_op(self, backend, rng):
        """A ``(0, n_in)`` batch passes validation; every backend returns
        no predictions and leaves ledgers and membranes, including a
        temporal run's residue, as they were."""
        trains = rng.random((3, LAYER_SIZES[0])) < 0.25
        net = make_network(CellType.C1RW4R, 0.5)
        untouched = make_network(CellType.C1RW4R, 0.5)
        for network in (net, untouched):
            network.run_temporal(trains, engine="cycle")
        trace = InferenceTrace()
        predictions = net.classify_batch(
            np.zeros((0, LAYER_SIZES[0]), dtype=bool), trace, engine=backend
        )
        assert predictions.shape == (0,)
        assert trace.images == 0
        assert trace.per_tile_cycles == [0] * len(net.tiles)
        assert_hardware_state_equal(net, untouched)


class TestTemporalConformance:
    def test_temporal_run_matches_reference(self, backend, rng):
        trains = rng.random((6, LAYER_SIZES[0])) < 0.25
        net = make_network(CellType.C1RW4R, 0.5)
        ref_net = make_network(CellType.C1RW4R, 0.5)
        result = net.run_temporal(trains, engine=backend)
        reference = ref_net.run_temporal(trains, engine="cycle")
        assert np.array_equal(result.spike_counts, reference.spike_counts)
        assert np.array_equal(result.final_vmem, reference.final_vmem)
        assert np.array_equal(
            result.hidden_spike_totals, reference.hidden_spike_totals
        )
        assert_hardware_state_equal(net, ref_net)

    def test_non_binary_trains_rejected(self, backend, non_binary):
        net = make_network(CellType.C1RW4R, 0.5)
        with pytest.raises(ConfigurationError):
            net.run_temporal(non_binary((3, LAYER_SIZES[0])), engine=backend)
        assert_hardware_state_equal(net, make_network(CellType.C1RW4R, 0.5))

    def test_wrong_width_rejected(self, backend):
        net = make_network(CellType.C1RW4R, 0.5)
        for width in (LAYER_SIZES[0] - 1, LAYER_SIZES[0] + 1):
            with pytest.raises(ConfigurationError, match="spike batch shape"):
                net.run_temporal(np.zeros((3, width), dtype=bool),
                                 engine=backend)

    def test_mid_run_switch_from_and_to_backend(self, backend, rng):
        """Any backend resumes from any other backend's membranes."""
        trains = rng.random((4, LAYER_SIZES[0])) < 0.25
        pure = make_network(CellType.C1RW4R, 0.5)
        pure.run_temporal(trains[:2], engine="cycle")
        pure_result = pure.run_temporal(trains[2:], engine="cycle")
        for first, second in [(backend, "cycle"), ("cycle", backend)]:
            mixed = make_network(CellType.C1RW4R, 0.5)
            mixed.run_temporal(trains[:2], engine=first)
            mixed_result = mixed.run_temporal(trains[2:], engine=second)
            assert np.array_equal(
                mixed_result.spike_counts, pure_result.spike_counts
            )
            assert np.array_equal(
                mixed_result.final_vmem, pure_result.final_vmem
            )
            assert_hardware_state_equal(mixed, pure)


class TestMutationConformance:
    def _flip_weights_in_place(self, net: EsamNetwork) -> None:
        tile = net.tiles[0]
        flipped = 1 - tile.weight_matrix()
        for rb in range(tile.mapping.row_blocks):
            for cb in range(tile.mapping.col_blocks):
                tile.macros[rb][cb].load_weights(
                    tile.mapping.block_weights(flipped, rb, cb)
                )
        tile.note_weight_update()

    def test_weight_version_bump_invalidates_cached_engine(
            self, backend, rng):
        """In-place weight flips must reach every backend's snapshot
        state (packed bitplanes, memoized schedules, signed matrices)."""
        spikes = sample_spikes(rng, images=4)
        net = make_network(CellType.C1RW4R, 0.5)
        stale = net.engine_backend(backend)
        net.infer_batch(spikes, engine=backend)  # warms caches/memos
        self._flip_weights_in_place(net)
        assert net.engine_backend(backend) is not stale

        reference = make_network(CellType.C1RW4R, 0.5)
        self._flip_weights_in_place(reference)
        net.reset_stats()  # drop the pre-mutation activity
        scores = net.infer_batch(spikes, engine=backend)
        ref_scores = np.stack([reference.infer(row) for row in spikes])
        assert np.array_equal(scores, ref_scores)
        assert_hardware_state_equal(net, reference)

    def test_faulted_weights_reach_backend(self, backend, rng):
        """Monte-Carlo bit flips (the reliability path) must be seen by
        every backend, not just the per-cycle one."""
        from repro.sram.faults import FaultInjector

        spikes = sample_spikes(rng, images=4)
        net = make_network(CellType.C1RW4R, 0.5)
        net.infer_batch(spikes, engine=backend)  # caches the engine
        injector = FaultInjector(
            [t.weight_matrix() for t in net.tiles],
            [np.concatenate([n.thresholds for n in t.neurons])
             for t in net.tiles],
        )
        flips = injector.apply_trial(net, 0.05, trial=0)
        assert flips > 0
        scores = net.infer_batch(spikes, engine=backend)
        reference = np.stack([net.infer(row) for row in spikes])
        assert np.array_equal(scores, reference)


class TestBitpackedInternals:
    """Backend-specific regression checks for the memoizing kernel."""

    def test_memo_is_dropped_with_the_kernel_on_weight_mutation(self, rng):
        spikes = sample_spikes(rng, images=4)
        net = make_network(CellType.C1RW4R, 0.5)
        net.infer_batch(spikes, engine="bitpacked")
        engine = net.engine_backend("bitpacked")
        warm = engine.memo_stats()
        assert warm["patterns"] > 0 and warm["misses"] > 0
        tile = net.tiles[0]
        flipped = 1 - tile.weight_matrix()
        for rb in range(tile.mapping.row_blocks):
            for cb in range(tile.mapping.col_blocks):
                tile.macros[rb][cb].load_weights(
                    tile.mapping.block_weights(flipped, rb, cb)
                )
        tile.note_weight_update()
        rebuilt = net.engine_backend("bitpacked")
        assert rebuilt is not engine
        assert rebuilt.memo_stats() == {
            "hits": 0, "misses": 0, "patterns": 0
        }
        packed = rebuilt._kernels[0].packed_planes
        assert not np.array_equal(packed, engine._kernels[0].packed_planes)

    def test_memo_limit_caps_stored_patterns(self, rng):
        from repro.tile.backends.bitpacked import _BitpackedKernel

        net = make_network(CellType.C1RW4R, 0.5)
        kernel = _BitpackedKernel(net.tiles[0], memo_limit=2)
        spikes = sample_spikes(rng, images=6)
        kernel._schedule_and_delta(spikes)
        assert len(kernel._memo) == 2
        # Patterns beyond the cap still compute correctly.
        again = kernel._schedule_and_delta(spikes)
        fresh = _BitpackedKernel(net.tiles[0])._schedule_and_delta(spikes)
        assert np.array_equal(again[0], fresh[0])
        assert np.array_equal(again[1], fresh[1])
