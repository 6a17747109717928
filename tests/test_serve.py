"""Serving subsystem: batcher policy, backpressure, registry, metrics.

Also hosts the split-invariance property test — the correctness
foundation micro-batching rests on: however a request stream is
partitioned into batches, ``infer_batch`` must produce bit-identical
results, so the server's timing-dependent batching cannot change any
prediction.
"""

from __future__ import annotations

import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, QueueFullError, ServingError
from repro.hw.config import HardwareConfig
from repro.serve import (
    BatchPolicy,
    FleetServer,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    ServingMetrics,
    latency_percentiles,
)
from repro.serve.__main__ import main as serve_main
from repro.serve.metrics import LATENCY_WINDOW
from repro.snn.encode import encode_images
from repro.sram.bitcell import CellType
from repro.sweep.spec import DesignPoint
from repro.learning.convert import ConvertedSNN
from repro.tile.network import EsamNetwork, InferenceTrace, validate_spikes

pytestmark = pytest.mark.serve


def random_network(layers=(64, 32, 10), seed=0,
                   cell_type=CellType.C1RW4R) -> EsamNetwork:
    """A small random binary network (no training required)."""
    rng = np.random.default_rng(seed)
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    thresholds = [
        np.full(b, max(1, a // 16), dtype=np.int64)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    return EsamNetwork(weights, thresholds,
                       config=HardwareConfig(cell_type=cell_type))


def random_spikes(n, width=64, seed=3, density=0.2) -> np.ndarray:
    return np.random.default_rng(seed).random((n, width)) < density


#: Both kinds of flush lane, for tests of the shared serving core: the
#: in-process dispatch thread, and fleet worker processes.
SERVER_KINDS = [
    "inproc", pytest.param("fleet", marks=pytest.mark.multiprocess),
]


def make_server(kind: str, registry, **kwargs):
    """An unstarted server of one of :data:`SERVER_KINDS`."""
    if kind == "fleet":
        return FleetServer(registry, n_workers=1, **kwargs)
    return InferenceServer(registry, **kwargs)


class FakeClock:
    """Deterministic injectable clock for batcher/metrics tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


# -- batch policy / micro-batcher ----------------------------------------------------


class TestBatchPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_wait_ms=-1.0)
        # A NaN wait never flushes a lone request and an infinite one
        # kills the dispatch thread.
        for wait in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                BatchPolicy(max_wait_ms=wait)

    def test_has_one_batch_target(self):
        """A size and a wait: no second batching rule."""
        assert [f.name for f in dataclasses.fields(BatchPolicy)] == [
            "max_batch_size", "max_wait_ms",
        ]

    @pytest.mark.parametrize("field", ["max_batch_size"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
    def test_rejects_a_non_integer_size(self, field, value):
        """A float, bool or string size would fail on the dispatch
        thread, leaving every admitted future unresolved."""
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be an integer"):
            BatchPolicy(**{field: value})

    def test_accepts_numpy_integer_sizes(self):
        policy = BatchPolicy(max_batch_size=np.int64(8))
        assert policy.max_batch_size == 8
        assert type(policy.max_batch_size) is int


class TestMicroBatcher:
    def _batcher(self, **kwargs):
        clock = FakeClock()
        policy = BatchPolicy(**{"max_wait_ms": 1000.0, **kwargs})
        return MicroBatcher(policy, clock=clock), clock

    def test_size_triggered_flush(self):
        batcher, _ = self._batcher(max_batch_size=4)
        for item in "abc":
            batcher.add(item)
        assert not batcher.ready()
        batcher.add("d")
        assert batcher.ready()
        assert batcher.take() == ["a", "b", "c", "d"]
        assert len(batcher) == 0 and not batcher.ready()

    def test_deadline_triggered_flush(self):
        batcher, clock = self._batcher(max_batch_size=64, max_wait_ms=5.0)
        batcher.add("a")
        batcher.add("b")
        assert not batcher.ready()
        assert batcher.next_deadline() == pytest.approx(0.005)
        clock.advance(0.006)
        assert batcher.ready()
        assert batcher.take() == ["a", "b"]

    def test_take_caps_at_batch_size(self):
        batcher, _ = self._batcher(max_batch_size=4)
        for i in range(10):
            batcher.add(i)
        assert batcher.take() == [0, 1, 2, 3]
        assert len(batcher) == 6

    def test_drain_empties_in_max_size_batches(self):
        batcher, _ = self._batcher(max_batch_size=4)
        for i in range(10):
            batcher.add(i)
        batches = batcher.drain()
        assert [len(b) for b in batches] == [4, 4, 2]
        assert sum(batches, []) == list(range(10))


# -- metrics -------------------------------------------------------------------------


class TestServingMetrics:
    def test_percentiles_of_known_trace(self):
        trace = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        result = latency_percentiles(trace)
        assert result["p50_ms"] == pytest.approx(55.0)
        assert result["p95_ms"] == pytest.approx(95.5)
        assert result["p99_ms"] == pytest.approx(99.1)

    def test_percentiles_require_samples(self):
        with pytest.raises(ConfigurationError):
            latency_percentiles([])

    def test_collector_roll_up(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock)
        metrics.mark_started()
        metrics.record_submitted(queue_depth=1)
        metrics.record_submitted(queue_depth=2)
        metrics.record_rejected()
        metrics.record_batch([0.010, 0.030])
        clock.advance(0.5)
        metrics.mark_stopped()
        data = metrics.to_dict()
        assert data["submitted"] == 2
        assert data["completed"] == 2
        assert data["rejected"] == 1
        assert data["failed"] == 0
        assert data["achieved_inf_s"] == pytest.approx(4.0)
        assert data["batch_size_hist"] == {"2": 1}
        assert data["queue_depth_hist"] == {"1": 1, "2": 1}
        assert data["latency"]["p50_ms"] == pytest.approx(20.0)
        assert data["mean_batch_size"] == pytest.approx(2.0)
        assert "throughput" in metrics.summary()

    def test_empty_window_snapshot_is_complete_and_valid(self):
        # The empty-window contract: a collector that has seen no
        # requests still exports a full snapshot — every counter 0,
        # latency/mean_batch_size explicitly None (never NaN, never a
        # missing key), and no method raises.
        metrics = ServingMetrics(clock=FakeClock())
        data = metrics.to_dict()
        for counter in ("submitted", "completed", "failed", "rejected",
                        "shed", "retried", "broken_circuit"):
            assert data[counter] == 0
        assert data["latency"] is None
        assert data["mean_batch_size"] is None
        assert data["batch_size_hist"] == {}
        assert data["queue_depth_hist"] == {}
        assert data["elapsed_s"] == 0.0
        assert data["achieved_inf_s"] == 0.0
        assert metrics.percentiles() == {
            "p50_ms": None, "p95_ms": None, "p99_ms": None,
        }
        assert "0 submitted" in metrics.summary()
        import json

        assert json.loads(metrics.to_json())["latency"] is None

    def test_percentiles_cover_the_latest_window_only(self):
        """p50/p95/p99 read the last LATENCY_WINDOW latencies; the
        mean and the maximum read every completion."""
        metrics = ServingMetrics(clock=FakeClock())
        batch = 4096
        for latency_s in (0.050, 0.001):  # a slow window, then a fast one
            for _ in range(LATENCY_WINDOW // batch):
                metrics.record_batch([latency_s] * batch)
        data = metrics.to_dict()
        assert data["completed"] == 2 * LATENCY_WINDOW
        assert data["latency"]["p50_ms"] == pytest.approx(1.0)
        assert data["latency"]["p99_ms"] == pytest.approx(1.0)
        assert metrics.percentiles()["p99_ms"] == pytest.approx(1.0)
        assert data["latency"]["mean_ms"] == pytest.approx(25.5)
        assert data["latency"]["max_ms"] == pytest.approx(50.0)

    def test_an_empty_batch_records_no_latency(self):
        metrics = ServingMetrics(clock=FakeClock())
        metrics.record_batch([])
        data = metrics.to_dict()
        assert data["completed"] == 0
        assert data["latency"] is None
        metrics.record_batch([0.002])
        assert metrics.to_dict()["latency"]["max_ms"] == pytest.approx(2.0)

    def test_empty_window_after_start_does_not_crash(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock)
        metrics.mark_started()
        clock.advance(1.0)
        data = metrics.to_dict()
        assert data["elapsed_s"] == pytest.approx(1.0)
        assert data["achieved_inf_s"] == 0.0
        assert data["latency"] is None

    def test_collector_is_a_registry_view(self):
        # Every counter the attribute API exposes is backed by a
        # registry series, so --metrics-out exports agree with
        # to_dict() by construction.
        from repro.obs import parse_prometheus_text

        metrics = ServingMetrics(clock=FakeClock())
        metrics.record_submitted(queue_depth=1)
        metrics.record_batch([0.010])
        metrics.record_shed(2)
        text = metrics.registry.to_text()
        samples = parse_prometheus_text(text)
        assert samples[("repro_serving_submitted_total", ())] == 1
        assert samples[("repro_serving_completed_total", ())] == 1
        assert samples[("repro_serving_shed_total", ())] == 2
        assert metrics.submitted == 1 and metrics.shed == 2

    def test_collectors_default_to_private_registries(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.record_submitted(queue_depth=1)
        assert a.submitted == 1
        assert b.submitted == 0
        assert a.registry is not b.registry


# -- registry ------------------------------------------------------------------------


class TestModelRegistry:
    def test_register_and_get(self):
        registry = ModelRegistry()
        network = random_network()
        assert registry.register_network("demo", network) is network
        assert registry.get("demo") is network
        assert "demo" in registry and len(registry) == 1
        assert registry.names() == ["demo"]

    def test_unknown_model_raises_serving_error(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        with pytest.raises(ServingError, match="demo"):
            registry.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register_network("demo", random_network(seed=1))

    def test_register_from_design_point(self):
        rng = np.random.default_rng(5)
        snn = ConvertedSNN(
            weights=[rng.integers(0, 2, (64, 10)).astype(np.uint8)],
            thresholds=[np.full(10, 3, dtype=np.int64)],
            output_bias=np.zeros(10),
        )
        registry = ModelRegistry()
        point = DesignPoint(cell_type=CellType.C1RW2R, vprech=0.6)
        network = registry.register("p", point, snn=snn)
        assert network.cell_type is CellType.C1RW2R
        assert network.vprech == 0.6
        assert registry.entry("p").describe()["point"] == point.label

    def test_swap_validates_interface(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network(layers=(64, 10)))
        with pytest.raises(ConfigurationError, match="interface"):
            registry.swap("demo", random_network(layers=(32, 10)))

    def test_swap_replaces_network(self):
        registry = ModelRegistry()
        first = random_network(seed=0)
        second = random_network(seed=1)
        registry.register_network("demo", first)
        assert registry.swap("demo", second) is first
        assert registry.get("demo") is second

    def test_hot_swap_after_in_place_weight_update(self):
        """Online-learning weight updates reach served predictions.

        Mutating macros in place + ``note_weight_update`` must make the
        next served batch run on the new weights (the cached fast
        engine rebuilds via ``Tile.weight_version``) — no registry or
        server restart involved.
        """
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(24)
        server = InferenceServer(
            registry, policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0)
        ).start()
        try:
            before = [server.classify("demo", row) for row in spikes]
            versions_before = registry.entry("demo").weight_versions

            tile = network.tiles[0]
            flipped = (1 - tile.weight_matrix()).astype(np.uint8)
            for rb in range(tile.mapping.row_blocks):
                for cb in range(tile.mapping.col_blocks):
                    tile.macros[rb][cb].load_weights(
                        tile.mapping.block_weights(flipped, rb, cb)
                    )
            tile.note_weight_update()

            after = [server.classify("demo", row) for row in spikes]
        finally:
            server.stop()
        assert registry.entry("demo").weight_versions != versions_before
        offline = network.classify_batch(spikes)
        assert np.array_equal(after, offline)
        assert before != after


# -- spike input validation (EsamNetwork boundary) -----------------------------------


class TestSpikeValidation:
    def test_rejects_non_binary_values(self):
        network = random_network()
        bad = np.full(64, 0.5)
        with pytest.raises(ConfigurationError, match="0/1"):
            network.infer(bad)
        with pytest.raises(ConfigurationError, match="0/1"):
            network.infer_batch(np.stack([bad, bad]))
        with pytest.raises(ConfigurationError, match="0/1"):
            network.infer_batch(np.stack([bad, bad]), engine="cycle")

    def test_rejects_nan_and_strings(self):
        network = random_network()
        nan = np.zeros(64)
        nan[0] = np.nan
        with pytest.raises(ConfigurationError):
            network.infer(nan)
        with pytest.raises(ConfigurationError):
            network.infer_batch(np.array([["a"] * 64]))

    def test_rejects_wrong_trailing_dimension(self):
        network = random_network()
        with pytest.raises(ConfigurationError, match=r"\(64,\)"):
            network.infer(np.zeros(32, dtype=bool))
        with pytest.raises(ConfigurationError, match=r"\(B, 64\)"):
            network.infer_batch(np.zeros((4, 32), dtype=bool))
        with pytest.raises(ConfigurationError):
            network.infer_batch(np.zeros((2, 4, 64), dtype=bool))

    def test_accepts_bool_and_01_numeric(self):
        network = random_network()
        as_bool = random_spikes(3)
        for cast in (np.bool_, np.uint8, np.int64, np.float64):
            out = network.infer_batch(as_bool.astype(cast))
            assert out.shape == (3, 10)

    def test_single_vector_promoted_to_batch(self):
        spikes = random_spikes(1)[0]
        assert validate_spikes(spikes, 64, batch=True).shape == (1, 64)
        assert validate_spikes(spikes, 64).shape == (64,)


# -- split invariance (the foundation micro-batching rests on) -----------------------


def _invariance_network(cell_value: str) -> EsamNetwork:
    """A fresh network: every example starts from zero counts."""
    return random_network(
        layers=(32, 16, 10), seed=7, cell_type=CellType(cell_value)
    )


@functools.lru_cache(maxsize=None)
def _invariance_full(cell_value: str, engine: str):
    """Scores, trace and dynamic energy of the one-shot batch."""
    spikes = random_spikes(8, width=32, seed=11)
    network = _invariance_network(cell_value)
    trace = InferenceTrace()
    scores = network.infer_batch(spikes, trace, engine=engine)
    return scores, trace, network.dynamic_energy_pj()


class TestSplitInvariance:
    @given(
        cuts=st.sets(st.integers(1, 7)),
        engine=st.sampled_from(["fast", "cycle"]),
        cell=st.sampled_from(["1RW", "1RW+2R", "1RW+4R"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_partition_concatenates_bit_identically(
        self, cuts, engine, cell
    ):
        """Concatenated sub-batch results, their summed trace and the
        network's dynamic energy equal the one-shot batch's, exactly."""
        spikes = random_spikes(8, width=32, seed=11)
        network = _invariance_network(cell)
        full, full_trace, full_energy = _invariance_full(cell, engine)
        bounds = [0, *sorted(cuts), 8]
        trace = InferenceTrace()
        parts = [
            network.infer_batch(spikes[a:b], trace, engine=engine)
            for a, b in zip(bounds, bounds[1:])
            if a < b
        ]
        assert np.array_equal(np.concatenate(parts), full)
        assert trace == full_trace
        assert network.dynamic_energy_pj() == full_energy

    def test_engines_agree_on_the_full_batch(self):
        for cell in ("1RW", "1RW+2R", "1RW+4R"):
            fast = _invariance_full(cell, "fast")
            cycle = _invariance_full(cell, "cycle")
            assert np.array_equal(fast[0], cycle[0])
            assert fast[1:] == cycle[1:]


# -- server --------------------------------------------------------------------------


class TestInferenceServer:
    def _registry(self, **kwargs):
        registry = ModelRegistry()
        network = random_network(**kwargs)
        registry.register_network("demo", network)
        return registry, network

    def test_served_predictions_match_offline_classify_batch(self):
        registry, network = self._registry()
        spikes = random_spikes(48)
        with InferenceServer(
            registry, policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0)
        ) as server:
            futures = [server.submit("demo", row) for row in spikes]
            served = [f.result(timeout=10.0) for f in futures]
        assert np.array_equal(served, network.classify_batch(spikes))
        data = server.metrics.to_dict()
        assert data["completed"] == 48 and data["failed"] == 0
        assert sum(
            int(k) * v for k, v in data["batch_size_hist"].items()
        ) == 48
        assert data["queue_depth_hist"]

    def test_deadline_flush_serves_partial_batches(self):
        registry, _ = self._registry()
        policy = BatchPolicy(max_batch_size=64, max_wait_ms=2.0)
        with InferenceServer(registry, policy=policy) as server:
            # Far fewer requests than a full batch: only the deadline
            # trigger can serve these.
            results = [
                server.classify("demo", row, timeout=5.0)
                for row in random_spikes(3)
            ]
        assert len(results) == 3
        assert all(isinstance(r, int) for r in results)

    def test_backpressure_rejects_and_never_drops(self):
        registry, network = self._registry()
        spikes = random_spikes(6)
        # A batcher that will not flush on its own: the queue must fill.
        policy = BatchPolicy(max_batch_size=100, max_wait_ms=60_000.0)
        server = InferenceServer(
            registry, policy=policy, max_queue_depth=4
        ).start()
        futures = [server.submit("demo", row) for row in spikes[:4]]
        with pytest.raises(QueueFullError, match="max_queue_depth=4"):
            server.submit("demo", spikes[4])
        assert server.metrics.rejected == 1
        assert server.in_flight == 4
        server.stop(drain=True)
        served = [f.result(timeout=1.0) for f in futures]
        assert np.array_equal(served, network.classify_batch(spikes[:4]))
        assert server.in_flight == 0
        assert server.metrics.completed == 4

    def test_stop_without_drain_fails_pending_futures(self):
        registry, _ = self._registry()
        policy = BatchPolicy(max_batch_size=100, max_wait_ms=60_000.0)
        server = InferenceServer(registry, policy=policy).start()
        futures = [server.submit("demo", row) for row in random_spikes(3)]
        server.stop(drain=False)
        for future in futures:
            with pytest.raises(ServingError, match="abandoned"):
                future.result(timeout=1.0)
        assert server.metrics.failed == 3
        assert server.in_flight == 0

    def test_submit_requires_running_server(self):
        registry, _ = self._registry()
        server = InferenceServer(registry)
        with pytest.raises(ServingError, match="not running"):
            server.submit("demo", random_spikes(1)[0])

    def test_submit_validates_model_and_spikes_before_admission(self):
        registry, _ = self._registry()
        with InferenceServer(registry) as server:
            with pytest.raises(ServingError, match="no model named"):
                server.submit("missing", random_spikes(1)[0])
            with pytest.raises(ConfigurationError):
                server.submit("demo", np.full(64, 0.5))
            with pytest.raises(ConfigurationError):
                server.submit("demo", np.zeros(32, dtype=bool))
        assert server.metrics.submitted == 0

    def test_rejects_bad_configuration(self):
        registry, _ = self._registry()
        with pytest.raises(ConfigurationError):
            InferenceServer(registry, max_queue_depth=0)

    def test_serves_multiple_models(self):
        registry = ModelRegistry()
        net_a = random_network(seed=0)
        net_b = random_network(seed=9)
        registry.register_network("a", net_a)
        registry.register_network("b", net_b)
        spikes = random_spikes(10)
        with InferenceServer(
            registry, policy=BatchPolicy(max_batch_size=4, max_wait_ms=1.0)
        ) as server:
            futures = [
                (server.submit("a", row), server.submit("b", row))
                for row in spikes
            ]
            served_a = [fa.result(timeout=10.0) for fa, _ in futures]
            served_b = [fb.result(timeout=10.0) for _, fb in futures]
        assert np.array_equal(served_a, net_a.classify_batch(spikes))
        assert np.array_equal(served_b, net_b.classify_batch(spikes))


# -- admission on both servers -------------------------------------------------------


@pytest.fixture(scope="class", params=SERVER_KINDS)
def admitting(request):
    """A running server of each kind over the 64:32:10 test network."""
    registry = ModelRegistry()
    network = random_network()
    registry.register_network("demo", network)
    server = make_server(
        request.param, registry,
        policy=BatchPolicy(max_batch_size=16, max_wait_ms=1.0),
    )
    with server:
        yield server, network


def not_binary_message(dtype) -> str:
    """The whole message a non-binary spike vector of 64 is refused with."""
    return "^" + re.escape(
        "spikes must be boolean or contain only 0/1 values (expected "
        f"bool/uint8 of shape (64,), got dtype {np.dtype(dtype)})"
    ) + "$"


class TestAdmission:
    """``submit`` admits exactly the rows ``validate_spikes`` accepts."""

    @staticmethod
    def serve(server, rows) -> list:
        futures = [server.submit("demo", row) for row in rows]
        return [future.result(timeout=30.0) for future in futures]

    def test_accepts_01_in_every_binary_dtype(self, admitting, binary_dtype):
        server, network = admitting
        spikes = random_spikes(8)
        served = self.serve(server, spikes.astype(binary_dtype))
        assert served == network.classify_batch(spikes).tolist()

    def test_accepts_strided_rows(self, admitting):
        # encode_images returns column-major spikes, so each of its
        # rows, and any slice of one, is strided.
        images = np.random.default_rng(2).random((8, 28, 28))
        spikes = encode_images(images)[:, 100:164]
        assert not spikes[0].flags.c_contiguous
        server, network = admitting
        served = self.serve(server, spikes)
        assert served == network.classify_batch(spikes).tolist()

    def test_rejects_non_binary_as_validation_does(self, admitting,
                                                   non_binary):
        server, _ = admitting
        row = non_binary(64)
        submitted = server.metrics.submitted
        with pytest.raises(ConfigurationError,
                           match=not_binary_message(row.dtype)):
            server.submit("demo", row)
        assert server.metrics.submitted == submitted

    def test_rejects_a_negative_int8(self, admitting):
        # One byte, 0xFF: the byte check must refuse it as is_binary
        # does, not read it as a set bit.
        server, _ = admitting
        row = np.zeros(64, dtype=np.int8)
        row[5] = -1
        with pytest.raises(ConfigurationError,
                           match=not_binary_message(np.int8)):
            server.submit("demo", row)

    def test_rejects_a_2d_row(self, admitting):
        server, _ = admitting
        with pytest.raises(ConfigurationError, match=re.escape(
                "spike vector shape (1, 64) is not (64,)")):
            server.submit("demo", np.zeros((1, 64), dtype=bool))

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_a_refilled_bool_buffer_is_never_queued(self, kind):
        # A client that refills one buffer for every request must get
        # each row's own prediction, though none is flushed before the
        # last refill: admission queues a private copy.
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(200, seed=5)
        buffer = np.empty(64, dtype=bool)
        server = make_server(
            kind, registry, max_queue_depth=len(spikes),
            policy=BatchPolicy(max_batch_size=256, max_wait_ms=60_000.0),
        )
        with server:
            futures = []
            for row in spikes:
                buffer[:] = row
                futures.append(server.submit("demo", buffer))
        served = [future.result(timeout=30.0) for future in futures]
        assert served == network.classify_batch(spikes).tolist()


# -- CLI -----------------------------------------------------------------------------


class TestServeCli:
    def test_load_test_runs_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "serving.json"
        code = serve_main([
            "--rate", "400", "--duration", "0.25", "--clients", "2",
            "--quality", "fast", "--json", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "bit-identical" in printed
        import json

        report = json.loads(out.read_text())
        assert report["requests"] == 100
        assert report["verified_vs_offline"] is True
        assert report["metrics"]["completed"] == 100
        assert report["metrics"]["failed"] == 0
        assert {"python", "numpy", "platform", "timestamp_utc"} <= set(
            report["environment"]
        )

    def test_rejects_empty_trace(self):
        with pytest.raises(SystemExit):
            serve_main(["--rate", "1", "--duration", "0"])

    @pytest.fixture
    def no_model(self, monkeypatch):
        """Fail the test if the CLI starts building the model."""
        def build(*args, **kwargs):
            raise AssertionError("built a model before checking the flags")

        monkeypatch.setattr("repro.serve.__main__.get_reference_model",
                            build)

    @pytest.mark.parametrize("argv", [
        ["--rate", "nan"], ["--rate", "inf"], ["--rate", "-500"],
        ["--duration", "nan"], ["--duration", "inf"],
        ["--retries", "-1"],
        ["--deadline-ms", "0"], ["--deadline-ms", "nan"],
        ["--deadline-ms", "inf"],
        ["--adaptive"], ["--engine", "fast"],
    ], ids="=".join)
    def test_rejects_a_bad_flag_before_building_anything(
            self, argv, no_model, capsys):
        with pytest.raises(SystemExit) as exit_info:
            serve_main(argv)
        assert exit_info.value.code == 2
        assert argv[0] in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv, field", [
        pytest.param(argv, field, id="=".join(argv[-2:]))
        for argv, field in [
            (["--max-batch", "0"], "max_batch_size"),
            (["--max-wait-ms", "nan"], "max_wait_ms"),
            (["--queue-depth", "0"], "max_queue_depth"),
            (["--breaker-threshold", "2", "--breaker-cooldown-s", "nan"],
             "cooldown_s"),
            (["--chaos-spike-ms", "inf"], "latency_spike_ms"),
        ]
    ])
    def test_rejects_a_bad_setting_before_building_the_model(
            self, argv, field, no_model, capsys):
        """The policies check these values themselves; the CLI builds
        them all before the model."""
        assert serve_main(argv) == 1
        assert field in capsys.readouterr().err
