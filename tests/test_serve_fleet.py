"""The multi-process serving fleet, unit to end-to-end.

Covers the fleet bottom-up: the worker-pool plumbing (picklable model
payloads, the worker loop and its message vocabulary, the worker
choice, draining a dead worker's pipe), and the :class:`FleetServer`
itself — admission control per SLO class (shared with the in-process
server, so those tests run on both), bit-identical serving at any
worker count, rolling hot-swap, crash supervision, and the
``python -m repro.serve --workers N`` CLI path.

Everything spawning real worker processes is marked ``multiprocess``
(tight hard timeout; see the root ``conftest.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import struct
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    QueueFullError,
    ServingError,
    WorkerCrashError,
)
from repro.resilience import ChaosPolicy, SupervisorPolicy
from repro.serve import (
    DEFAULT_SLO_CLASSES,
    BatchPolicy,
    FleetServer,
    ModelPayload,
    ModelRegistry,
    ServingMetrics,
    SloClass,
)
from repro.serve.fleet import MAX_IN_FLIGHT, choose_worker, receive_all
from repro.serve.pool import blas_threads_settable, worker_main

from tests.test_serve import (
    SERVER_KINDS,
    make_server,
    random_network,
    random_spikes,
)

pytestmark = pytest.mark.serve


def fleet(registry=None, n_workers=2, **kwargs):
    if registry is None:
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
    kwargs.setdefault(
        "policy", BatchPolicy(max_batch_size=16, max_wait_ms=1.0)
    )
    return FleetServer(registry, n_workers=n_workers, **kwargs)


def serve_all(server, spikes, slo_class="batch", timeout=60.0):
    futures = [
        server.submit("demo", row, slo_class=slo_class) for row in spikes
    ]
    return np.array([f.result(timeout=timeout) for f in futures])


def slow_workers(ms: float) -> ChaosPolicy:
    """Chaos that makes every worker flush sleep ``ms`` first."""
    return ChaosPolicy(seed=0, latency_spike_ms=ms, latency_spike_p=1.0)


def finishes(call, timeout: float = 60.0) -> bool:
    """Run ``call`` on a thread; did it return within ``timeout``?"""
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive()


# -- model payloads -------------------------------------------------------------------


class TestModelPayload:
    def test_rebuilt_network_is_bit_identical(self):
        network = random_network()
        payload = ModelPayload.from_network("demo", network)
        rebuilt = payload.build()
        spikes = random_spikes(32)
        assert np.array_equal(
            rebuilt.classify_batch(spikes), network.classify_batch(spikes)
        )
        assert payload.versions == tuple(
            t.weight_version for t in network.tiles
        )


# -- the worker loop ------------------------------------------------------------------


class TestWorkerMain:
    """The worker loop, run on a thread against the far end of a pipe."""

    @staticmethod
    def start(network, **kwargs):
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_main,
            args=(3, child, [ModelPayload.from_network("demo", network)]),
            kwargs=kwargs, daemon=True,
        )
        thread.start()
        assert parent.recv() == ("ready", 3)
        return parent, thread

    @staticmethod
    def stop(parent, thread):
        parent.send(("stop",))
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_serves_joined_batches_until_stopped(self):
        network = random_network()
        spikes = random_spikes(7)
        parent, thread = self.start(network)
        parent.send(("batch", 11, "demo", spikes.tobytes(), 7, "demo/0"))
        kind, batch_id, predictions, stats = parent.recv()
        assert (kind, batch_id) == ("ok", 11)
        assert np.array_equal(predictions, network.classify_batch(spikes))
        assert stats["rows"] == 7
        assert stats["retried"] == 0
        self.stop(parent, thread)

    def test_failed_flush_reports_the_error(self):
        parent, thread = self.start(
            random_network(), chaos=ChaosPolicy(seed=0, flush_error_p=1.0)
        )
        parent.send(("batch", 4, "demo", random_spikes(2).tobytes(), 2,
                     "demo/0"))
        kind, batch_id, error, stats = parent.recv()
        assert (kind, batch_id) == ("error", 4)
        assert isinstance(error, InjectedFaultError)
        assert stats["rows"] == 2
        self.stop(parent, thread)

    def test_swap_acks_and_serves_the_new_weights(self):
        first, second = random_network(seed=0), random_network(seed=1)
        spikes = random_spikes(20)
        assert not np.array_equal(first.classify_batch(spikes),
                                  second.classify_batch(spikes))
        parent, thread = self.start(first)
        payload = ModelPayload.from_network("demo", second)
        parent.send(("swap", "demo", payload))
        assert parent.recv() == ("swapped", "demo", payload.versions)
        parent.send(("batch", 0, "demo", spikes.tobytes(), 20, "demo/0"))
        _, _, predictions, _ = parent.recv()
        assert np.array_equal(predictions, second.classify_batch(spikes))
        self.stop(parent, thread)

    def test_a_model_it_was_never_sent_fails_naming_push_weights(self):
        parent, thread = self.start(random_network())
        parent.send(("batch", 5, "late", random_spikes(2).tobytes(), 2,
                     "late/0"))
        kind, batch_id, error, stats = parent.recv()
        assert (kind, batch_id) == ("error", 5)
        assert isinstance(error, ServingError)
        assert "push_weights('late')" in str(error)
        assert stats["rows"] == 2
        self.stop(parent, thread)


# -- worker choice and the dead pipe --------------------------------------------------


#: ``(worker_id, ready, draining, removed, in_flight)`` rows.
FULL = MAX_IN_FLIGHT


@pytest.mark.parametrize("workers, expected", [
    pytest.param([(0, True, False, False, 1), (1, True, False, False, 0)],
                 1, id="fewest-in-flight"),
    pytest.param([(1, True, False, False, 1), (0, True, False, False, 1)],
                 0, id="tie-to-lowest-id"),
    pytest.param([(0, False, False, False, 0), (1, True, False, False, 1)],
                 1, id="skips-not-ready"),
    pytest.param([(0, True, True, False, 0), (1, True, False, False, 1)],
                 1, id="skips-draining"),
    pytest.param([(0, True, False, True, 0), (1, True, False, False, 1)],
                 1, id="skips-removed"),
    pytest.param([(0, True, False, False, FULL),
                  (1, True, False, False, FULL)], None, id="all-full"),
    pytest.param([], None, id="no-workers"),
])
def test_choose_worker(workers, expected):
    assert choose_worker(workers) == expected


class TestReceiveAll:
    def test_dead_pipe_keeps_complete_messages_and_drops_a_torn_tail(self):
        parent, child = multiprocessing.Pipe()
        child.send(("ok", 1))
        child.send(("swapped", "demo", (0, 0)))
        # A writer killed mid-message: a length header promising more
        # bytes than ever arrive.
        os.write(child.fileno(), struct.pack("!i", 1 << 20) + b"torn")
        child.close()
        drained = []
        assert finishes(lambda: drained.append(receive_all(parent)), 10.0)
        assert drained == [[("ok", 1), ("swapped", "demo", (0, 0))]]
        # At end of file there is nothing more, and still no block.
        assert finishes(lambda: drained.append(receive_all(parent)), 10.0)
        assert drained[1] == []
        parent.close()

    def test_live_pipe_yields_what_has_arrived(self):
        parent, child = multiprocessing.Pipe()
        assert receive_all(parent) == []
        child.send(("ready", 0))
        child.send(("ready", 1))
        assert receive_all(parent) == [("ready", 0), ("ready", 1)]
        parent.close()
        child.close()


# -- SLO classes ----------------------------------------------------------------------


class TestSloClass:
    def test_stock_classes(self):
        assert set(DEFAULT_SLO_CLASSES) == {
            "batch", "default", "interactive"
        }
        assert DEFAULT_SLO_CLASSES["interactive"].deadline_ms == 50.0

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "x", "max_queue_depth": 0},
        {"name": "x", "deadline_ms": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SloClass(**kwargs)

    @pytest.mark.parametrize("depth", [2.5, 4.0, True, "4"])
    def test_rejects_a_non_integer_queue_depth(self, depth):
        with pytest.raises(ConfigurationError,
                           match="max_queue_depth must be an integer"):
            SloClass("x", max_queue_depth=depth)

    def test_accepts_a_numpy_integer_queue_depth(self):
        slo = SloClass("x", max_queue_depth=np.int64(16))
        assert slo.max_queue_depth == 16
        assert type(slo.max_queue_depth) is int


# -- fleet construction ---------------------------------------------------------------


class TestFleetConstruction:
    def test_rejects_bad_configuration(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        with pytest.raises(ConfigurationError, match="n_workers"):
            FleetServer(registry, n_workers=0)
        with pytest.raises(ConfigurationError, match="default"):
            FleetServer(
                registry, slo_classes={"batch": SloClass("batch")}
            )

    @pytest.mark.parametrize("n_workers", [True, 2.0, "2"])
    def test_rejects_a_non_integer_worker_count(self, n_workers):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        with pytest.raises(ConfigurationError,
                           match="n_workers must be an integer"):
            FleetServer(registry, n_workers=n_workers)

    def test_accepts_a_numpy_integer_worker_count(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        server = FleetServer(registry, n_workers=np.int64(3))
        assert server.n_workers == 3
        assert type(server.n_workers) is int

    def test_start_requires_a_registered_model(self):
        with pytest.raises(ConfigurationError, match="no models"):
            FleetServer(ModelRegistry()).start()

    def test_submit_requires_running_fleet(self):
        server = fleet()
        with pytest.raises(ServingError, match="not running"):
            server.submit("demo", random_spikes(1)[0])

    def test_submit_validates_at_the_edge(self):
        server = fleet()
        with pytest.raises(ConfigurationError, match="SLO class"):
            server.submit("demo", random_spikes(1)[0], slo_class="nope")
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            server.submit("demo", random_spikes(1)[0], deadline_ms=0.0)
        with pytest.raises(ServingError, match="demo2"):
            server.submit("demo2", random_spikes(1)[0])
        with pytest.raises(ConfigurationError, match="shape"):
            server.submit("demo", np.zeros(65, dtype=bool))


# -- one BLAS thread per worker -------------------------------------------------------


class TestBlasThreads:
    @pytest.mark.multiprocess
    def test_a_worker_runs_no_pool_thread(self):
        """After its first batch a worker is one thread: the pool the
        fork shut down is not left spinning beside it."""
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count a process's threads")
        if not blas_threads_settable():
            pytest.skip("numpy's OpenBLAS has no thread setter here")
        registry = ModelRegistry()
        # Wide enough that a (64 x 768) @ (768 x 256) product would
        # start the default pool's threads.
        network = random_network(layers=(768, 256, 10))
        registry.register_network("demo", network)
        spikes = random_spikes(64, width=768)
        with fleet(registry, n_workers=1,
                   policy=BatchPolicy(max_batch_size=64,
                                      max_wait_ms=1.0)) as server:
            served = serve_all(server, spikes)
            (worker,) = server.describe()["workers"]
            tasks = os.listdir(f"/proc/{worker['pid']}/task")
        assert worker["blas_threads"] == 1
        assert len(tasks) == 1, tasks
        assert np.array_equal(served, network.classify_batch(spikes))


# -- end-to-end serving ---------------------------------------------------------------


@pytest.mark.multiprocess
class TestFleetServing:
    def test_serves_bit_identically_to_offline(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(150)
        with fleet(registry) as server:
            served = serve_all(server, spikes)
        assert np.array_equal(served, network.classify_batch(spikes))
        m = server.metrics
        assert m.submitted == 150
        assert m.submitted == m.completed + m.failed + m.shed

    def test_classify_convenience(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(1)
        with fleet(registry, n_workers=1) as server:
            assert server.classify("demo", spikes[0]) == \
                network.classify(spikes[0])

    def test_two_models_of_different_widths_share_the_fleet(self):
        registry = ModelRegistry()
        wide = random_network(layers=(128, 32, 10), seed=0)
        narrow = random_network(layers=(64, 16, 10), seed=1)
        registry.register_network("wide", wide)
        registry.register_network("narrow", narrow)
        wide_spikes = random_spikes(40, width=128, seed=5)
        narrow_spikes = random_spikes(40, width=64, seed=6)
        with fleet(registry) as server:
            wide_futures = [
                server.submit("wide", row, slo_class="batch")
                for row in wide_spikes
            ]
            narrow_futures = [
                server.submit("narrow", row, slo_class="batch")
                for row in narrow_spikes
            ]
            wide_served = [f.result(timeout=60) for f in wide_futures]
            narrow_served = [f.result(timeout=60) for f in narrow_futures]
        assert np.array_equal(
            wide_served, wide.classify_batch(wide_spikes)
        )
        assert np.array_equal(
            narrow_served, narrow.classify_batch(narrow_spikes)
        )

    def test_saturation_spreads_batches_over_both_replicas(self):
        # Slow flushes keep both workers busy, so batches pile up and
        # each replica must take its share.
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        metrics = ServingMetrics()
        spikes = random_spikes(200)
        with fleet(registry, n_workers=2, metrics=metrics,
                   chaos=slow_workers(20.0)) as server:
            served = serve_all(server, spikes)
        assert np.array_equal(served, network.classify_batch(spikes))
        batches = {
            replica: metrics.registry.counter(
                "repro_fleet_batches_total", replica=replica, model="demo"
            ).value
            for replica in ("0", "1")
        }
        assert all(count > 0 for count in batches.values()), batches
        flushes = metrics.to_dict()["batch_size_hist"].values()
        assert sum(batches.values()) == sum(flushes)

    def test_drained_stop_serves_batches_waiting_for_a_worker(self):
        # One slow worker holds MAX_IN_FLIGHT batches, the dispatcher
        # waits with the next, and the rest are still batched when
        # stop() comes: a draining stop serves every one of them.
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(20)
        server = fleet(registry, n_workers=1, chaos=slow_workers(30.0),
                       policy=BatchPolicy(max_batch_size=4, max_wait_ms=1.0))
        server.start()
        futures = [server.submit("demo", row, slo_class="batch")
                   for row in spikes]
        assert finishes(server.stop)
        served = [f.result(timeout=1.0) for f in futures]
        assert np.array_equal(served, network.classify_batch(spikes))
        m = server.metrics
        assert m.completed == m.submitted == 20

    def test_describe_reports_workers(self):
        with fleet(n_workers=2) as server:
            info = server.describe()
            assert info["n_workers"] == 2
            assert len(info["workers"]) == 2
            assert {w["worker_id"] for w in info["workers"]} == {0, 1}
            # Engine build happens before start() returns, never in
            # the first requests' latency.
            assert all(w["ready"] for w in info["workers"])
            assert len({w["pid"] for w in info["workers"]}) == 2
            threads = 1 if blas_threads_settable() else None
            assert [w["blas_threads"] for w in info["workers"]] == [
                threads, threads,
            ]

    def test_stop_without_drain_fails_pending_explicitly(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        server = fleet(
            registry,
            policy=BatchPolicy(max_batch_size=64, max_wait_ms=500.0),
        )
        server.start()
        futures = [
            server.submit("demo", row, slo_class="batch")
            for row in random_spikes(8)
        ]
        server.stop(drain=False)
        outcomes = set()
        for future in futures:
            try:
                future.result(timeout=10)
                outcomes.add("completed")
            except ServingError:
                outcomes.add("failed")
        assert outcomes  # every future resolved, none left hanging
        m = server.metrics
        assert m.submitted == m.completed + m.failed + m.shed == 8


@pytest.mark.parametrize("kind", SERVER_KINDS)
class TestSloAdmission:
    """SLO classes are the shared core's: both servers admit alike."""

    def test_queue_full_per_slo_class(self, kind):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        tight = {
            "default": SloClass("default", max_queue_depth=4),
            "roomy": SloClass("roomy", max_queue_depth=1024),
        }
        spikes = random_spikes(16)
        # A generous batching window keeps admitted requests queued
        # while we probe the depth limits.
        server = make_server(
            kind, registry, slo_classes=tight,
            policy=BatchPolicy(max_batch_size=64, max_wait_ms=200.0),
        )
        with server:
            futures = [server.submit("demo", row) for row in spikes[:4]]
            with pytest.raises(QueueFullError, match="default"):
                server.submit("demo", spikes[4])
            # The full default class must not poison other classes.
            roomy = server.submit("demo", spikes[5], slo_class="roomy")
            for future in [*futures, roomy]:
                future.result(timeout=60)
        assert server.metrics.rejected == 1

    def test_deadline_defaults_to_the_slo_class(self, kind):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        classes = {
            "default": SloClass("default", deadline_ms=60_000.0),
            "hasty": SloClass("hasty", deadline_ms=1.0),
        }
        spikes = random_spikes(2)
        # A 200 ms coalescing window outlasts the 1 ms class deadline.
        server = make_server(
            kind, registry, slo_classes=classes,
            policy=BatchPolicy(max_batch_size=64, max_wait_ms=200.0),
        )
        with server:
            served = server.submit("demo", spikes[0])
            shed = server.submit("demo", spikes[1], slo_class="hasty")
            assert served.result(timeout=60) >= 0
            with pytest.raises(DeadlineExceededError):
                shed.result(timeout=60)
        # Each class deadline applied: only the hasty request was shed.
        assert server.metrics.shed == 1
        assert server.metrics.completed == 1

    def test_max_queue_depth_bounds_the_default_class(self, kind):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        server = make_server(
            kind, registry, max_queue_depth=2,
            policy=BatchPolicy(max_batch_size=64, max_wait_ms=200.0),
        )
        assert server.slo_classes["default"].max_queue_depth == 2
        assert server.slo_classes["batch"] == DEFAULT_SLO_CLASSES["batch"]
        with server:
            futures = [server.submit("demo", row)
                       for row in random_spikes(2)]
            with pytest.raises(QueueFullError, match="max_queue_depth=2"):
                server.submit("demo", random_spikes(1)[0])
            futures.append(
                server.submit("demo", random_spikes(1)[0], slo_class="batch")
            )
            for future in futures:
                future.result(timeout=60)


@pytest.mark.multiprocess
class TestWorkerCountInvariance:
    def test_predictions_identical_across_worker_counts(self):
        network = random_network()
        spikes = random_spikes(120)
        expected = network.classify_batch(spikes)
        for n_workers in (1, 2, 4):
            registry = ModelRegistry()
            registry.register_network("demo", random_network())
            with fleet(registry, n_workers=n_workers) as server:
                served = serve_all(server, spikes)
            assert np.array_equal(served, expected), n_workers

    def test_in_flight_bound_holds_under_thread_churn(self):
        # More workers than cores and a tiny switch interval, so the
        # client, dispatch and collector threads interleave as finely
        # as they can: no worker may ever hold more than MAX_IN_FLIGHT
        # batches, and nothing may be lost or changed.
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(600)
        peaks = []
        done = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with fleet(registry, n_workers=4, policy=BatchPolicy(
                    max_batch_size=4, max_wait_ms=0.5)) as server:

                def sample() -> None:
                    while not done.is_set():
                        with server._cond:
                            loads = Counter(f.worker_id for f
                                            in server._assigned.values())
                        peaks.append(max(loads.values(), default=0))

                sampler = threading.Thread(target=sample, daemon=True)
                sampler.start()
                served = serve_all(server, spikes)
                done.set()
                sampler.join(timeout=10.0)
                assert not sampler.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(served, network.classify_batch(spikes))
        assert 1 <= max(peaks) <= MAX_IN_FLIGHT
        m = server.metrics
        assert m.submitted == m.completed == len(spikes)


# -- rolling hot-swap -----------------------------------------------------------------


@pytest.mark.multiprocess
class TestRollingSwap:
    def test_swap_rolls_new_weights_to_every_replica(self):
        registry = ModelRegistry()
        first = random_network(seed=0)
        second = random_network(seed=1)
        registry.register_network("demo", first)
        spikes = random_spikes(60)
        with fleet(registry) as server:
            before = serve_all(server, spikes)
            assert server.swap("demo", second) is first
            after = serve_all(server, spikes)
        assert np.array_equal(before, first.classify_batch(spikes))
        assert np.array_equal(after, second.classify_batch(spikes))

    def test_push_weights_ships_in_place_mutations(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(40)
        with fleet(registry) as server:
            before = serve_all(server, spikes)
            # Mutate in place the way online learning does — through
            # the macros, then note_weight_update (bumps
            # weight_version) — and roll the snapshot out.
            tile = network.tiles[0]
            new = tile.weight_matrix()
            new[:, 0] ^= 1
            for rb, row in enumerate(tile.macros):
                for cb, macro in enumerate(row):
                    macro.load_weights(
                        tile.mapping.block_weights(new, rb, cb)
                    )
            tile.note_weight_update()
            versions = server.push_weights("demo")
            after = serve_all(server, spikes)
        assert versions == tuple(t.weight_version for t in network.tiles)
        assert np.array_equal(after, network.classify_batch(spikes))
        assert not np.array_equal(before, after)

    def test_a_model_registered_after_start_serves_once_pushed(self):
        """The workers were built at spawn: until ``push_weights``
        deploys a later model, its batches fail with a ServingError
        that says so."""
        registry = ModelRegistry()
        registry.register_network("demo", random_network(seed=0))
        late = random_network(seed=1)
        spikes = random_spikes(12)
        with fleet(registry) as server:
            registry.register_network("late", late)
            early = [server.submit("late", row) for row in spikes[:5]]
            for future in early:
                with pytest.raises(ServingError,
                                   match=r"push_weights\('late'\)"):
                    future.result(timeout=60)
            server.push_weights("late")
            futures = [server.submit("late", row) for row in spikes]
            served = [f.result(timeout=60) for f in futures]
        assert served == late.classify_batch(spikes).tolist()
        m = server.metrics
        assert (m.submitted, m.completed, m.failed) == (17, 12, 5)
        assert m.submitted == m.completed + m.failed + m.shed


# -- crash supervision ----------------------------------------------------------------


@pytest.mark.multiprocess
class TestCrashSupervision:
    def test_killed_worker_respawns_and_serving_continues(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(60)
        with fleet(registry, n_workers=2) as server:
            first = serve_all(server, spikes[:20])
            victim = server.describe()["workers"][0]
            os.kill(
                server._workers[victim["worker_id"]].process.pid,
                signal.SIGKILL,
            )
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                info = server.describe()["workers"][victim["worker_id"]]
                if info["respawns"] == 1 and info["ready"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker was not respawned")
            second = serve_all(server, spikes[20:])
        assert np.array_equal(first, network.classify_batch(spikes[:20]))
        assert np.array_equal(second, network.classify_batch(spikes[20:]))
        m = server.metrics
        assert m.submitted == m.completed + m.failed + m.shed == 60

    def test_exhausted_budget_removes_the_replica(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(40)
        server = fleet(
            registry, n_workers=2,
            supervisor=SupervisorPolicy(retry_budget=0),
        )
        with server:
            served = serve_all(server, spikes[:10])
            victim = sorted(server.live_workers())[0]
            os.kill(server._workers[victim].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if server.live_workers() == {1 - victim}:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("dead replica was not removed")
            # The survivor serves the whole stream, still bit-identical.
            rest = serve_all(server, spikes[10:])
        assert np.array_equal(served, network.classify_batch(spikes[:10]))
        assert np.array_equal(rest, network.classify_batch(spikes[10:]))
        m = server.metrics
        assert m.submitted == m.completed + m.failed + m.shed == 40

    def test_batch_held_while_a_replica_is_removed_is_not_lost(self):
        # Both slow workers are full and the dispatcher holds the next
        # batch when one replica dies for good.  The held batch must go
        # to the survivor (or fail explicitly), never to the removed
        # replica, and stop() must return.
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(24)
        server = fleet(
            registry, n_workers=2, chaos=slow_workers(200.0),
            supervisor=SupervisorPolicy(retry_budget=0),
            policy=BatchPolicy(max_batch_size=4, max_wait_ms=1.0),
        )
        server.start()
        futures = [server.submit("demo", row, slo_class="batch")
                   for row in spikes]
        deadline = time.monotonic() + 30
        while True:
            with server._cond:
                if (server._flushing and len(server._assigned)
                        == 2 * MAX_IN_FLIGHT):
                    break
            assert time.monotonic() < deadline, "no batch was ever held"
            time.sleep(0.002)
        os.kill(server._workers[0].process.pid, signal.SIGKILL)
        assert finishes(server.stop)
        assert server.live_workers() == {1}
        offline = network.classify_batch(spikes)
        failed = 0
        for row, future in enumerate(futures):
            error = future.exception(timeout=1.0)
            if error is None:
                assert future.result() == offline[row]
            else:
                assert isinstance(error, ServingError)
                assert isinstance(error.__cause__, WorkerCrashError)
                failed += 1
        m = server.metrics
        assert 0 < failed == m.failed
        assert m.submitted == m.completed + m.failed + m.shed == 24

    def test_fleet_metrics_label_replicas(self):
        metrics = ServingMetrics()
        with fleet(metrics=metrics) as server:
            serve_all(server, random_spikes(30))
        text = metrics.registry.to_text()
        assert "repro_fleet_batches_total" in text
        assert 'replica="' in text
        assert 'model="demo"' in text


# -- CLI ------------------------------------------------------------------------------


@pytest.mark.multiprocess
class TestFleetCli:
    def test_open_loop_fleet_run_verifies_and_reports(self, tmp_path,
                                                      capsys):
        from repro.serve.__main__ import main

        out = tmp_path / "report.json"
        code = main([
            "--rate", "120", "--duration", "1", "--open-loop",
            "--workers", "2", "--slo-class", "batch",
            "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "fleet of 2 workers" in captured
        assert "OK (bit-identical)" in captured
        import json

        report = json.loads(out.read_text())
        assert report["workers"] == 2
        assert report["open_loop"] is True
        assert report["slo_class"] == "batch"
        assert report["accounted"] is True
        assert report["verified_vs_offline"] is True
        assert len(report["fleet"]["workers"]) == 2
