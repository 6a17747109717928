"""Serving-layer resilience: deadlines, retries, breakers, crash safety.

White-box where determinism demands it (deadline shedding against an
injected clock), end-to-end everywhere else: a real server over a real
random network, driven through injected flush faults, open circuits, a
sabotaged dispatch loop and a multi-threaded backpressure hammer.  The
invariant under test throughout: every admitted request resolves or
fails *explicitly*, and ``submitted == completed + failed + shed``.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    ModelUnavailableError,
    QueueFullError,
    ServingError,
)
from repro.resilience import BreakerPolicy, ChaosPolicy, RetryPolicy
from repro.serve import (
    BatchPolicy,
    FleetServer,
    InferenceServer,
    ModelRegistry,
    SloClass,
)
from repro.serve.server import _Request
from repro.tile.network import validate_spikes

from tests.test_serve import (
    SERVER_KINDS,
    FakeClock,
    random_network,
    random_spikes,
)

pytestmark = pytest.mark.serve


def make_stack(*, breaker=None, retry=None, chaos=None, clock=None,
               max_queue_depth=256, max_wait_ms=0.0, seed=0,
               kind="inproc"):
    """A registry + server over one small random network."""
    registry = ModelRegistry(
        breaker=breaker, clock=clock or time.monotonic
    )
    network = random_network(seed=seed)
    registry.register_network("m", network)
    server_cls = FleetServer if kind == "fleet" else InferenceServer
    server = server_cls(
        registry,
        policy=BatchPolicy(max_batch_size=16, max_wait_ms=max_wait_ms),
        max_queue_depth=max_queue_depth,
        retry=retry, chaos=chaos,
    )
    return registry, network, server


def accounting(metrics) -> tuple[int, int]:
    data = metrics.to_dict()
    return (data["submitted"],
            data["completed"] + data["failed"] + data["shed"])


# -- deadlines & load shedding --------------------------------------------------------


class TestDeadlines:
    def test_rejects_non_positive_deadline(self):
        _, _, server = make_stack()
        with server:
            with pytest.raises(ConfigurationError):
                server.submit("m", random_spikes(1)[0], deadline_ms=0.0)
            # A NaN deadline would shed the request, an infinite one
            # is no deadline.
            for deadline_ms in (math.nan, math.inf):
                with pytest.raises(ConfigurationError, match="finite"):
                    server.submit("m", random_spikes(1)[0],
                                  deadline_ms=deadline_ms)
        assert server.metrics.submitted == 0

    @pytest.mark.parametrize("deadline_ms", [math.nan, math.inf])
    def test_slo_class_rejects_a_non_finite_deadline(self, deadline_ms):
        with pytest.raises(ConfigurationError, match="finite"):
            SloClass("x", deadline_ms=deadline_ms)

    def test_expired_requests_are_shed_before_dispatch(self):
        # White-box against an injected clock: one request's deadline
        # expires before the flush, its batchmate's does not.
        clock = FakeClock()
        _, _, server = make_stack()
        server._clock = clock
        spikes = [validate_spikes(row, 64) for row in random_spikes(2)]
        doomed = _Request(model="m", spikes=spikes[0], submitted_at=0.0,
                          deadline_at=0.5)
        alive = _Request(model="m", spikes=spikes[1], submitted_at=0.0,
                         deadline_at=5.0)
        with server._cond:
            server._in_flight = 2
        clock.advance(1.0)
        server._run_batch("m", [doomed, alive])
        with pytest.raises(DeadlineExceededError):
            doomed.future.result(timeout=0)
        assert alive.future.result(timeout=0) >= 0
        assert server.metrics.shed == 1
        assert server.metrics.completed == 1
        assert server.in_flight == 0

    def test_end_to_end_shedding_is_accounted(self):
        # A 50 ms coalescing window guarantees the 1 ms deadline is
        # long gone by flush time — every request is shed, none served.
        _, _, server = make_stack(max_wait_ms=50.0)
        spikes = random_spikes(4)
        with server:
            futures = [
                server.submit("m", row, deadline_ms=1.0) for row in spikes
            ]
            time.sleep(0.01)
        for future in futures:
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5.0)
        data = server.metrics.to_dict()
        assert data["shed"] == len(spikes)
        assert data["completed"] == 0
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]

    def test_undeadlined_requests_never_shed(self):
        _, network, server = make_stack()
        spikes = random_spikes(8)
        with server:
            futures = [server.submit("m", row) for row in spikes]
            served = [f.result(timeout=10.0) for f in futures]
        offline = network.classify_batch(spikes)
        assert served == [int(p) for p in offline]
        assert server.metrics.shed == 0


# -- retry policy on the flush path ---------------------------------------------------


@pytest.mark.parametrize("kind", SERVER_KINDS)
class TestFlushRetries:
    def test_transient_faults_are_absorbed_and_counted(self, kind):
        # Sites m/0..m/41 each succeed within 5 attempts under this
        # schedule, and 32 requests make at most 32 batches.
        chaos = ChaosPolicy(seed=3, flush_error_p=0.4)
        retry = RetryPolicy(retries=4, base_delay_ms=0.0)
        _, network, server = make_stack(chaos=chaos, retry=retry, kind=kind)
        spikes = random_spikes(32)
        with server:
            futures = [server.submit("m", row) for row in spikes]
            served = [f.result(timeout=10.0) for f in futures]
        # Every request completed despite injected faults, and the
        # served predictions are bit-identical to offline.
        assert served == [int(p) for p in network.classify_batch(spikes)]
        data = server.metrics.to_dict()
        assert data["failed"] == 0
        assert data["retried"] > 0
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]

    def test_exhausted_retries_fail_the_batch_explicitly(self, kind):
        # flush_error_p=1.0 defeats any retry budget; the error reaches
        # the caller — across the process boundary too — and the
        # accounting still balances.
        chaos = ChaosPolicy(seed=3, flush_error_p=1.0)
        retry = RetryPolicy(retries=2, base_delay_ms=0.0)
        _, _, server = make_stack(chaos=chaos, retry=retry, kind=kind)
        with server:
            future = server.submit("m", random_spikes(1)[0])
            with pytest.raises(InjectedFaultError):
                future.result(timeout=10.0)
        data = server.metrics.to_dict()
        assert data["failed"] == 1
        assert data["retried"] == 2
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]


# -- circuit breaker ------------------------------------------------------------------


class TestCircuitBreaking:
    def test_open_circuit_fails_fast_then_probe_recovers(self, monkeypatch):
        clock = FakeClock()
        breaker = BreakerPolicy(failure_threshold=2, cooldown_s=10.0)
        registry, network, server = make_stack(breaker=breaker, clock=clock)
        spikes = random_spikes(8)

        boom = True
        real = network.engine_backend("fast")

        class FlakyBackend:
            def classify_batch(self, batch):
                if boom:
                    raise InjectedFaultError("injected")
                return real.classify_batch(batch)

        # The server flushes through engine_backend() (validation already
        # happened at submit), so faults are injected at the backend seam.
        monkeypatch.setattr(
            network, "engine_backend", lambda engine="fast", **kw: FlakyBackend()
        )
        with server:
            # Two failed flushes open the circuit.
            for i in range(2):
                with pytest.raises(InjectedFaultError):
                    server.classify("m", spikes[i], timeout=10.0)
            assert registry.circuit_state("m") == "open"
            with pytest.raises(ModelUnavailableError):
                server.submit("m", spikes[2])
            assert server.metrics.broken_circuit == 1
            # Cooldown over: exactly one half-open probe is admitted.
            clock.advance(10.0)
            boom = False
            assert server.classify("m", spikes[3], timeout=10.0) >= 0
            assert registry.circuit_state("m") == "closed"
            assert server.classify("m", spikes[4], timeout=10.0) >= 0
        # Rejected submissions were never admitted, so they are absent
        # from the admission accounting.
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]

    def test_swap_resets_the_breaker(self):
        clock = FakeClock()
        breaker = BreakerPolicy(failure_threshold=1, cooldown_s=1e9)
        registry = ModelRegistry(breaker=breaker, clock=clock)
        registry.register_network("m", random_network(seed=0))
        registry.record_flush_failure("m")
        assert registry.circuit_state("m") == "open"
        with pytest.raises(ModelUnavailableError):
            registry.check("m")
        registry.swap("m", random_network(seed=1))
        assert registry.circuit_state("m") == "closed"
        registry.check("m")

    def test_registry_reads_half_open_after_the_cooldown(self):
        clock = FakeClock()
        breaker = BreakerPolicy(failure_threshold=1, cooldown_s=5.0)
        registry = ModelRegistry(breaker=breaker, clock=clock)
        registry.register_network("m", random_network())
        registry.record_flush_failure("m")
        assert registry.circuit_state("m") == "open"
        clock.advance(4.9)
        assert registry.circuit_state("m") == "open"
        clock.advance(0.1)
        assert registry.circuit_state("m") == "half-open"
        assert registry.describe()[0]["circuit"] == "half-open"

    def test_describe_reports_circuit_state(self):
        registry = ModelRegistry(breaker=BreakerPolicy(failure_threshold=1))
        registry.register_network("m", random_network())
        assert registry.describe()[0]["circuit"] == "closed"
        ungated = ModelRegistry()
        ungated.register_network("m", random_network())
        assert "circuit" not in ungated.describe()[0]
        assert ungated.circuit_state("m") is None
        ungated.record_flush_failure("m")  # no-op without a policy
        ungated.check("m")


# -- dispatch-thread crash ------------------------------------------------------------


class TestDispatchCrash:
    # The dispatch thread deliberately re-raises after failing the
    # pending futures (so real deployments log the crash); pytest
    # would report that as an unhandled thread exception.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_crash_fails_pending_and_is_terminal(self, monkeypatch):
        _, _, server = make_stack()

        def sabotaged(model, requests):
            raise RuntimeError("dispatch bug")

        monkeypatch.setattr(server, "_run_batch", sabotaged)
        server.start()
        future = server.submit("m", random_spikes(1)[0])
        with pytest.raises(ServingError, match="dispatch thread crashed"):
            future.result(timeout=10.0)
        assert server.failed
        assert not server.running
        assert server.in_flight == 0
        # Terminal: further submissions are rejected with the distinct
        # crashed-state message until the server is restarted.
        with pytest.raises(ServingError, match="crashed"):
            server.submit("m", random_spikes(1)[0])
        data = server.metrics.to_dict()
        assert data["failed"] == data["submitted"] == 1
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]
        server.stop()  # must not hang or raise


# -- backpressure hammer --------------------------------------------------------------


class TestBackpressureHammer:
    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_hammer_never_exceeds_depth_and_loses_nothing(self, kind):
        depth = 16
        n_threads, per_thread = 8, 40
        _, network, server = make_stack(
            max_queue_depth=depth, max_wait_ms=0.5, kind=kind,
        )
        spikes = random_spikes(n_threads * per_thread)
        offline = network.classify_batch(spikes)
        results = np.full(len(spikes), -1, dtype=np.int64)
        errors: list[Exception] = []

        def hammer(k: int) -> None:
            try:
                for i in range(k * per_thread, (k + 1) * per_thread):
                    while True:
                        try:
                            future = server.submit("m", spikes[i])
                            break
                        except QueueFullError:
                            time.sleep(0.0005)
                    results[i] = future.result(timeout=30.0)
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        # A short switch interval interleaves client, dispatch and
        # collector threads finely enough to expose a lost update.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [
                    threading.Thread(target=hammer, args=(k,))
                    for k in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert server.in_flight == 0
        # No admitted request was lost or reordered across threads.
        assert np.array_equal(results, offline)
        data = server.metrics.to_dict()
        assert data["submitted"] == len(spikes)
        assert data["completed"] == len(spikes)
        assert data["failed"] == data["shed"] == 0
        # The observed queue depth never exceeded the bound.
        max_depth = max(int(k) for k in data["queue_depth_hist"])
        assert max_depth <= depth


# -- wake-ups -------------------------------------------------------------------------


class TestSizeTrigger:
    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_size_trigger_alone_releases_every_batch(self, kind):
        # The coalescing deadline lies far beyond the test's bound and
        # each round of open-loop clients submits one batch, so only
        # the size trigger can release it: a submit that fills the
        # batch while the dispatch thread waits, without waking it,
        # leaves the batch pending for good.
        n_threads, rounds = (os.cpu_count() or 1) + 2, 24
        _, network, server = make_stack(max_wait_ms=600_000.0, kind=kind)
        per_round = server.policy.max_batch_size
        spikes = random_spikes(rounds * per_round)
        futures = [None] * len(spikes)

        def client(start: int, k: int) -> None:
            # Client k takes every n_threads-th request of the round, so
            # a round is exactly one batch whatever the thread count.
            for i in range(start + k, start + per_round, n_threads):
                futures[i] = server.submit("m", spikes[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                for start in range(0, len(spikes), per_round):
                    threads = [
                        threading.Thread(target=client, args=(start, k))
                        for k in range(n_threads)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10.0)
                    assert not any(thread.is_alive() for thread in threads)
                    _, pending = wait(futures[start:start + per_round],
                                      timeout=10.0)
                    assert not pending, (
                        f"{len(pending)} requests of round "
                        f"{start // per_round} were never flushed"
                    )
        finally:
            sys.setswitchinterval(interval)
        served = [future.result() for future in futures]
        assert served == network.classify_batch(spikes).tolist()
        assert server.metrics.submitted == len(spikes)
        assert server.metrics.completed == len(spikes)


# -- public API -----------------------------------------------------------------------


class TestPublicApi:
    def test_error_classes_are_exported(self):
        for name in ("DeadlineExceededError", "ModelUnavailableError",
                     "WorkerCrashError", "InjectedFaultError",
                     "QueueFullError", "ServingError"):
            assert name in repro.__all__
            assert issubclass(getattr(repro, name), Exception)
        assert issubclass(repro.DeadlineExceededError, repro.ServingError)
        assert issubclass(repro.ModelUnavailableError, repro.ServingError)

    def test_resilience_package_surface(self):
        from repro import resilience

        for name in resilience.__all__:
            assert getattr(resilience, name) is not None
