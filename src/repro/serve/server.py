"""The serving core: admission, micro-batching, shedding, accounting.

``InferenceServer`` turns the batched engine into a traffic-serving
system.  Clients call :meth:`~InferenceServer.submit` (non-blocking,
returns a future) or :meth:`~InferenceServer.classify` (blocking
convenience), which adds each admitted request to its model's
:class:`~repro.serve.batcher.MicroBatcher`; a single dispatch thread
flushes every ready batch.  The in-process server flushes on the
dispatch thread itself, through the network's fast engine
(``engine_backend().classify_batch``).
:class:`~repro.serve.fleet.FleetServer` is the same server with its
flushes in worker processes: it overrides only ``_flush`` and the lane
lifecycle, so admission, SLO classes, batching, deadline shedding,
retries, chaos and accounting are this module's, for both.

Admission is per SLO class (:class:`SloClass`): each class bounds its
own in-flight depth — beyond it :meth:`~InferenceServer.submit` raises
:class:`~repro.errors.QueueFullError` without enqueueing anything — and
may give requests a default queueing deadline.  No admitted request is
ever dropped silently: every future is resolved with a prediction,
failed with the flush exception, failed with
:class:`~repro.errors.DeadlineExceededError` when its deadline expired
before dispatch (load shedding), or failed with
:class:`~repro.errors.ServingError` if the server stops without
draining or one of its threads dies.  At the end of any run,
``submitted == completed + failed + shed`` holds exactly (the metrics
invariant the chaos acceptance suite asserts).

Resilience hooks are all opt-in: a
:class:`~repro.resilience.policy.RetryPolicy` absorbs transient flush
failures with seeded backoff, a registry constructed with a
:class:`~repro.resilience.policy.BreakerPolicy` fail-fasts admission
per model while its circuit is open
(:class:`~repro.errors.ModelUnavailableError`), and a
:class:`~repro.resilience.chaos.ChaosPolicy` injects deterministic
flush faults and latency spikes for the acceptance tests.  Both run
inside :func:`flush_batch`, wherever the lane runs it.

The path from ``submit`` to the resolved future keeps CPython's
interpreter lock: a one-byte row is checked and copied with ``bytes``
methods (:func:`~repro.tile.network.validate_spikes`), and a batch is
one join of those copies (:func:`join_rows`).  numpy releases the
lock inside its loops, so a numpy check or ``np.stack`` would hand it
to another server thread and then wait to get it back.  Work is done
once per batch where it can be: ``submit`` wakes the dispatch thread
only for a new coalescing deadline or a size trigger, and a batch's
futures resolve from one ``tolist()`` with one metrics call.

Predictions are deterministic: ``infer_batch`` is split-invariant (a
property the test suite asserts), so however arrival timing partitions
a request stream into micro-batches, every request gets the same
prediction the offline ``classify_batch`` would give it.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ModelUnavailableError,
    QueueFullError,
    ServingError,
    _integer,
)
from repro.obs.trace import get_tracer
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import RetryPolicy
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.metrics import ServingMetrics
from repro.serve.registry import ModelRegistry
from repro.tile.network import validate_spikes

__all__ = [
    "DEFAULT_SLO_CLASSES", "InferenceServer", "SloClass", "flush_batch",
]


@dataclass(frozen=True)
class SloClass:
    """One admission class.

    ``max_queue_depth`` bounds how many requests of this class may be
    in flight at once (beyond it, :meth:`InferenceServer.submit` raises
    :class:`~repro.errors.QueueFullError`); ``deadline_ms``, when set,
    is the default queueing deadline applied to requests of the class
    that do not carry an explicit one — expired requests are shed, not
    served.
    """

    name: str
    max_queue_depth: int = 256
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SLO class name must be non-empty")
        object.__setattr__(
            self, "max_queue_depth",
            _integer("max_queue_depth", self.max_queue_depth),
        )
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.deadline_ms is not None:
            _check_deadline(self.deadline_ms)


def _check_deadline(deadline_ms: float) -> None:
    """Raise unless ``deadline_ms`` is a finite time after now.

    A NaN deadline would shed its request, and an infinite one is no
    deadline: both are configuration errors.
    """
    if not 0 < deadline_ms < math.inf:
        raise ConfigurationError(
            f"deadline_ms must be finite and > 0 when set, got {deadline_ms}"
        )


#: The stock admission classes the CLI exposes via ``--slo-class``.
#: ``batch`` tolerates deep queues (throughput work), ``default`` is
#: the balanced middle, ``interactive`` keeps queues shallow and sheds
#: anything that waited longer than 50 ms.
DEFAULT_SLO_CLASSES = {
    "batch": SloClass("batch", max_queue_depth=2048),
    "default": SloClass("default", max_queue_depth=256),
    "interactive": SloClass(
        "interactive", max_queue_depth=64, deadline_ms=50.0
    ),
}


@dataclass(slots=True)
class _Request:
    """One admitted classification request.

    ``spikes`` is the private read-only row :func:`validate_spikes`
    returns, so the caller's buffer is never queued.
    """

    model: str
    spikes: np.ndarray
    submitted_at: float
    #: Absolute clock time after which the request is shed instead of
    #: dispatched (``None`` = no deadline).
    deadline_at: float | None = None
    slo_class: str = "default"
    future: Future = field(default_factory=Future)


def _settle(future: Future, error: BaseException) -> bool:
    """Fail ``future`` unless it is already resolved; True if this did.

    ``Future`` resolves exactly once under its own lock, so when a
    crash path and a lane race to fail the same request, exactly one
    of them accounts for it.
    """
    try:
        future.set_exception(error)
    except InvalidStateError:
        return False
    return True


def join_rows(requests: list[_Request]) -> bytes:
    """The requests' admitted rows, one byte per spike, in one object.

    One ``bytes`` join keeps the interpreter lock, where ``np.stack``
    would hand it to the client threads inside its copy loop.  The
    fleet sends this object to its workers as it is.
    """
    return b"".join([request.spikes for request in requests])


def view_rows(rows: bytes, n_rows: int) -> np.ndarray:
    """:func:`join_rows`' bytes as a read-only ``(n_rows, n_in)`` bool
    array, without a copy."""
    return np.frombuffer(rows, np.bool_).reshape(n_rows, -1)


def flush_batch(backend, rows: np.ndarray, site: str,
                retry: RetryPolicy | None = None,
                chaos: ChaosPolicy | None = None, on_retry=None):
    """Classify one micro-batch: the flush every lane runs.

    The in-process server calls this on its dispatch thread, a fleet
    worker in its own process.  ``site`` names the batch
    (``"<model>/<flush index>"``) and keys the chaos schedule, which
    runs before each attempt; ``retry`` absorbs transient failures
    (``on_retry(attempt, error, delay_ms)`` fires before each backoff).
    No spike validation happens here: every row was validated once, at
    admission.
    """
    def attempt(number: int):
        if chaos is not None:
            chaos.on_flush(site, number)
        return backend.classify_batch(rows)

    if retry is None:
        return attempt(0)
    return retry.call(attempt, on_retry=on_retry)


class InferenceServer:
    """Micro-batching classification service over a model registry.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` holding the
        servable networks.  Must be non-empty before requests arrive.
    policy:
        The :class:`~repro.serve.batcher.BatchPolicy` applied per
        model (default: 64-image batches, 2 ms coalescing
        window).
    max_queue_depth:
        In-flight bound of the ``default`` SLO class — the class
        requests without an explicit one are admitted under; the
        explicit backpressure knob.  ``None`` keeps the class's own
        bound (256 for the stock classes).
    metrics:
        Optional externally-owned :class:`ServingMetrics` collector.
    retry:
        Optional :class:`RetryPolicy` applied to every micro-batch
        flush: transient failures (:data:`~repro.resilience.policy.
        TRANSIENT_ERRORS`) are retried with seeded backoff before the
        batch is failed.  Each absorbed retry is counted in
        ``metrics.retried`` and reported to the registry's circuit
        breaker.
    chaos:
        Optional :class:`ChaosPolicy`; when active, every flush attempt
        first runs the policy's deterministic fault schedule (latency
        spikes, injected flush errors).  Test-harness knob — leave
        ``None`` in real serving.
    slo_classes:
        Admission classes by name (default
        :data:`DEFAULT_SLO_CLASSES`).  Must contain ``"default"``.

    Spans go to the process-global tracer
    (:func:`~repro.obs.trace.set_tracer`), read at each batch.  Serve
    spans carry the server's ``clock``, so a trace that mixes them with
    engine spans wants a tracer on the same clock, as the CLIs' tracers
    are (``time.monotonic``).
    """

    def __init__(self, registry: ModelRegistry,
                 policy: BatchPolicy | None = None,
                 max_queue_depth: int | None = None,
                 metrics: ServingMetrics | None = None,
                 retry: RetryPolicy | None = None,
                 chaos: ChaosPolicy | None = None,
                 slo_classes: dict | None = None,
                 clock=time.monotonic) -> None:
        self.slo_classes = dict(slo_classes or DEFAULT_SLO_CLASSES)
        if "default" not in self.slo_classes:
            raise ConfigurationError(
                'slo_classes must contain a "default" class'
            )
        if max_queue_depth is not None:
            self.slo_classes["default"] = dataclasses.replace(
                self.slo_classes["default"], max_queue_depth=max_queue_depth
            )
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.metrics = metrics or ServingMetrics()
        self.retry = retry
        self.chaos = chaos if chaos is not None and chaos.active else None
        self._clock = clock
        #: One lock for all serving state: batchers, depths and (in the
        #: fleet) the workers' in-flight batches.
        self._cond = threading.Condition()
        self._batchers: dict[str, MicroBatcher] = {}
        self._flush_counts: dict[str, int] = {}
        #: Requests the dispatch thread has taken out of the batchers
        #: and not yet resolved or handed to a lane — kept so a crash
        #: mid-flush can still fail their futures.
        self._flushing: list[_Request] = []
        self._in_flight = 0
        self._class_depth = dict.fromkeys(self.slo_classes, 0)
        self._running = False
        self._failed = False
        self._drain_on_stop = True
        self._threads: list[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "InferenceServer":
        """Start serving (idempotent); returns once every lane is ready.

        Lanes start *before* any server thread, so a fleet forks its
        workers from a process running no other thread of ours.
        """
        with self._cond:
            if self._running:
                return self
        self._start_lanes()
        with self._cond:
            self._running = True
            self._failed = False
        self._threads = [
            threading.Thread(target=self._guard, args=(loop, name),
                             name=f"repro-serve-{name}", daemon=True)
            for loop, name in self._loops()
        ]
        self.metrics.mark_started()
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving.

        ``drain=True`` (default) serves every admitted request before
        returning; ``drain=False`` fails still-batched requests with
        :class:`ServingError` — either way nothing is silently lost.
        """
        with self._cond:
            if not self._running and not self._threads:
                return
            self._running = False
            self._drain_on_stop = drain
            self._cond.notify_all()
        self._wake()
        for thread in self._threads:
            thread.join()
        self._threads = []
        self._stop_lanes()
        self.metrics.mark_stopped()

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    @property
    def running(self) -> bool:
        return self._running

    @property
    def failed(self) -> bool:
        """Did a server thread die?  Terminal until :meth:`start`."""
        with self._cond:
            return self._failed

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet resolved."""
        with self._cond:
            return self._in_flight

    # -- client API -----------------------------------------------------------------

    def submit(self, model: str, spikes: np.ndarray,
               deadline_ms: float | None = None,
               slo_class: str = "default") -> Future:
        """Admit one request; returns a future resolving to the class.

        This is the single validation point: the SLO class, the
        deadline, the model name and the spike vector
        (:func:`validate_spikes`, exactly once — no lane re-checks) are
        all checked *before* admission.  The request queues the private
        copy of the row that check returns, so the caller may refill
        its buffer as soon as ``submit`` returns.  Raises
        :class:`QueueFullError` when the class's ``max_queue_depth``
        requests are already in flight (explicit backpressure — the
        request is not enqueued).  When the registry runs circuit
        breakers, an open circuit raises
        :class:`~repro.errors.ModelUnavailableError` instead of
        admitting a doomed request.

        ``deadline_ms`` (default: the class's deadline) bounds the
        request's queueing time: if the deadline has passed when the
        dispatch loop reaches the request, it is shed — its future
        fails with :class:`~repro.errors.DeadlineExceededError` without
        ever touching the engine, and the shed is counted in the
        metrics.
        """
        try:
            slo = self.slo_classes[slo_class]
        except KeyError:
            known = ", ".join(sorted(self.slo_classes))
            raise ConfigurationError(
                f"unknown SLO class {slo_class!r} (known: {known})"
            ) from None
        if deadline_ms is None:
            deadline_ms = slo.deadline_ms
        else:
            _check_deadline(deadline_ms)
        network = self.registry.get(model)
        spikes = validate_spikes(spikes, network.tiles[0].n_in)
        with self._cond:
            if self._failed:
                raise ServingError(
                    "the server crashed; restart it before submitting"
                )
            if not self._running:
                raise ServingError("the server is not running; call start()")
            depth = self._class_depth[slo.name]
            if depth >= slo.max_queue_depth:
                self.metrics.record_rejected()
                raise QueueFullError(
                    f"SLO class {slo.name!r} is full ({depth} in flight, "
                    f"max_queue_depth={slo.max_queue_depth}); retry later"
                )
            # Breaker gate *after* the depth check, so a half-open
            # probe slot is only consumed by a request that would
            # actually be admitted.
            try:
                self.registry.check(model)
            except ModelUnavailableError:
                self.metrics.record_broken_circuit()
                raise
            now = self._clock()
            request = _Request(
                model=model, spikes=spikes, submitted_at=now,
                deadline_at=(None if deadline_ms is None
                             else now + deadline_ms / 1e3),
                slo_class=slo.name,
            )
            self._class_depth[slo.name] = depth + 1
            self._in_flight += 1
            self.metrics.record_submitted(queue_depth=self._in_flight)
            batcher = self._batchers.get(model)
            if batcher is None:
                batcher = MicroBatcher(self.policy, clock=self._clock)
                self._batchers[model] = batcher
            pending = batcher.add(request, now=now)
            # Wake the dispatch thread only when this request changes
            # what it waits for: a first pending request brings a new
            # coalescing deadline, and a full batch a size trigger.  It
            # reads every batcher again after each flush, so no other
            # submit can make a batch ready while it waits.
            if pending == 1 or pending == self.policy.max_batch_size:
                self._cond.notify_all()
        return request.future

    def classify(self, model: str, spikes: np.ndarray,
                 timeout: float | None = 30.0) -> int:
        """Blocking single-request convenience around :meth:`submit`."""
        return self.submit(model, spikes).result(timeout=timeout)

    # -- lane hooks (the in-process lane; FleetServer overrides) --------------------

    def _start_lanes(self) -> None:
        """Bring every lane up; return only once all can take batches."""

    def _stop_lanes(self) -> None:
        """Tear the lanes down (server threads have already exited)."""

    def _loops(self) -> list:
        """``(thread body, name)`` of every server thread."""
        return [(self._dispatch_forever, "dispatch")]

    def _held(self) -> list[_Request]:
        """Take every request taken out of the batchers but not yet
        resolved.  (Call under the lock.)"""
        held, self._flushing = self._flushing, []
        return held

    def _wake(self) -> None:
        """Rouse lane threads that block outside the condition."""

    def _flush(self, model: str, requests: list[_Request],
               site: str) -> None:
        """Flush one batch on the dispatch thread and resolve it."""
        tracer = get_tracer()

        def on_retry(attempt, error, delay_ms) -> None:
            self.metrics.record_retried()
            self.registry.record_flush_failure(model)
            if tracer.enabled:
                at = self._clock()
                tracer.record("serve.retry", at, at, model=model,
                              attempt=attempt, delay_ms=delay_ms,
                              error=type(error).__name__)

        started = self._clock()
        error = None
        try:
            predictions = flush_batch(
                self.registry.get(model).engine_backend(),
                view_rows(join_rows(requests), len(requests)), site,
                retry=self.retry, chaos=self.chaos, on_retry=on_retry,
            )
        except Exception as caught:  # noqa: BLE001 - forwarded to callers
            error = caught
        done = self._clock()
        if tracer.enabled:
            tracer.record("serve.flush", started, done, model=model,
                          size=len(requests),
                          outcome="failed" if error else "completed")
        if error is None:
            self._complete(model, requests, predictions, done)
        else:
            self._fail(requests, error, model)

    # -- dispatch loop --------------------------------------------------------------

    def _guard(self, loop, name: str) -> None:
        """Thread body: the loop, wrapped so a crash is never silent.

        If a loop dies (a bug, or a test sabotaging it) every pending
        future is failed with :class:`ServingError` and the server
        enters a terminal ``failed`` state — no client is left waiting
        on a future nobody will ever resolve.
        """
        try:
            loop()
        except BaseException as error:  # noqa: BLE001 - must fail pending
            self._fail_pending(error, f"{name} thread")
            raise

    def _take_ready(self):
        """Pop one flushable batch into ``_flushing``; returns it as
        ``(model, requests)``, or ``None``.  (Under the lock.)"""
        now = self._clock()
        for model, batcher in self._batchers.items():
            if batcher.ready(now):
                self._flushing = batcher.take()
                return model, self._flushing
        return None

    def _wait_s(self) -> float | None:
        """Seconds until the next coalescing deadline; ``None`` waits
        for a notify.  (Under the lock.)"""
        deadlines = [
            batcher.next_deadline()
            for batcher in self._batchers.values() if len(batcher)
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - self._clock())

    def _dispatch_forever(self) -> None:
        while True:
            with self._cond:
                # submit() batches under this lock and rejects once
                # _running is false, so the shutdown flush sees the
                # complete final state.
                if not self._running:
                    break
                job = self._take_ready()
                if job is None:
                    self._cond.wait(self._wait_s())
                    continue
            self._run_batch(*job)
            self._flushing = []
        self._shutdown_flush()

    def _shutdown_flush(self) -> None:
        """Resolve everything still batched after stop().

        With ``drain=False`` nothing is inferred — not even
        deadline-expired batches — so an abort returns promptly no
        matter how deep the backlog or how slow the engine.
        """
        with self._cond:
            tails = [
                (model, batch)
                for model, batcher in self._batchers.items()
                for batch in batcher.drain()
            ]
            self._flushing = [r for _, batch in tails for r in batch]
        abandoned = ServingError(
            "server stopped without draining; request abandoned"
        )
        for model, batch in tails:
            if self._drain_on_stop:
                self._run_batch(model, batch)
            else:
                self._fail(batch, abandoned)
        self._flushing = []
        self._wake()

    def _run_batch(self, model: str, requests: list[_Request]) -> None:
        """Shed the deadline-expired requests, flush the rest.

        Shed requests fail with :class:`DeadlineExceededError` and never
        reach the engine; the live rest is traced and flushed under a
        ``"<model>/<flush index>"`` site name.
        """
        now = self._clock()
        live: list[_Request] = []
        shed: list[_Request] = []
        for request in requests:
            if request.deadline_at is None or request.deadline_at > now:
                live.append(request)
            elif _settle(request.future, DeadlineExceededError(
                    f"deadline expired "
                    f"{(now - request.deadline_at) * 1e3:.1f} ms before "
                    "dispatch; request shed")):
                shed.append(request)
        if shed:
            self.metrics.record_shed(len(shed))
            self._release(shed)
        if not live:
            return
        tracer = get_tracer()
        if tracer.enabled:
            # Serve spans use the server's clock: a queue wait starts
            # at submit time, before any flush-scoped span could open.
            assembled = min(r.submitted_at for r in live)
            tracer.record("serve.batch_assembly", assembled, now,
                          model=model, size=len(live))
            for request in live:
                tracer.record("serve.queue_wait", request.submitted_at,
                              now, model=model)
        index = self._flush_counts.get(model, 0)
        self._flush_counts[model] = index + 1
        self._flush(model, live, f"{model}/{index}")

    # -- resolution -----------------------------------------------------------------

    def _complete(self, model: str, requests: list[_Request], predictions,
                  done: float) -> None:
        """A lane answered the batch: resolve every future."""
        self.registry.record_flush_success(model)
        self.metrics.record_batch([done - r.submitted_at for r in requests])
        for request, prediction in zip(requests, predictions.tolist()):
            request.future.set_result(prediction)
        self._release(requests)

    def _fail(self, requests: list[_Request], error: BaseException,
              model: str | None = None) -> None:
        """Fail every still-unresolved future with ``error``.

        ``model`` names a failed flush, which counts against the
        model's circuit breaker.  Only the requests this call resolved
        are counted, so a crash path failing a batch its lane is also
        failing can never count a request twice.
        """
        if model is not None:
            self.registry.record_flush_failure(model)
        failed = [r for r in requests if _settle(r.future, error)]
        if failed:
            self.metrics.record_failed(len(failed))
            self._release(failed)

    def _release(self, requests: list[_Request]) -> None:
        """Account resolved requests out of the in-flight depths."""
        with self._cond:
            self._in_flight -= len(requests)
            for request in requests:
                self._class_depth[request.slo_class] -= 1
            self._cond.notify_all()

    def _fail_pending(self, error: BaseException, where: str) -> None:
        """``where`` died: fail every admitted-but-unresolved future."""
        failure = ServingError(
            f"the {where} crashed ({type(error).__name__}: {error}); "
            "pending requests abandoned"
        )
        failure.__cause__ = error
        with self._cond:
            if self._failed:
                return
            self._failed = True
            self._running = False
            pending = self._held()
            for batcher in self._batchers.values():
                for batch in batcher.drain():
                    pending.extend(batch)
            self._cond.notify_all()
        self._wake()
        self._fail(pending, failure)
