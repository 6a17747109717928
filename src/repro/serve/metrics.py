"""Serving metrics: latency percentiles, histograms, achieved rate.

The serving layer's contract is a latency SLO, so its primary output is
a distribution, not an average: per-request latency samples roll up
into p50/p95/p99, and the batcher's behaviour is visible through exact
batch-size and queue-depth histograms.  A :class:`ServingMetrics`
instance is thread-safe (clients submit and the dispatch thread
completes concurrently) and exports everything as a plain dict so the
CLI and ``BENCH_serving.json`` can serialize it directly.  Admission
is recorded per request (:meth:`~ServingMetrics.record_submitted`),
completion per answered batch (:meth:`~ServingMetrics.record_batch`:
its size, its completions and each rider's latency in one call).

Every count is a plain integer kept under :attr:`ServingMetrics.lock`,
and a server builds its condition on that lock: admission counts a
request under the one lock it already holds, and takes no instrument
or registry lock per request.  The counts reach the registry when it
is read: :class:`ServingMetrics` is a *view* over a
:class:`~repro.obs.metrics.MetricRegistry`, which has them handed over
before every export (:meth:`~repro.obs.metrics.MetricRegistry.
add_collector`), and every counter attribute (``submitted`` ..
``broken_circuit``) reads its registry counter after the hand-over.
The registry keeps the pending counts, not the collector, so the
counts of a collector that is dropped unstopped still reach its next
export; a read of one serving instrument on its own sees what the
last export handed over.  The batch-size and queue-depth histograms
are exact registry histograms fed the same way.  Latencies feed a
bucketed registry histogram once per answered batch, alongside a
window of the most recent :data:`LATENCY_WINDOW` samples, which the
percentiles are computed from.  The historical attribute/dict API is unchanged; the
registry adds a Prometheus-style text export
(``metrics.registry.to_text()``, the CLI's ``--metrics-out``).  By
default each collector owns a private registry; passing a shared one
(e.g. :func:`repro.obs.get_registry`) merges the serving series into
it — two collectors sharing a registry add into the same instruments.
"""

from __future__ import annotations

import collections
import functools
import json
import threading
import time

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricRegistry

#: The latency percentiles the serving SLO is stated over.
SLO_PERCENTILES = (50.0, 95.0, 99.0)

#: Latencies the percentiles are computed over: the most recent ones,
#: so a long-running server's memory and snapshot cost stay bounded.
#: ``mean_ms`` and ``max_ms`` still cover every completion.
LATENCY_WINDOW = 65_536

#: Cumulative latency-histogram bucket bounds (milliseconds).
LATENCY_BUCKETS_MS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                      250.0, 500.0, 1000.0)

#: Counter attribute -> registry counter name.  The attribute names
#: are the public API (``metrics.submitted`` etc.); the registry names
#: are what ``--metrics-out`` exports.
COUNTER_NAMES = {
    "submitted": "repro_serving_submitted_total",
    "completed": "repro_serving_completed_total",
    "failed": "repro_serving_failed_total",
    "rejected": "repro_serving_rejected_total",
    "shed": "repro_serving_shed_total",
    "retried": "repro_serving_retried_total",
    "broken_circuit": "repro_serving_broken_circuit_total",
}


def _publish(lock, counts: dict, counters: dict, histograms) -> None:
    """Hand every count not yet in the registry to its instrument.

    ``counts`` maps a counter attribute to its pending count,
    ``counters`` the attribute to its instrument, and ``histograms``
    pairs each pending ``{value: count}`` dict with its histogram.  It
    holds no :class:`ServingMetrics`: the registry keeps it, so counts
    still pending when their collector is dropped reach the next export.
    """
    with lock:
        for attr, count in counts.items():
            if count:
                counters[attr].inc(count)
                counts[attr] = 0
        for pending, histogram in histograms:
            for value, count in pending.items():
                histogram.observe(value, count)
            pending.clear()


def latency_percentiles(samples_ms, percentiles=SLO_PERCENTILES) -> dict:
    """Percentiles of a latency trace, in milliseconds.

    Linear interpolation between order statistics (numpy's default), so
    ``p50`` of ``[10, 20, ..., 100]`` is 55.0 — the test suite pins
    this against hand-computed traces.  An empty trace raises
    :class:`ConfigurationError`; the empty-*window* behaviour (a
    collector with no requests yet) is defined by
    :meth:`ServingMetrics.percentiles`, which returns explicit
    ``None`` values instead.
    """
    samples = np.asarray(list(samples_ms), dtype=np.float64)
    if samples.size == 0:
        raise ConfigurationError("no latency samples to summarize")
    values = np.percentile(samples, percentiles)
    return {
        f"p{pct:g}_ms": float(value)
        for pct, value in zip(percentiles, values)
    }


class ServingMetrics:
    """Thread-safe collector for one serving run.

    Records the admission counters (submitted / completed / failed /
    shed), the fail-fast counters (rejected / broken_circuit), the
    retry counter, per-request latencies, and exact histograms of
    flushed batch sizes and queue depth observed at submit time.
    p50/p95/p99 cover the last :data:`LATENCY_WINDOW` latencies; the
    latency mean (from the latency histogram's sum and count) and
    maximum cover every completion.

    Accounting invariant — no admitted request is ever silently
    dropped, so at the end of any drained run::

        submitted == completed + failed + shed

    ``rejected`` counts :class:`~repro.errors.QueueFullError`
    backpressure events and ``broken_circuit`` counts
    :class:`~repro.errors.ModelUnavailableError` fail-fasts — neither
    was admitted, so they appear in no other counter.  ``shed`` counts
    admitted requests failed with
    :class:`~repro.errors.DeadlineExceededError` before dispatch
    (explicit load shedding), and ``retried`` counts transient flush
    failures absorbed by the
    :class:`~repro.resilience.policy.RetryPolicy`.

    **Empty-window contract** (pinned by the test suite): a collector
    that has seen no requests still exports a complete, valid
    snapshot — every counter ``0``, both histograms empty,
    ``elapsed_s``/``achieved_inf_s`` ``0.0``, and ``latency`` /
    ``mean_batch_size`` explicitly ``None`` (never ``NaN``, never a
    missing key, never an exception).
    """

    def __init__(self, clock=time.perf_counter,
                 registry: MetricRegistry | None = None) -> None:
        self._clock = clock
        #: The lock every count is kept under.  An
        #: :class:`~repro.serve.server.InferenceServer` builds its
        #: condition on it, so it records while holding it.
        self.lock = threading.RLock()
        self.registry = registry if registry is not None else MetricRegistry()
        self._counters = {
            attr: self.registry.counter(name)
            for attr, name in COUNTER_NAMES.items()
        }
        self._batch_sizes = self.registry.histogram(
            "repro_serving_batch_size"
        )
        self._queue_depths = self.registry.histogram(
            "repro_serving_queue_depth"
        )
        self._latency_hist = self.registry.histogram(
            "repro_serving_latency_ms", buckets=LATENCY_BUCKETS_MS
        )
        #: Counts not yet handed to the registry (see :func:`_publish`).
        self._counts = dict.fromkeys(COUNTER_NAMES, 0)
        self._batch_size_counts: dict[int, int] = {}
        self._queue_depth_counts: dict[int, int] = {}
        self._publish = functools.partial(
            _publish, self.lock, self._counts, self._counters,
            ((self._batch_size_counts, self._batch_sizes),
             (self._queue_depth_counts, self._queue_depths)),
        )
        self._latencies_ms: collections.deque[float] = collections.deque(
            maxlen=LATENCY_WINDOW
        )
        self._max_latency_ms = 0.0
        self._started_at: float | None = None
        self._stopped_at: float | None = None
        self.registry.add_collector(self._publish)

    def _count(self, attr: str) -> int:
        with self.lock:
            self._publish()
            return int(self._counters[attr].value)

    # -- counter views (the historical attribute API) --------------------------------

    @property
    def submitted(self) -> int:
        return self._count("submitted")

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def rejected(self) -> int:
        return self._count("rejected")

    @property
    def shed(self) -> int:
        return self._count("shed")

    @property
    def retried(self) -> int:
        return self._count("retried")

    @property
    def broken_circuit(self) -> int:
        return self._count("broken_circuit")

    # -- recording (called by the server and its clients) ---------------------------

    def mark_started(self) -> None:
        with self.lock:
            self._started_at = self._clock()
            self._stopped_at = None

    def mark_stopped(self) -> None:
        with self.lock:
            self._stopped_at = self._clock()

    def record_submitted(self, queue_depth: int) -> None:
        queue_depth = int(queue_depth)
        depths = self._queue_depth_counts
        with self.lock:
            self._counts["submitted"] += 1
            depths[queue_depth] = depths.get(queue_depth, 0) + 1

    def record_rejected(self) -> None:
        self._add("rejected", 1)

    def record_batch(self, latencies_s) -> None:
        """One answered batch: its size, and each rider's latency."""
        latencies_ms = [latency * 1e3 for latency in latencies_s]
        size = len(latencies_ms)
        self._latency_hist.observe_all(latencies_ms)
        sizes = self._batch_size_counts
        with self.lock:
            self._counts["completed"] += size
            sizes[size] = sizes.get(size, 0) + 1
            self._latencies_ms.extend(latencies_ms)
            self._max_latency_ms = max([self._max_latency_ms, *latencies_ms])

    def record_failed(self, count: int = 1) -> None:
        self._add("failed", count)

    def record_shed(self, count: int = 1) -> None:
        """Admitted requests failed fast because their deadline expired."""
        self._add("shed", count)

    def record_retried(self, count: int = 1) -> None:
        """Transient flush failures absorbed by the retry policy."""
        self._add("retried", count)

    def record_broken_circuit(self, count: int = 1) -> None:
        """Submissions failed fast because the model's circuit is open."""
        self._add("broken_circuit", count)

    def _add(self, attr: str, count: int) -> None:
        if count < 0:
            raise ConfigurationError(
                f"serving counts cannot decrease ({attr} += {count})"
            )
        with self.lock:
            self._counts[attr] += count

    # -- roll-ups --------------------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Wall-clock seconds between start and stop (or now)."""
        with self.lock:
            if self._started_at is None:
                return 0.0
            end = self._stopped_at if self._stopped_at is not None else self._clock()
            return max(0.0, end - self._started_at)

    @property
    def achieved_inf_s(self) -> float:
        """Completed inferences per wall-clock second."""
        elapsed = self.elapsed_s
        if elapsed <= 0.0:
            return 0.0
        return self.completed / elapsed

    def percentiles(self) -> dict:
        """p50/p95/p99 of the latency window; all-``None`` before any
        request.

        The empty window is a defined state, not an error: a scraper
        reading a just-started server gets ``{"p50_ms": None, ...}``
        rather than a crash or NaN.
        """
        with self.lock:
            samples = list(self._latencies_ms)
        if not samples:
            return {f"p{pct:g}_ms": None for pct in SLO_PERCENTILES}
        return latency_percentiles(samples)

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every counter, histogram and roll-up.

        Always complete: ``latency`` and ``mean_batch_size`` are
        ``None`` (JSON ``null``) until the first completion / flush,
        so consumers can rely on the keys existing in every snapshot.
        """
        with self.lock:
            self._publish()
            samples = list(self._latencies_ms)
            max_ms = self._max_latency_ms
        batch_sizes = self._batch_sizes.counts()
        queue_depths = self._queue_depths.counts()
        counters = {attr: getattr(self, attr) for attr in COUNTER_NAMES}
        out = {
            **counters,
            "elapsed_s": round(self.elapsed_s, 6),
            "achieved_inf_s": round(self.achieved_inf_s, 2),
            "batch_size_hist": {str(k): v for k, v in batch_sizes.items()},
            "queue_depth_hist": {str(k): v for k, v in queue_depths.items()},
            "latency": None,
            "mean_batch_size": None,
        }
        if samples:
            out["latency"] = {
                **latency_percentiles(samples),
                "mean_ms": self._latency_hist.sum / self._latency_hist.count,
                "max_ms": max_ms,
            }
        flushes = self._batch_sizes.count
        if flushes:
            out["mean_batch_size"] = float(self._batch_sizes.sum / flushes)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        """One human-readable block (the CLI's closing report)."""
        data = self.to_dict()
        lines = [
            f"requests: {data['submitted']} submitted, "
            f"{data['completed']} completed, {data['failed']} failed, "
            f"{data['shed']} shed (deadline), "
            f"{data['rejected']} rejected (backpressure), "
            f"{data['broken_circuit']} broken-circuit",
            f"throughput: {data['achieved_inf_s']:,.0f} inf/s over "
            f"{data['elapsed_s']:.2f}s",
        ]
        if data["retried"]:
            lines.append(f"transient flush retries: {data['retried']}")
        if data["latency"] is not None:
            lat = data["latency"]
            lines.append(
                f"latency: p50 {lat['p50_ms']:.2f} ms, "
                f"p95 {lat['p95_ms']:.2f} ms, p99 {lat['p99_ms']:.2f} ms"
            )
        if data["mean_batch_size"] is not None:
            lines.append(f"mean batch size: {data['mean_batch_size']:.1f}")
        return "\n".join(lines)
