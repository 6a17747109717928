"""Serving phases: paced open-loop ladder plus saturation, in-process and fleet.

One generator thread (the benchmark's main thread) drives each server,
in slices spread over the whole run:

1. **ladder** -- Poisson arrivals on a seeded schedule at each rate of
   :data:`LADDER`.  Each request is timed from when it was *due*, so a
   stall in the server or the generator counts against every request it
   delays; how late the generator itself ran is reported apart.  A
   request the server refuses (``QueueFullError``) is dropped and counts
   as an error.
2. **saturation** -- windows of :data:`SAT_WINDOW` requests submitted as
   fast as admission allows (backpressure is retried after one batching
   interval, as ``python -m repro.serve --open-loop`` does).  The window
   rate is requests / (last answer - first submit); the median window is
   reported.

The fleet serves the same traces through ``FleetServer(n_workers=1,
slo_class="batch")``.  Server start (for the fleet: until its worker
reports ready) and stop are timed on their own and kept out of steady
state, which begins once a first request has been answered.  At the end
every served prediction is compared with an offline ``classify_batch`` of
the same rows, and ``submitted == completed + failed + shed`` is checked.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from repro.errors import QueueFullError, ReproError
from repro.serve import BatchPolicy, FleetServer, InferenceServer, ModelRegistry
from repro.sram.bitcell import CellType
from repro.sweep.spec import DesignPoint
from repro.tile.backends.bitpacked import pack_spike_rows

from perfbench.inputs import RowStream, poisson_schedule
from perfbench.layers import durations_ms, median_self_ms, select, self_times
from perfbench.stats import RowTracker, median, percentile, summarize

MODEL = "esam"
POLICY = BatchPolicy(max_batch_size=64, max_wait_ms=2.0)
#: In-process admission bound: the depth of the fleet's ``batch`` SLO
#: class, so both servers refuse work at the same backlog.
INPROC_QUEUE_DEPTH = 2048
#: Offered rates of the paced ladder, requests/s.
LADDER = (1000.0, 2000.0, 4000.0)
#: The ladder rate the end-to-end latency figures are quoted at.
LATENCY_RATE = 2000.0
#: Latency objective: p99 from due time, milliseconds.
SLO_P99_MS = 20.0
SAT_WINDOW = 2048
#: Share of a serving phase's budget spent on the ladder.
LADDER_SHARE = 0.6
#: Start/stop cycles timed per server kind (the last one also serves).
LIFECYCLE_CYCLES = 3
RESULT_TIMEOUT_S = 60.0
#: Repetitions of the 64-row ``pack_spike_rows`` timing.
PACK_REPEATS = 200
#: Rows per offline ``classify_batch`` call when checking served answers.
VERIFY_CHUNK = 4096


def _stamp(done: np.ndarray, index: int, _future) -> None:
    done[index] = time.perf_counter()


class Rung:
    """One ladder rate, accumulated over every slice of the run."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.latency_ms: list[float] = []
        self.late_ms: list[float] = []
        self.admit_us: list[float] = []
        self.requests = 0
        self.rejected = 0
        self.failed = 0
        self.backlogged = 0
        self.windows: list[tuple[float, float]] = []

    @property
    def p99_ms(self) -> float:
        return percentile(self.latency_ms, 99) if self.latency_ms else math.inf

    @property
    def meets_slo(self) -> bool:
        return (self.p99_ms <= SLO_P99_MS and not self.rejected
                and not self.failed and not self.backlogged)

    def summary(self) -> dict:
        return {
            "rate": self.rate,
            "requests": self.requests,
            "latency_ms": summarize(self.latency_ms, "ms"),
            "p99_ms": self.p99_ms,
            "late_ms": summarize(self.late_ms, "ms"),
            "admit_us": summarize(self.admit_us, "us"),
            "rejected": self.rejected,
            "failed": self.failed,
            "backlogged_slices": self.backlogged,
            "meets_slo": self.meets_slo,
        }


def slo_rate(rungs: list[Rung]) -> float:
    """Highest offered rate that meets the objective, read off the ladder.

    Walks the ladder up to the first rung that misses the objective and
    interpolates log-log between that rung and the one below it on p99,
    so the figure moves smoothly instead of jumping a whole rung.  A rung
    that misses for rejections, failures or a growing backlog caps the
    rate at the rung below; when even the lowest rung misses, its rate is
    scaled down by how far its p99 overshoots.
    """
    for index, rung in enumerate(rungs):
        if rung.meets_slo:
            continue
        if index == 0:
            return rung.rate * min(1.0, SLO_P99_MS / rung.p99_ms)
        below = rungs[index - 1]
        if rung.p99_ms <= SLO_P99_MS or below.p99_ms <= 0:
            return below.rate
        frac = (math.log(SLO_P99_MS / below.p99_ms)
                / math.log(rung.p99_ms / below.p99_ms))
        return below.rate * (rung.rate / below.rate) ** frac
    return rungs[-1].rate


def _registry(reference) -> tuple[ModelRegistry, float]:
    registry = ModelRegistry()
    started = time.perf_counter()
    registry.register(MODEL, DesignPoint(cell_type=CellType.C1RW4R),
                      snn=reference.snn)
    return registry, time.perf_counter() - started


def _start(kind: str, registry: ModelRegistry):
    """Start a server; returns it and the seconds until it was ready."""
    started = time.perf_counter()
    if kind == "inproc":
        server = InferenceServer(registry, policy=POLICY,
                                 max_queue_depth=INPROC_QUEUE_DEPTH,
                                 clock=time.perf_counter)
        server.start()
        return server, time.perf_counter() - started
    server = FleetServer(registry, n_workers=1, policy=POLICY,
                         clock=time.perf_counter)
    server.start()
    while not all(w["ready"] for w in server.describe()["workers"]):
        if time.perf_counter() - started > RESULT_TIMEOUT_S:
            server.stop(drain=False)
            raise TimeoutError("fleet worker never reported ready")
        time.sleep(0.001)
    return server, time.perf_counter() - started


def _stop(server) -> float:
    started = time.perf_counter()
    server.stop()
    return time.perf_counter() - started


class ServePhase:
    """One server kind driven in slices; checked and summarized on close."""

    def __init__(self, ctx, reference, stream: RowStream, kind: str,
                 budget_s: float, slices: int) -> None:
        self.ctx = ctx
        self.stream = stream
        self.kind = kind
        self.layer = "serve" if kind == "inproc" else "fleet"
        self.submit_kwargs = {"slo_class": "batch"} if kind == "fleet" else {}
        self.registry, self.network_build_s = _registry(reference)
        self.start_s, self.stop_s = [], []
        for _ in range(LIFECYCLE_CYCLES - 1):
            server, start_s = _start(kind, self.registry)
            self.start_s.append(start_s)
            self.stop_s.append(_stop(server))
        self.rungs = [Rung(rate) for rate in LADDER]
        self.rung_s = budget_s * LADDER_SHARE / len(LADDER) / slices
        self.sat_s = budget_s * (1 - LADDER_SHARE) / slices
        self.sat_windows = None
        remaining = stream.remaining()
        if remaining is not None:
            # A distinct pass must cover the whole phase: keep the ladder
            # within 60 % of it and share what is left among the slices.
            self.rung_s = min(self.rung_s,
                              0.6 * remaining / sum(LADDER) / slices)
            ladder_rows = slices * sum(int(r * self.rung_s) for r in LADDER)
            self.sat_windows = max(
                1, (remaining - ladder_rows - 1) // SAT_WINDOW // slices)
        self.sat_rates: list[float] = []
        self.sat_spans: list[tuple[float, float]] = []
        self.indices: list[np.ndarray] = []
        self.served: list[np.ndarray] = []
        self.tracker = RowTracker()
        self.backpressure = 0
        self.failed = 0
        self.counts: dict = {}
        self.phase_start = ctx.now()
        self.server, start_s = _start(kind, self.registry)
        self.start_s.append(start_s)
        # Steady state begins once a first request has been answered.
        first, _ = stream.take(1)
        self.server.submit(MODEL, first[0], **self.submit_kwargs).result(
            timeout=RESULT_TIMEOUT_S)
        ctx.count(1)

    def _take(self, n: int):
        rows, index = self.stream.take(n)
        self.indices.append(index)
        self.tracker.observe(rows)
        return rows, index

    def _collect(self, futures, n: int) -> np.ndarray:
        served = np.full(n, -1, dtype=np.int64)
        for index, future in enumerate(futures):
            if future is None:
                continue
            try:
                served[index] = future.result(timeout=RESULT_TIMEOUT_S)
            except ReproError:
                self.failed += 1
        return served

    def _paced(self, rung: Rung, index: int) -> None:
        """One slice of a ladder rate: seeded Poisson arrivals."""
        n = max(1, int(rung.rate * self.rung_s))
        rows, index = self._take(n)
        due = poisson_schedule(
            rung.rate, n, self.ctx.rng(f"schedule/{rung.rate:g}/{index}"))
        done = np.full(n, np.nan)
        futures = [None] * n
        window_start = self.ctx.now()
        started = time.perf_counter() + 0.005
        for i in range(n):
            due_at = started + due[i]
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submit_at = time.perf_counter()
            rung.late_ms.append((submit_at - due_at) * 1e3)
            try:
                future = self.server.submit(MODEL, rows[i],
                                            **self.submit_kwargs)
            except QueueFullError:
                rung.rejected += 1
                continue
            rung.admit_us.append((time.perf_counter() - submit_at) * 1e6)
            future.add_done_callback(partial(_stamp, done, i))
            futures[i] = future
        backlog = self.server.in_flight
        rung.windows.append((window_start, self.ctx.now()))
        failed_before = self.failed
        self.served.append(self._collect(futures, n))
        rung.failed += self.failed - failed_before
        rung.requests += n
        answered = ~np.isnan(done)
        rung.latency_ms.extend(
            (done[answered] - (started + due[answered])) * 1e3)
        # More than one objective-window of arrivals still queued when the
        # schedule ends means the server is falling behind.
        if backlog > max(POLICY.max_batch_size,
                         rung.rate * SLO_P99_MS / 1e3):
            rung.backlogged += 1

    def _saturate(self) -> None:
        """Windows of requests as fast as admission allows."""
        retry_s = max(POLICY.max_wait_ms / 1e3, 1e-3)
        deadline = time.perf_counter() + self.sat_s
        windows = 0
        window_start = self.ctx.now()
        while self.sat_windows is None or windows < self.sat_windows:
            rows, _ = self._take(SAT_WINDOW)
            futures = []
            started = time.perf_counter()
            for row in rows:
                while True:
                    try:
                        futures.append(self.server.submit(
                            MODEL, row, **self.submit_kwargs))
                        break
                    except QueueFullError:
                        self.backpressure += 1
                        time.sleep(retry_s)
            self.served.append(self._collect(futures, len(rows)))
            self.sat_rates.append(len(rows) / (time.perf_counter() - started))
            windows += 1
            if time.perf_counter() >= deadline:
                break
        self.sat_spans.append((window_start, self.ctx.now()))

    def run_slice(self, index: int) -> None:
        for rung in self.rungs:
            self._paced(rung, index)
        self._saturate()

    def close(self) -> None:
        """Stop the server, check its answers and record the metrics."""
        self.stop_s.append(_stop(self.server))
        phase_window = (self.phase_start, self.ctx.now())
        self._check()
        self._record()
        if self.ctx.tracer is not None:
            self._layers(phase_window)

    def _check(self) -> None:
        ctx, layer = self.ctx, self.layer
        self.counts = counts = self.server.metrics.to_dict()
        accounted = (counts["submitted"]
                     == counts["completed"] + counts["failed"]
                     + counts["shed"])
        ctx.check(f"{layer}_accounting", accounted,
                  f"submitted {counts['submitted']} != completed "
                  f"{counts['completed']} + failed {counts['failed']} + "
                  f"shed {counts['shed']}")
        indices = np.concatenate(self.indices)
        served = np.concatenate(self.served)
        network = self.registry.get(MODEL)
        offline = np.concatenate([
            network.classify_batch(self.stream.pool.rows[chunk])
            for chunk in np.array_split(
                indices, max(1, len(indices) // VERIFY_CHUNK))
        ])
        answered = served >= 0
        mismatched = int((served[answered] != offline[answered]).sum())
        ctx.check(f"{layer}_predictions", mismatched == 0,
                  f"{mismatched} served predictions differ from offline "
                  "classify_batch")
        rejected = sum(r.rejected for r in self.rungs)
        ctx.count(len(indices),
                  self.failed + rejected + counts["shed"] + mismatched)

    def _record(self) -> None:
        ctx, layer = self.ctx, self.layer
        tracker = self.tracker
        at_rate = next(r for r in self.rungs if r.rate == LATENCY_RATE)
        rate = slo_rate(self.rungs)
        # The saturation rates are end-to-end figures; median latency at
        # 2k inf/s swings with the host's scheduling far more than any
        # bound allows, so it is per-layer for both servers.
        sat_name = "sat_inf_s" if self.kind == "inproc" else "fleet_sat_inf_s"
        ctx.metric(sat_name, median(self.sat_rates), "inf/s")
        ctx.metric(f"{layer}.p50_ms", median(at_rate.latency_ms), "ms")
        ctx.metric(f"{layer}.slo_rate_inf_s", rate, "inf/s")
        ctx.metric(f"{layer}.p99_ms", at_rate.p99_ms, "ms")
        ctx.metric(f"{layer}.admit_us", median(at_rate.admit_us), "us")
        ctx.metric(f"{layer}.rejected", sum(r.rejected for r in self.rungs),
                   "count")
        ctx.metric(f"{layer}.shed", self.counts["shed"], "count")
        ctx.metric(f"{layer}.backpressure", self.backpressure, "count")
        ctx.metric(f"loadgen.late_p99_ms.{self.kind}",
                   percentile(at_rate.late_ms, 99), "ms")
        ctx.metric(f"loadgen.dup_row_share.{self.kind}", tracker.share,
                   "ratio")
        if self.kind == "fleet":
            ctx.metric("fleet.start_s", median(self.start_s), "s")
            ctx.metric("fleet.stop_s", median(self.stop_s), "s")
        ctx.report[self.kind] = {
            "ladder": [r.summary() for r in self.rungs],
            "slo": f"p99 <= {SLO_P99_MS:g} ms from due time, no rejections, "
                   "no backlog beyond one objective-window of arrivals",
            "slo_rate_inf_s": rate,
            "saturation_window_inf_s": summarize(self.sat_rates, "inf/s"),
            "counts": {k: self.counts[k] for k in
                       ("submitted", "completed", "failed", "shed",
                        "rejected")},
            "mean_batch_size": self.counts["mean_batch_size"],
            "start_s": summarize(self.start_s, "s"),
            "stop_s": summarize(self.stop_s, "s"),
            "dup_row_share": tracker.share,
        }

    def _layers(self, phase_window) -> None:
        """Per-layer numbers from this phase's spans and registry series.

        Queue wait, batch assembly and flush are taken at the latency
        rate; batch size over the saturation windows; the fleet's round
        trip over every batch of the phase, like its worker-side flush
        histogram.
        """
        ctx = self.ctx
        spans = ctx.tracer.spans()
        at_rate = next(r for r in self.rungs if r.rate == LATENCY_RATE)
        if self.kind == "inproc":
            selfs = self_times(spans)
            waits = durations_ms(select(spans, "serve.queue_wait",
                                        windows=at_rate.windows))
            ctx.metric("serve.queue_wait_ms.p50", percentile(waits, 50),
                       "ms")
            ctx.metric("serve.queue_wait_ms.p99", percentile(waits, 99),
                       "ms")
            for name in ("batch_assembly", "flush"):
                chosen = select(spans, f"serve.{name}",
                                windows=at_rate.windows)
                ctx.metric(f"serve.{name}_ms", median_self_ms(selfs, chosen),
                           "ms")
            flushes = select(spans, "serve.flush", windows=self.sat_spans)
            ctx.metric("serve.batch_size",
                       float(np.mean([s.attrs["size"] for s in flushes])),
                       "rows")
            return
        flushes = select(spans, "fleet.flush", windows=[phase_window])
        round_trip = float(np.mean(durations_ms(flushes)))
        worker = self.server.metrics.registry.histogram(
            "repro_fleet_flush_ms", replica="0", model=MODEL)
        worker_ms = worker.sum / worker.count
        ctx.metric("fleet.round_trip_ms", round_trip, "ms")
        ctx.metric("fleet.worker_flush_ms", worker_ms, "ms")
        ctx.metric("fleet.transport_ms", round_trip - worker_ms, "ms")
        sat_flushes = select(spans, "fleet.flush", windows=self.sat_spans)
        ctx.metric("fleet.batch_size",
                   float(np.mean([s.attrs["size"] for s in sat_flushes])),
                   "rows")
        rows = self.stream.pool.rows[:POLICY.max_batch_size]
        pack_s = []
        for _ in range(PACK_REPEATS):
            with ctx.span("fleet.pack", rows=len(rows)):
                started = time.perf_counter()
                pack_spike_rows(rows)
                pack_s.append(time.perf_counter() - started)
        ctx.metric("fleet.pack_us", median(pack_s) * 1e6, "us")
