"""Serving throughput: micro-batched server vs per-request inference.

The serving subsystem exists to turn the batched fast engine's
throughput (`BENCH_simulator.json`) into traffic-serving throughput.
This benchmark drives the same seeded request trace through

* the per-request baseline — one ``EsamNetwork.infer`` call per
  arriving image, the way a naive service would; and
* the :class:`~repro.serve.server.InferenceServer` with closed-loop
  clients, whose micro-batcher coalesces arrivals into
  ``infer_batch`` calls;

asserts the server sustains >= 5x the baseline with *bit-identical*
predictions (both must equal the offline ``classify_batch`` of the
trace), and writes ``BENCH_serving.json`` (schema in PAPER.md) with
latency percentiles and the host environment so the serving trajectory
is comparable across PRs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.obs import Tracer, set_tracer
from repro.serve import BatchPolicy, FleetServer, InferenceServer, ModelRegistry
from repro.serve.__main__ import run_open_loop
from repro.snn.encode import encode_images
from repro.sram.bitcell import CellType
from repro.sweep.spec import DesignPoint

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
OVERHEAD_JSON = (
    Path(__file__).resolve().parent.parent / "BENCH_tracing_overhead.json"
)
N_REQUESTS = 256
N_CLIENTS = 8
POLICY = BatchPolicy(max_batch_size=64, max_wait_ms=2.0)
MIN_SPEEDUP = 5.0
#: Fleet scaling curve: open-loop saturation throughput at each
#: replica count, plus the gate on the 4-worker speedup over 1 worker.
#: The gate only binds on hosts with >= MIN_SCALING_CORES cores — on a
#: smaller box N processes time-share the same cores and no fabric can
#: scale, so the curve is recorded but not gated (the JSON carries
#: ``cpu_count`` so readers can tell which regime produced it).
WORKER_COUNTS = (1, 2, 4)
MIN_FLEET_SCALING = 2.5
MIN_SCALING_CORES = 4
#: Tracing overhead gate: serving a traced run may cost at most 5%
#: over the identical untraced run (plus a small absolute epsilon for
#: scheduler noise on sub-second runs).
MAX_TRACING_OVERHEAD = 1.05
TRACING_EPSILON_S = 0.02
TIMING_REPEATS = 5


def _serve_trace(server: InferenceServer, spikes: np.ndarray) -> np.ndarray:
    """Closed-loop clients pushing the trace as fast as responses allow."""
    served = np.full(len(spikes), -1, dtype=np.int64)

    def client(k: int) -> None:
        for i in range(k, len(spikes), N_CLIENTS):
            served[i] = server.submit("esam", spikes[i]).result(timeout=60.0)

    threads = [
        threading.Thread(target=client, args=(k,)) for k in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return served


def test_microbatched_serving_speedup(reference_model, bench_report):
    point = DesignPoint(cell_type=CellType.C1RW4R)
    registry = ModelRegistry()
    network = registry.register("esam", point, snn=reference_model.snn)

    pool = encode_images(reference_model.dataset.test_images)
    rng = np.random.default_rng(point.seed)
    spikes = pool[rng.integers(0, pool.shape[0], size=N_REQUESTS)]

    offline = network.classify_batch(spikes)

    # Baseline: serve every request with its own infer() call.
    t0 = time.perf_counter()
    baseline = np.array(
        [int(np.argmax(network.infer(row))) for row in spikes]
    )
    unbatched_s = time.perf_counter() - t0

    # Secondary baseline: per-request batches on the fast engine.  The
    # headline speedup partly reflects the engine difference; this one
    # isolates what coalescing itself buys (informative, not gated —
    # the coalescing gate below is the mean flushed batch size).
    t0 = time.perf_counter()
    for row in spikes:
        network.classify_batch(row[None, :])
    fast_per_request_s = time.perf_counter() - t0

    server = InferenceServer(registry, policy=POLICY, max_queue_depth=512)
    t0 = time.perf_counter()
    with server:
        served = _serve_trace(server, spikes)
    batched_s = time.perf_counter() - t0

    identical = bool(
        np.array_equal(served, offline) and np.array_equal(baseline, offline)
    )
    assert identical, "served predictions diverged from offline classify_batch"
    assert server.metrics.completed == N_REQUESTS
    assert server.metrics.failed == 0

    speedup = unbatched_s / batched_s
    metrics = server.metrics.to_dict()
    payload = {
        "requests": N_REQUESTS,
        "clients": N_CLIENTS,
        "network": "768:256:256:256:10",
        "cell_type": point.cell_type.value,
        "policy": {
            "max_batch_size": POLICY.max_batch_size,
            "max_wait_ms": POLICY.max_wait_ms,
        },
        "per_request": {
            "seconds": round(unbatched_s, 4),
            "inf_per_s": round(N_REQUESTS / unbatched_s, 2),
        },
        "per_request_fast_engine": {
            "seconds": round(fast_per_request_s, 4),
            "inf_per_s": round(N_REQUESTS / fast_per_request_s, 2),
        },
        "microbatched": {
            "seconds": round(batched_s, 4),
            "inf_per_s": round(N_REQUESTS / batched_s, 2),
            "latency": metrics["latency"],
            "mean_batch_size": metrics["mean_batch_size"],
        },
        "speedup": round(speedup, 1),
        "predictions_identical": identical,
    }
    bench_report(BENCH_JSON, payload, point.hardware)
    print(
        f"\nmicro-batched serving: {N_REQUESTS / batched_s:,.0f} inf/s, "
        f"per-request: {N_REQUESTS / unbatched_s:,.0f} inf/s "
        f"-> {speedup:.0f}x (JSON: {BENCH_JSON.name})"
    )
    assert speedup >= MIN_SPEEDUP
    # Coalescing must actually happen: with 8 closed-loop clients the
    # batcher has to merge concurrent arrivals.  A server that degrades
    # to batch-size-1 flushes would still clear the engine-level
    # speedup above, so gate on the observed batch size directly.
    assert metrics["mean_batch_size"] >= 2.0


def test_fleet_worker_scaling(reference_model, bench_report):
    """Open-loop saturation throughput vs fleet worker count.

    Drives the identical seeded trace through a
    :class:`~repro.serve.fleet.FleetServer` at 1, 2 and 4 engine
    worker processes in *open-loop* (saturation) mode — closed-loop
    clients cap offered load at ``clients / latency`` and would
    understate every configuration — asserting bit-identical
    predictions at every width, and merges a ``fleet_scaling`` section
    into ``BENCH_serving.json``.  The >= ``MIN_FLEET_SCALING`` gate on
    the 4-worker point applies only on hosts with enough cores to make
    scaling physically possible.
    """
    point = DesignPoint(cell_type=CellType.C1RW4R)
    pool = encode_images(reference_model.dataset.test_images)
    rng = np.random.default_rng(point.seed)
    spikes = pool[rng.integers(0, pool.shape[0], size=N_REQUESTS)]

    offline = None
    curve = {}
    for n_workers in WORKER_COUNTS:
        registry = ModelRegistry()
        network = registry.register("esam", point, snn=reference_model.snn)
        if offline is None:
            offline = network.classify_batch(spikes)
        server = FleetServer(registry, n_workers=n_workers, policy=POLICY)
        served = np.full(len(spikes), -1, dtype=np.int64)
        # start() returns once every worker is ready and stop() is
        # outside the timed region: the curve is steady-state serving.
        with server:
            t0 = time.perf_counter()
            run_open_loop(server, spikes, served, slo_class="batch")
            seconds = time.perf_counter() - t0
        assert np.array_equal(served, offline), (
            f"{n_workers}-worker fleet diverged from offline classify_batch"
        )
        metrics = server.metrics.to_dict()
        assert metrics["completed"] == N_REQUESTS
        assert metrics["failed"] == 0
        curve[n_workers] = {
            "seconds": round(seconds, 4),
            "inf_per_s": round(N_REQUESTS / seconds, 2),
            "mean_batch_size": metrics["mean_batch_size"],
        }

    scaling_4x = round(
        curve[WORKER_COUNTS[-1]]["inf_per_s"] / curve[1]["inf_per_s"], 2
    )
    cpu_count = os.cpu_count() or 1
    gated = cpu_count >= MIN_SCALING_CORES
    section = {
        "mode": "open_loop",
        "requests": N_REQUESTS,
        "workers": {str(n): curve[n] for n in WORKER_COUNTS},
        "scaling_4x_over_1x": scaling_4x,
        "min_scaling_gate": MIN_FLEET_SCALING,
        "cpu_count": cpu_count,
        "scaling_gate_applied": gated,
        "predictions_identical": True,
    }
    # Merge into the trajectory file the headline benchmark wrote (it
    # runs first in this module); bench_report re-stamps hardware /
    # environment / observability, so strip the stamped keys first.
    payload: dict = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
        for stamped in ("hardware", "environment", "observability"):
            payload.pop(stamped, None)
    payload["fleet_scaling"] = section
    bench_report(BENCH_JSON, payload, point.hardware)
    print(
        "\nfleet scaling (open loop): "
        + ", ".join(
            f"{n}w {curve[n]['inf_per_s']:,.0f} inf/s"
            for n in WORKER_COUNTS
        )
        + f" -> {scaling_4x:.2f}x on {cpu_count} cores"
        + ("" if gated else " (gate skipped: too few cores)")
        + f" (JSON: {BENCH_JSON.name})"
    )
    if gated:
        assert scaling_4x >= MIN_FLEET_SCALING


def test_tracing_overhead_gate(reference_model, bench_report):
    """Tracing a serving run must cost <= 5% over the untraced run.

    The instrumentation contract: with the default no-op tracer the
    span sites are a single attribute check (the main benchmark above
    runs that configuration), and with a *real* tracer installed the
    recording itself stays under :data:`MAX_TRACING_OVERHEAD`.  Both
    modes must serve bit-identical predictions — observability must
    never change results.
    """
    point = DesignPoint(cell_type=CellType.C1RW4R)
    registry = ModelRegistry()
    network = registry.register("esam", point, snn=reference_model.snn)

    pool = encode_images(reference_model.dataset.test_images)
    rng = np.random.default_rng(point.seed)
    spikes = pool[rng.integers(0, pool.shape[0], size=N_REQUESTS)]
    offline = network.classify_batch(spikes)

    def timed_run() -> tuple[float, np.ndarray]:
        server = InferenceServer(registry, policy=POLICY,
                                 max_queue_depth=512)
        t0 = time.perf_counter()
        with server:
            served = _serve_trace(server, spikes)
        return time.perf_counter() - t0, served

    plain_s = []
    for _ in range(TIMING_REPEATS):
        seconds, served = timed_run()
        plain_s.append(seconds)
        assert np.array_equal(served, offline)

    traced_s = []
    tracer = None
    for _ in range(TIMING_REPEATS):
        tracer = Tracer(clock=time.monotonic)
        previous = set_tracer(tracer)
        try:
            seconds, served = timed_run()
        finally:
            set_tracer(previous)
        traced_s.append(seconds)
        assert np.array_equal(served, offline), \
            "tracing changed served predictions"
        assert tracer.stats()["spans_recorded"] > N_REQUESTS

    plain_best, traced_best = min(plain_s), min(traced_s)
    overhead_x = traced_best / plain_best
    bench_report(OVERHEAD_JSON, {
        "requests": N_REQUESTS,
        "clients": N_CLIENTS,
        "repeats": TIMING_REPEATS,
        "plain_best_s": round(plain_best, 4),
        "traced_best_s": round(traced_best, 4),
        "overhead_x": round(overhead_x, 4),
        "max_overhead_x": MAX_TRACING_OVERHEAD,
        "spans_per_traced_run": tracer.stats()["spans_recorded"],
        "tracer_self_overhead_s": tracer.stats()["overhead_s"],
    }, point.hardware)
    print(
        f"\ntracing overhead: plain {plain_best:.3f}s, traced "
        f"{traced_best:.3f}s -> {overhead_x:.3f}x "
        f"(gate {MAX_TRACING_OVERHEAD}x, JSON: {OVERHEAD_JSON.name})"
    )
    assert traced_best <= plain_best * MAX_TRACING_OVERHEAD + TRACING_EPSILON_S
