"""Load generator CLI: ``python -m repro.serve``.

Examples::

    python -m repro.serve --rate 2000 --duration 2
    python -m repro.serve --rate 500 --duration 1 --clients 4
    python -m repro.serve --cell 1RW+2R --max-batch 32 --json serving.json
    python -m repro.serve --deadline-ms 50 --retries 3 --chaos-flush-p 0.2
    python -m repro.serve --open-loop --duration 2
    python -m repro.serve --workers 4 --open-loop --slo-class batch

Spins up a serving stack over the reference model at the chosen design
point — in-process (:class:`~repro.serve.server.InferenceServer`, the
default) or a multi-process :class:`~repro.serve.fleet.FleetServer`
with ``--workers N`` engine replicas; every other flag means the same
for both — then drives it with a seeded request trace in one of two
modes:

* **closed loop** (default): ``--clients`` client threads, each
  waiting for its previous response before the next send, paced to an
  aggregate ``--rate``.  Measures latency under a controlled offered
  load.
* **open loop** (``--open-loop``): the whole trace is submitted as
  fast as admission control allows, with no think time.  Measures
  *saturation throughput* — closed-loop clients cap the offered load
  at ``clients / latency``, which understates a server whose batching
  only pays off beyond that point, and is the mode the worker-scaling
  benchmark uses.

Either way the trace is drawn from a seeded generator, so the run is
reproducible and the served predictions can be verified bit-identical
against the offline ``classify_batch`` of the same trace, which this
CLI does by default — for any worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time

import numpy as np

from repro.envinfo import environment_info
from repro.errors import ModelUnavailableError, QueueFullError, ReproError
from repro.hw.cli import (
    ObservabilityScope,
    add_hardware_arguments,
    add_observability_arguments,
    hardware_from_args,
)
from repro.learning.pretrained import QUALITY_PRESETS, get_reference_model
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import BreakerPolicy, RetryPolicy
from repro.serve.batcher import BatchPolicy
from repro.serve.fleet import FleetServer
from repro.serve.metrics import ServingMetrics
from repro.serve.registry import ModelRegistry
from repro.serve.server import DEFAULT_SLO_CLASSES, InferenceServer
from repro.snn.encode import encode_images
from repro.sweep.spec import DesignPoint

#: Model name the load generator registers and targets.
MODEL_NAME = "esam"

#: Seconds a client waits for one answer, in either loop.
RESULT_TIMEOUT_S = 120.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Load test of the micro-batching inference server "
                    "(closed-loop or open-loop, in-process or fleet).",
    )
    parser.add_argument(
        "--rate", type=float, default=1000.0, metavar="R",
        help="aggregate request arrival rate, requests/s (default: 1000); "
             "with --open-loop only sizes the trace (rate*duration)",
    )
    parser.add_argument(
        "--duration", type=float, default=1.0, metavar="S",
        help="trace length in seconds; rate*duration requests (default: 1)",
    )
    parser.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="closed-loop client threads (default: 8; ignored with "
             "--open-loop)",
    )
    parser.add_argument(
        "--open-loop", action="store_true",
        help="saturation mode: submit the whole trace as fast as "
             "admission allows instead of pacing closed-loop clients",
    )
    # One shared hardware surface (--config/--cell/--vprech/--node/
    # --corner) with choices and defaults derived from the registries,
    # so this CLI cannot drift from `python -m repro.sweep`.
    add_hardware_arguments(parser)
    parser.add_argument(
        "--quality", choices=QUALITY_PRESETS, default="fast",
        help="reference-model preset (default: fast)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="model + arrival-trace seed (default: the --config file's "
             "seed, else 42)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="micro-batch size cap (default: 64)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0, metavar="MS",
        help="coalescing deadline per request (default: 2.0)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=512, metavar="N",
        help="in-flight bound of the default SLO class before "
             "backpressure (default: 512)",
    )
    fleet = parser.add_argument_group(
        "fleet", "multi-process serving (see repro.serve.fleet)"
    )
    fleet.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="engine worker processes; 0 (default) serves in-process, "
             "N >= 1 fans out to a FleetServer with N replicas",
    )
    fleet.add_argument(
        "--slo-class", choices=sorted(DEFAULT_SLO_CLASSES),
        default="default",
        help="admission class applied to generated requests: per-class "
             "queue-depth limits and default deadlines (default: default)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the offline classify_batch equivalence check",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the run report as JSON",
    )
    resilience = parser.add_argument_group(
        "resilience", "deadlines, retries, circuit breaking and chaos "
                      "(all off by default)"
    )
    resilience.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request queueing deadline; expired requests are shed "
             "(defaults to the --slo-class deadline when unset)",
    )
    resilience.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry transient flush failures up to N times (default: 0)",
    )
    resilience.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="K",
        help="open a model's circuit after K consecutive flush failures",
    )
    resilience.add_argument(
        "--breaker-cooldown-s", type=float, default=5.0, metavar="S",
        help="open-circuit cooldown before the half-open probe "
             "(default: 5.0)",
    )
    resilience.add_argument(
        "--chaos-flush-p", type=float, default=0.0, metavar="P",
        help="inject transient flush failures with probability P",
    )
    resilience.add_argument(
        "--chaos-crash-p", type=float, default=0.0, metavar="P",
        help="crash fleet workers mid-batch with probability P "
             "(--workers >= 1 only; the supervisor must recover)",
    )
    resilience.add_argument(
        "--chaos-spike-ms", type=float, default=0.0, metavar="MS",
        help="injected pre-flush latency spike size",
    )
    resilience.add_argument(
        "--chaos-spike-p", type=float, default=0.0, metavar="P",
        help="latency-spike probability per flush attempt",
    )
    resilience.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the deterministic chaos schedule (default: 0)",
    )
    add_observability_arguments(parser)
    return parser


def _submit_with_backpressure(server, row: np.ndarray,
                              deadline_ms: float | None, slo_class: str,
                              retry_s: float):
    """Submit one trace row, retrying on backpressure and open circuits."""
    while True:
        try:
            return server.submit(MODEL_NAME, row, deadline_ms=deadline_ms,
                                 slo_class=slo_class)
        except (QueueFullError, ModelUnavailableError):
            time.sleep(retry_s)


def _run_clients(server, spikes: np.ndarray,
                 predictions: np.ndarray, rate: float, clients: int,
                 deadline_ms: float | None = None,
                 slo_class: str = "default") -> None:
    """Drive the seeded trace through closed-loop client threads.

    Request ``i`` targets wall-clock ``start + i/rate``; each client
    owns the requests ``i % clients == k``, waits for every response
    before its next send (closed loop), and retries on backpressure
    (and open circuits) so no trace row is lost.  An *explicit*
    per-request failure — shed deadline, exhausted flush retries, an
    abandoned future — leaves its row at ``-1`` and moves on: the
    server accounted for it, and the accounting check at the end
    proves nothing was silently dropped.  Anything else (timeout,
    programming error) is re-raised after all threads join — a
    partially-sent trace must never look like a successful run.
    """
    start = time.monotonic()
    retry_s = max(server.policy.max_wait_ms / 1e3, 1e-3)
    errors: list[Exception] = []

    def client(k: int) -> None:
        try:
            for i in range(k, len(spikes), clients):
                delay = start + i / rate - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                future = _submit_with_backpressure(
                    server, spikes[i], deadline_ms, slo_class, retry_s
                )
                try:
                    predictions[i] = future.result(timeout=RESULT_TIMEOUT_S)
                except ReproError:
                    pass  # explicitly failed; row stays -1, accounted
        except Exception as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(k,), name=f"client{k}")
        for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_open_loop(server, spikes: np.ndarray, predictions: np.ndarray,
                  deadline_ms: float | None = None,
                  slo_class: str = "default") -> None:
    """Drive the trace open-loop: saturate, then collect.

    Every request is submitted as fast as admission control allows —
    no pacing, no think time — so the measured completion rate is the
    server's *saturation throughput*, not an artifact of the offered
    load.  (Closed-loop clients cap offered load at
    ``clients / latency``: a per-request engine that answers quickly
    can look faster than a micro-batching server that only wins beyond
    that load — the worker-scaling benchmark therefore measures this
    mode.)  Backpressure (:class:`QueueFullError`) and open circuits
    retry after a batching interval; explicit per-request failures
    leave their trace row at ``-1``, exactly as in closed-loop mode.
    """
    retry_s = max(server.policy.max_wait_ms / 1e3, 1e-3)
    futures = [
        _submit_with_backpressure(server, row, deadline_ms, slo_class,
                                  retry_s)
        for row in spikes
    ]
    for i, future in enumerate(futures):
        try:
            predictions[i] = future.result(timeout=RESULT_TIMEOUT_S)
        except ReproError:
            pass  # explicitly failed; row stays -1, accounted


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every number is checked before anything is built.  A NaN or
    # infinite rate or duration cannot size the trace.
    for flag, value in (("--rate", args.rate),
                        ("--duration", args.duration)):
        if not 0 < value < math.inf:
            parser.error(f"{flag} must be finite and > 0, got {value}")
    trace_length = args.rate * args.duration
    if not 1 <= trace_length < math.inf:
        parser.error("rate * duration must be >= 1 request")
    n_requests = int(trace_length)
    if args.deadline_ms is not None and not 0 < args.deadline_ms < math.inf:
        parser.error(
            f"--deadline-ms must be finite and > 0, got {args.deadline_ms}"
        )
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.clients < 1:
        parser.error("--clients must be >= 1")
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.chaos_crash_p > 0 and args.workers < 1:
        parser.error("--chaos-crash-p needs --workers >= 1")

    scope = ObservabilityScope(args)
    try:
        # --seed (when given) overrides the config file's seed; the
        # resolved hardware seed drives the model and arrival trace.
        hardware = hardware_from_args(args, seed=args.seed)
        seed = hardware.seed
        point = DesignPoint(hardware=hardware, quality=args.quality)
        breaker = None
        if args.breaker_threshold is not None:
            breaker = BreakerPolicy(
                failure_threshold=args.breaker_threshold,
                cooldown_s=args.breaker_cooldown_s,
            )
        registry = ModelRegistry(breaker=breaker)
        policy = BatchPolicy(
            max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms,
        )
        retry = None
        if args.retries > 0:
            retry = RetryPolicy(retries=args.retries, seed=seed)
        chaos = ChaosPolicy(
            seed=args.chaos_seed,
            worker_crash_p=args.chaos_crash_p,
            flush_error_p=args.chaos_flush_p,
            latency_spike_ms=args.chaos_spike_ms,
            latency_spike_p=args.chaos_spike_p,
        )
        server_kwargs = dict(
            policy=policy, max_queue_depth=args.queue_depth,
            retry=retry, chaos=chaos,
            # Serving series land in the run's scoped registry so
            # --metrics-out exports them alongside everything else.
            metrics=ServingMetrics(registry=scope.registry),
        )
        if args.workers >= 1:
            server = FleetServer(registry, n_workers=args.workers,
                                 **server_kwargs)
        else:
            server = InferenceServer(registry, **server_kwargs)
        # Every setting has been checked by now: only then build the
        # model, the slow step.
        reference = get_reference_model(args.quality, seed)
        registry.register(MODEL_NAME, point, snn=reference.snn)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    pool = encode_images(reference.dataset.test_images)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, pool.shape[0], size=n_requests)
    spikes = pool[indices]
    served = np.full(n_requests, -1, dtype=np.int64)

    backend = (f"fleet of {args.workers} workers" if args.workers >= 1
               else "in-process server")
    mode = ("open loop" if args.open_loop
            else f"{args.clients} closed-loop clients at {args.rate:g}/s")
    print(
        f"serving {n_requests} requests through the {backend}, {mode} "
        f"(model {point.label}, max_batch {args.max_batch}, "
        f"max_wait {args.max_wait_ms} ms)"
    )
    try:
        # The observability scope closes (and writes --trace-out /
        # --metrics-out) before the offline verification below, so a
        # captured trace holds exactly the served run.
        with scope, server:
            if args.open_loop:
                run_open_loop(server, spikes, served,
                              deadline_ms=args.deadline_ms,
                              slo_class=args.slo_class)
            else:
                _run_clients(server, spikes, served, args.rate,
                             args.clients, deadline_ms=args.deadline_ms,
                             slo_class=args.slo_class)
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"error: load generation failed: {error!r}", file=sys.stderr)
        return 1
    print(server.metrics.summary())

    # The no-silent-drops invariant: every admitted request must have
    # been completed, explicitly failed, or shed.
    counts = server.metrics.to_dict()
    accounted = (counts["submitted"]
                 == counts["completed"] + counts["failed"] + counts["shed"])
    print(f"accounting: submitted == completed + failed + shed: "
          f"{'OK' if accounted else 'VIOLATED'}")

    verified = None
    if not args.no_verify:
        # Shed or failed requests never produced a prediction; verify
        # the ones that did (all of them, in the default fault-free run).
        answered = served >= 0
        offline = registry.get(MODEL_NAME).classify_batch(spikes)
        verified = bool(np.array_equal(served[answered], offline[answered]))
        suffix = "" if bool(answered.all()) else (
            f" over {int(answered.sum())}/{len(served)} answered requests"
        )
        print(f"offline classify_batch equivalence: "
              f"{'OK (bit-identical)' if verified else 'MISMATCH'}{suffix}")

    if args.json:
        report = {
            "requests": n_requests,
            "rate": args.rate,
            "clients": args.clients,
            "open_loop": args.open_loop,
            "workers": args.workers,
            "slo_class": args.slo_class,
            "model": point.label,
            "policy": {
                "max_batch_size": args.max_batch,
                "max_wait_ms": args.max_wait_ms,
            },
            "resilience": {
                "deadline_ms": args.deadline_ms,
                "retries": args.retries,
                "breaker_threshold": args.breaker_threshold,
                "chaos_active": chaos.active,
                "chaos_seed": args.chaos_seed,
            },
            "metrics": counts,
            "verified_vs_offline": verified,
            "accounted": accounted,
            "hardware": hardware.to_dict(),
            "environment": environment_info(),
        }
        if args.workers >= 1:
            report["fleet"] = server.describe()
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")

    if verified is False or not accounted:
        return 1
    if server.metrics.failed and not chaos.active:
        # Failures are deliberate under chaos (and accounted above);
        # in a clean run any failure is a real problem.
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
