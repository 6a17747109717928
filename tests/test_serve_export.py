"""The serving export, pinned value for value on a scripted run.

One in-process server runs a fixed script on an injected clock: size-
and deadline-triggered batches, shed and rejected requests, flush
failures absorbed by retries or failing their batch, and a circuit
breaker that opens and admits its half-open probe.  Every step waits
until the server holds nothing in flight.  Within a step the dispatch
thread can find a batch ready at one moment only: a full step fills
the batch with its last submit and the clock does not move until the
step has settled, and any other step stays below the batch size and
moves the clock once, after its last submit, past every deadline.
However the threads interleave, the batches, the queue depths seen at
admission and every latency are then the same on every run.
``metrics.to_dict()`` and the registry's text export (without its
environment line) must equal ``tests/golden/serving_export.json``,
captured from the same script: a change to how the server counts must
not change a single exported value.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    InjectedFaultError,
    ModelUnavailableError,
    QueueFullError,
)
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import BreakerPolicy, RetryPolicy
from repro.serve import (
    DEFAULT_SLO_CLASSES,
    BatchPolicy,
    InferenceServer,
    ModelRegistry,
    ServingMetrics,
    SloClass,
)

from tests.test_serve import FakeClock, random_network

pytestmark = pytest.mark.serve

GOLDEN = pathlib.Path(__file__).parent / "golden" / "serving_export.json"


def _settle(server, futures) -> list:
    """Each future's outcome, once the server holds nothing in flight."""
    outcomes = []
    for future in futures:
        try:
            outcomes.append(future.result(timeout=30))
        except (DeadlineExceededError, InjectedFaultError) as error:
            outcomes.append(type(error).__name__)
    deadline = time.monotonic() + 30
    while server.in_flight:
        assert time.monotonic() < deadline, "the server never went idle"
        time.sleep(0.0005)
    return outcomes


def scripted_run() -> tuple[dict, str]:
    """Drive the script; returns ``to_dict()`` and the text export."""
    clock = FakeClock()
    registry = ModelRegistry(
        breaker=BreakerPolicy(failure_threshold=2, cooldown_s=1.0),
        clock=clock,
    )
    registry.register_network("demo", random_network())
    metrics = ServingMetrics(clock=clock)
    server = InferenceServer(
        registry, policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0),
        metrics=metrics,
        retry=RetryPolicy(retries=1, base_delay_ms=0.0),
        chaos=ChaosPolicy(seed=5, flush_error_p=0.35),
        slo_classes={**DEFAULT_SLO_CLASSES,
                     "tight": SloClass("tight", max_queue_depth=2)},
        clock=clock,
    )
    rows = np.random.default_rng(1).random((400, 64)) < 0.3
    taken = iter(rows)

    def submit(n, **kwargs) -> list:
        futures = []
        for _ in range(n):
            try:
                futures.append(server.submit("demo", next(taken), **kwargs))
            except (QueueFullError, ModelUnavailableError):
                pass
        return futures

    with server:
        for step in range(24):
            clock.advance(0.0003)
            if step % 3 == 0:
                # A full batch: the size trigger flushes it at once.
                _settle(server, submit(8))
                continue
            # At most 3 + 2 + 2 admitted, below the batch size.
            futures = submit(1 + step % 3)
            futures += submit(2, deadline_ms=0.5)
            futures += submit(3, slo_class="tight")
            # Past every coalescing deadline: all of it flushes, less
            # the requests whose deadline passed, which are shed.
            clock.advance(0.001 + 0.0004 * (1 + step % 4))
            _settle(server, futures)
            if step % 8 == 7:
                # Past the breaker's cooldown: a probe may go through.
                clock.advance(1.5)
    return metrics.to_dict(), metrics.registry.to_text(environment=False)


def test_scripted_export_equals_its_capture():
    data, text = scripted_run()
    golden = json.loads(GOLDEN.read_text())
    assert data == golden["to_dict"]
    assert text == golden["text"]


def test_the_script_reaches_every_count():
    """A capture with a zero count would pin nothing about it."""
    counts = json.loads(GOLDEN.read_text())["to_dict"]
    for name in ("submitted", "completed", "failed", "shed", "rejected",
                 "retried", "broken_circuit"):
        assert counts[name] > 0, name
    assert (counts["submitted"]
            == counts["completed"] + counts["failed"] + counts["shed"])
