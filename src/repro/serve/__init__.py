"""Inference serving: micro-batching, backpressure, model registry.

The serving subsystem turns the batched fast engine into a
traffic-serving system (ROADMAP north star): an
:class:`~repro.serve.server.InferenceServer` admits single-image
requests under per-SLO-class depth limits
(:class:`~repro.serve.server.SloClass`), a per-model
:class:`~repro.serve.batcher.MicroBatcher` coalesces them into
engine batches under a size/deadline policy, a
:class:`~repro.serve.registry.ModelRegistry` maps model names to
networks built from sweep design points (hot-swappable), and
:class:`~repro.serve.metrics.ServingMetrics` records the latency
SLO percentiles.  ``python -m repro.serve`` runs a closed-loop or
open-loop load generator against the stack.  See ``docs/serving.md``.

:class:`~repro.serve.fleet.FleetServer` is the same server with its
batches flushed in N engine worker processes instead of the dispatch
thread: each batch's admitted rows go as one ``bytes`` object over one
pipe per worker to the ready worker with the fewest batches in flight,
with rolling hot-swap and supervised crash recovery — bit-identical to
single-process serving at any worker count, because ``infer_batch`` is
split-invariant.

Failure handling is opt-in through :mod:`repro.resilience`: request
deadlines with explicit load shedding, a per-flush
:class:`~repro.resilience.policy.RetryPolicy`, and per-model circuit
breakers on the registry (``docs/resilience.md``).
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.fleet import FleetServer
from repro.serve.metrics import ServingMetrics, latency_percentiles
from repro.serve.pool import ModelPayload
from repro.serve.registry import ModelRegistry, RegisteredModel
from repro.serve.server import DEFAULT_SLO_CLASSES, InferenceServer, SloClass

__all__ = [
    "BatchPolicy",
    "DEFAULT_SLO_CLASSES",
    "FleetServer",
    "InferenceServer",
    "MicroBatcher",
    "ModelPayload",
    "ModelRegistry",
    "RegisteredModel",
    "ServingMetrics",
    "SloClass",
    "latency_percentiles",
]
