"""Inference serving: micro-batching, backpressure, model registry.

The serving subsystem turns the batched fast engine into a
traffic-serving system (ROADMAP north star): an
:class:`~repro.serve.server.InferenceServer` admits single-image
requests under per-SLO-class depth limits
(:class:`~repro.serve.server.SloClass`), a per-(model, lane)
:class:`~repro.serve.batcher.MicroBatcher` coalesces them into
engine batches under a size/deadline policy, a
:class:`~repro.serve.registry.ModelRegistry` maps model names to
networks built from sweep design points (hot-swappable), and
:class:`~repro.serve.metrics.ServingMetrics` records the latency
SLO percentiles.  ``python -m repro.serve`` runs a closed-loop or
open-loop load generator against the stack.  See ``docs/serving.md``.

:class:`~repro.serve.fleet.FleetServer` is the same server with its
batches flushed in N engine worker processes instead of the dispatch
thread: a shared-memory :class:`~repro.serve.shm.SpikeRing` of
bit-packed spike batches, seeded consistent-hash routing
(:class:`~repro.serve.pool.ConsistentHashRouter`), rolling hot-swap
and supervised crash recovery — bit-identical to single-process
serving at any worker count.

Failure handling is opt-in through :mod:`repro.resilience`: request
deadlines with explicit load shedding, a per-flush
:class:`~repro.resilience.policy.RetryPolicy`, and per-model circuit
breakers on the registry (``docs/resilience.md``).
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.fleet import FleetServer
from repro.serve.metrics import ServingMetrics, latency_percentiles
from repro.serve.pool import ConsistentHashRouter, ModelPayload
from repro.serve.registry import ModelRegistry, RegisteredModel, build_network
from repro.serve.server import DEFAULT_SLO_CLASSES, InferenceServer, SloClass
from repro.serve.shm import RingGeometry, SpikeRing

__all__ = [
    "BatchPolicy",
    "ConsistentHashRouter",
    "DEFAULT_SLO_CLASSES",
    "FleetServer",
    "InferenceServer",
    "MicroBatcher",
    "ModelPayload",
    "ModelRegistry",
    "RegisteredModel",
    "RingGeometry",
    "ServingMetrics",
    "SloClass",
    "SpikeRing",
    "build_network",
    "latency_percentiles",
]
