"""Fleet worker pool: model payloads and the worker loop.

Two pieces the :class:`~repro.serve.fleet.FleetServer` is built from:

* :class:`ModelPayload` — a picklable snapshot of a servable network
  (weights, thresholds, bias, hardware config).  Control-plane data:
  it crosses the process boundary only at worker spawn and at
  hot-swap, never per request.
* :func:`worker_main` — the body of one ``EngineWorker`` process: loop
  over the worker's end of its pipe, view each batch's joined rows,
  run them through the same
  :func:`~repro.serve.server.flush_batch` the in-process server runs
  (retries and flush chaos included) **without re-validating** (the
  server validated every request exactly once at admission), and send
  predictions + per-batch stats back over the same pipe.

Each worker generation has one duplex ``multiprocessing.Pipe()``:
work goes one way, replies the other.  Messages are plain tuples,
first element the kind; a pipe belongs to one worker generation, so
replies name no worker:

=================  =================================================
to the worker      ``("batch", batch_id, model, rows, n_rows, site)``
                   ``("swap", model, payload)``
                   ``("stop",)``
from the worker    ``("ready", generation)``
                   ``("ok", batch_id, predictions, stats)``
                   ``("error", batch_id, exception, stats)``
                   ``("swapped", model, versions)``
=================  =================================================

``rows`` is the batch's admitted rows as one ``bytes`` object, one
byte per synapse (:func:`~repro.serve.server.join_rows`).  ``stats``
is ``{"rows", "flush_s", "retried"}``.  A worker that dies mid-batch
sends nothing — the fleet's collector notices the dead process, fails
that worker's in-flight batches explicitly, and respawns it on a fresh
pipe.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import RetryPolicy
from repro.serve.server import flush_batch, view_rows
from repro.tile.network import EsamNetwork

__all__ = ["ModelPayload", "worker_main"]


@dataclass(frozen=True)
class ModelPayload:
    """Picklable snapshot of one servable network (control plane only)."""

    name: str
    weights: tuple
    thresholds: tuple
    output_bias: np.ndarray | None
    config: object
    #: Per-tile weight versions at snapshot time; echoed back in the
    #: worker's swap ack so the fleet can prove which weights serve.
    versions: tuple

    @classmethod
    def from_network(cls, name: str, network: EsamNetwork) -> "ModelPayload":
        return cls(
            name=name,
            weights=tuple(t.weight_matrix() for t in network.tiles),
            thresholds=tuple(
                np.concatenate([n.thresholds for n in t.neurons])
                for t in network.tiles
            ),
            output_bias=network.output_bias,
            config=network.config,
            versions=tuple(t.weight_version for t in network.tiles),
        )

    def build(self) -> EsamNetwork:
        return EsamNetwork(
            list(self.weights), list(self.thresholds),
            output_bias=self.output_bias, config=self.config,
        )


def _portable(error: Exception) -> Exception:
    """``error`` if it survives a pickle round trip, else its text.

    An exception whose constructor does not accept its own ``args``
    would fail to unpickle in the parent's collector and take the whole
    fleet down with it; such an error crosses as a :class:`ServingError`.
    """
    try:
        return pickle.loads(pickle.dumps(error))
    except Exception:  # noqa: BLE001 - any pickling failure
        return ServingError(f"{type(error).__name__}: {error}")


def worker_main(generation: int, conn, payloads: list,
                retry: RetryPolicy | None = None,
                chaos: ChaosPolicy | None = None) -> None:
    """One ``EngineWorker`` process: serve batches until told to stop.

    ``generation`` counts respawns of this worker slot (0 for the
    original spawn) and is echoed in the ready handshake.  ``conn`` is
    this process's end of its generation's pipe.  Each batch runs
    through :func:`~repro.serve.server.flush_batch` under ``retry`` and
    ``chaos``, exactly as an in-process flush.  Before that, the chaos
    worker-crash hook runs keyed on the batch's site — a deterministic
    schedule of which batches die mid-flight (``os._exit``, the hard
    death a segfault would be), which the acceptance suite uses to
    prove crash recovery never drops work silently.

    A batch for a model this worker was never sent fails with a
    :class:`~repro.errors.ServingError`: a model registered after this
    worker was spawned reaches it through
    :meth:`~repro.serve.fleet.FleetServer.push_weights`.
    """
    backends = {}

    def install(payload: ModelPayload) -> None:
        backends[payload.name] = payload.build().engine_backend()

    for payload in payloads:
        install(payload)
    conn.send(("ready", generation))
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "swap":
            _, model, payload = message
            install(payload)
            conn.send(("swapped", model, payload.versions))
            continue
        _, batch_id, model, rows, n_rows, site = message
        if chaos is not None:
            # In a worker process this is os._exit(86): the batch
            # dies with us and the collector must account for it.
            chaos.maybe_crash_worker(f"fleet/{site}", 0)
        retries = []
        flush_s = 0.0
        try:
            backend = backends.get(model)
            if backend is None:
                raise ServingError(
                    f"this fleet worker has no model {model!r}: a model "
                    "registered after start() is deployed with "
                    f"push_weights({model!r})"
                )
            started = time.perf_counter()
            predictions = flush_batch(
                backend, view_rows(rows, n_rows), site, retry=retry,
                chaos=chaos, on_retry=lambda *args: retries.append(args),
            )
            flush_s = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - reported upward
            result = ("error", batch_id, _portable(error))
        else:
            result = ("ok", batch_id,
                      np.asarray(predictions, dtype=np.int64))
        stats = {"rows": int(n_rows), "flush_s": flush_s,
                 "retried": len(retries)}
        conn.send((*result, stats))
