"""Fleet worker pool: consistent routing, model payloads, worker loop.

Three pieces the :class:`~repro.serve.fleet.FleetServer` is built from:

* :class:`ConsistentHashRouter` — the seeded consistent-hash ring that
  maps request ids to replicas.  Deterministic (a pure function of the
  seed and the replica set) and *consistent*: removing one replica
  remaps only the keys that replica owned, every other key keeps its
  assignment — the property suite proves both.
* :class:`ModelPayload` — a picklable snapshot of a servable network
  (weights, thresholds, bias, hardware config).  Control-plane data:
  it crosses the process boundary only at worker spawn and at
  hot-swap, never per request.
* :func:`worker_main` — the body of one ``EngineWorker`` process: loop
  over a private work queue, read bit-packed batches out of the shared
  :class:`~repro.serve.shm.SpikeRing`, run them through the same
  :func:`~repro.serve.server.flush_batch` the in-process server runs
  (retries and flush chaos included) **without re-validating** (the
  server validated every request exactly once at admission), and post
  predictions + per-batch stats over the worker's private result pipe.

Results cross the process boundary as length-prefixed pickled frames
(:func:`send_frame` / :class:`FrameDecoder`) over a raw ``os.pipe``
with exactly one writer — *never* a shared ``multiprocessing.Queue``.
A shared queue serializes writers through a cross-process lock (and a
background feeder thread), and a worker hard-killed mid-flush would
leave that lock acquired forever, wedging every surviving replica.
With one lock-free pipe per worker generation, a dying worker can at
worst tear its own final frame, which the fabric's decoder discards.

Message vocabulary (plain tuples, first element the kind; a result
pipe belongs to one worker generation, so results name no worker):

====================  ===========================================
work queue            ``("batch", batch_id, model, slot, n_rows,
                      site)``
                      ``("swap", model, payload)``
                      ``("stop",)``
result pipe           ``("ready", generation)``
                      ``("ok", batch_id, predictions, stats)``
                      ``("error", batch_id, exception, stats)``
                      ``("swapped", model, versions)``
====================  ===========================================

``stats`` is ``{"rows", "flush_s", "retried"}``.  A worker that dies
mid-batch posts nothing — the fleet's collector notices the dead
process, fails that worker's in-flight batches explicitly, and
respawns it with a fresh queue and a fresh pipe.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import pickle
import struct
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import RetryPolicy
from repro.serve.server import flush_batch
from repro.serve.shm import RingGeometry, SpikeRing
from repro.tile.network import EsamNetwork

__all__ = [
    "ConsistentHashRouter", "FrameDecoder", "ModelPayload",
    "send_frame", "worker_main",
]

_HEADER = struct.Struct("!I")


def send_frame(fd: int, message: object) -> None:
    """Write one length-prefixed pickled message to a blocking fd.

    ``os.write`` may accept fewer bytes than offered on a pipe, so the
    frame is written in a loop; with a single writer per pipe there is
    no interleaving to guard against.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    data = memoryview(_HEADER.pack(len(payload)) + payload)
    while data:
        written = os.write(fd, data)
        data = data[written:]


class FrameDecoder:
    """Reassemble :func:`send_frame` frames from a non-blocking fd.

    ``feed`` buffers raw pipe bytes; ``frames`` yields every complete
    message and keeps any trailing partial frame buffered.  A writer
    killed mid-``os.write`` leaves exactly one torn tail, which simply
    never completes — the fabric drops it with the pipe.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self):
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self._buffer)
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield pickle.loads(payload)


class ConsistentHashRouter:
    """Seeded consistent-hash ring: request key -> replica id.

    Each replica owns ``vnodes`` points on a 64-bit ring, placed by
    SHA-256 of ``(seed, replica, vnode)``; a key routes to the replica
    owning the first point clockwise of the key's own hash.  Passing
    ``live`` restricts routing to a subset without rebuilding: the walk
    simply skips points of dead replicas, which is exactly what makes
    the assignment consistent — a dead replica's keys redistribute, and
    every other key stays put.
    """

    def __init__(self, replicas, seed: int = 0, vnodes: int = 64) -> None:
        self.replicas = tuple(replicas)
        if not self.replicas:
            raise ConfigurationError("router needs at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ConfigurationError(
                f"duplicate replica ids: {self.replicas}"
            )
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.seed = seed
        self.vnodes = vnodes
        ring = []
        for replica in self.replicas:
            for v in range(vnodes):
                ring.append((self._point("node", replica, v), replica))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [r for _, r in ring]

    def _point(self, *parts) -> int:
        text = "|".join(str(part) for part in (self.seed, *parts))
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def route(self, key, live=None):
        """The live replica owning ``key`` (raises if none is live)."""
        live_set = set(self.replicas) if live is None else set(live)
        if not live_set & set(self.replicas):
            raise ServingError(
                "no live replica to route to (all workers removed)"
            )
        start = bisect.bisect_right(self._points, self._point("key", key))
        n = len(self._owners)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner in live_set:
                return owner
        raise ServingError("no live replica to route to")  # unreachable


@dataclass(frozen=True)
class ModelPayload:
    """Picklable snapshot of one servable network (control plane only)."""

    name: str
    weights: tuple
    thresholds: tuple
    output_bias: np.ndarray | None
    config: object
    #: Per-tile weight versions at snapshot time; echoed back in the
    #: worker's swap ack so the fabric can prove which weights serve.
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


def worker_main(generation: int, ring_name: str,
                geometry: tuple, payloads: list, engine: str,
                work_queue, result_fd: int,
                retry: RetryPolicy | None = None,
                chaos: ChaosPolicy | None = None) -> None:
    """One ``EngineWorker`` process: serve batches until told to stop.

    ``generation`` counts respawns of this worker slot (0 for the
    original spawn) and is echoed in the ready handshake.  Each batch
    runs through :func:`~repro.serve.server.flush_batch` under
    ``retry`` and ``chaos``, exactly as an in-process flush.  Before
    that, the chaos worker-crash hook runs keyed on the batch's site —
    a deterministic schedule of which batches die mid-flight
    (``os._exit``, the hard death a segfault would be), which the
    acceptance suite uses to prove crash recovery never drops work
    silently.  ``result_fd`` is the write end of this worker's private
    result pipe; this process is its only writer.
    """
    ring = SpikeRing(RingGeometry(*geometry), name=ring_name, create=False)
    backends = {}
    widths = {}
    for payload in payloads:
        network = payload.build()
        backends[payload.name] = network.engine_backend(engine)
        widths[payload.name] = network.tiles[0].n_in
    send_frame(result_fd, ("ready", generation))
    try:
        while True:
            message = work_queue.get()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "swap":
                _, model, payload = message
                network = payload.build()
                backends[model] = network.engine_backend(engine)
                widths[model] = network.tiles[0].n_in
                send_frame(result_fd, ("swapped", model, payload.versions))
                continue
            _, batch_id, model, slot, n_rows, site = message
            if chaos is not None:
                # In a worker process this is os._exit(86): the batch
                # dies with us and the collector must account for it.
                chaos.maybe_crash_worker(f"fleet/{site}", 0)
            retries = []
            flush_s = 0.0
            try:
                rows = ring.read_rows(slot, n_rows, widths[model])
                started = time.perf_counter()
                predictions = flush_batch(
                    backends[model], rows, site, retry=retry, chaos=chaos,
                    on_retry=lambda *args: retries.append(args),
                )
                flush_s = time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 - reported upward
                result = ("error", batch_id, _portable(error))
            else:
                result = ("ok", batch_id,
                          np.asarray(predictions, dtype=np.int64))
            stats = {"rows": int(n_rows), "flush_s": flush_s,
                     "retried": len(retries)}
            send_frame(result_fd, (*result, stats))
    finally:
        ring.close()
