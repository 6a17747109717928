"""The serving fleet: the serving core with worker-process lanes.

:class:`FleetServer` is :class:`~repro.serve.server.InferenceServer`
with N ``EngineWorker`` *processes* as its lanes instead of the
dispatch thread: admission, SLO classes, micro-batching, deadline
shedding, retries, chaos and the accounting invariant
(``submitted == completed + failed + shed``) are the core's, and only
where a batch is flushed differs — so kernel work escapes the GIL and
aggregate throughput scales with workers (``benchmarks/
bench_serving.py`` measures the curve).

The moving parts and who owns what:

* **client threads** — the core's ``submit``: validation, SLO-class
  admission, breaker check, request-id assignment.
* **dispatch thread** — the core's loop: routes each request to a
  replica with the seeded :class:`~repro.serve.pool.ConsistentHashRouter`,
  batches per (model, replica), sheds deadline-expired requests, then
  (this module) packs each ready batch bit-packed into a free
  :class:`~repro.serve.shm.SpikeRing` slot and posts a tiny descriptor
  to the owning worker's queue.
* **worker processes** — :func:`~repro.serve.pool.worker_main`: read
  the slot, run the same :func:`~repro.serve.server.flush_batch` the
  in-process server runs, post predictions + stats as length-prefixed
  frames over the worker's private result pipe (one ``os.pipe`` per
  worker generation, exactly one writer — no cross-process lock a
  hard-killed worker could leave acquired).
* **collector thread** — one ``select`` over every result pipe, every
  worker's process sentinel and a wake-up pipe: resolves futures from
  results, frees ring slots, replays worker stats into the
  :class:`~repro.serve.metrics.ServingMetrics` registry (per-replica
  labels), records ``fleet.flush`` spans — and supervises: a dead
  worker's pipe is drained once, its in-flight batches are failed
  explicitly (never silently dropped), its ring slots freed, and the
  worker respawned with a fresh queue under the
  :class:`~repro.resilience.policy.SupervisorPolicy` retry budget.  A
  worker that exhausts the budget is removed from the routing set; its
  undispatched requests re-route to the survivors.  Nothing polls, so
  :meth:`~FleetServer.stop` returns as soon as the work is done.

:meth:`~FleetServer.start` returns only after every worker has built
its engines and reported ready, so model build time never lands in the
first requests' latency.

Determinism: ``infer_batch`` is split-invariant, so predictions are
bit-identical to single-process serving for *any* worker count and
any batching of the request stream — the chaos acceptance suite
asserts this across worker counts and across a mid-run crash +
respawn.  Rolling hot-swap (:meth:`FleetServer.swap` /
:meth:`FleetServer.push_weights`) drains one replica at a time, so a
weight rollout never has two weight versions answering interleaved
batches of one replica and the fleet keeps serving throughout.
"""

from __future__ import annotations

import multiprocessing
import os
import select
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ServingError, WorkerCrashError
from repro.obs.trace import get_tracer
from repro.resilience.policy import SupervisorPolicy
from repro.serve.pool import (
    ConsistentHashRouter,
    FrameDecoder,
    ModelPayload,
    worker_main,
)
from repro.serve.server import InferenceServer
from repro.serve.shm import RingGeometry, SpikeRing

__all__ = ["FleetServer"]

#: How long :meth:`FleetServer.start` waits for every worker's ready
#: handshake, and a rollout for each replica's drain and swap ack.
LANE_TIMEOUT_S = 60.0


@dataclass
class _InFlight:
    """One batch the fleet has handed to a worker."""

    batch_id: int
    model: str
    worker_id: int
    slot: int
    requests: list
    dispatched_at: float


class _Worker:
    """Parent-side handle of one EngineWorker process."""

    def __init__(self, worker_id: int, queue) -> None:
        self.worker_id = worker_id
        self.queue = queue
        self.generation = -1
        self.process = None
        #: Read end of this generation's result pipe (non-blocking)
        #: and its frame reassembly buffer.  Only the collector thread
        #: (or ``start`` before it exists) ever reads the fd.
        self.result_rd = -1
        self.decoder = None
        self.ready = False
        self.respawns = 0
        self.removed = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class FleetServer(InferenceServer):
    """Multi-process micro-batching classification service.

    Takes every :class:`~repro.serve.server.InferenceServer` argument
    (``policy``, ``max_queue_depth``, ``engine``, ``metrics``,
    ``retry``, ``chaos``, ``slo_classes``, ``clock``, ``tracer``).
    Retries and flush chaos run inside the workers, where an active
    ``chaos`` policy's worker-crash schedule also decides which batches
    crash their worker mid-flight (test harness).  In addition:

    Parameters
    ----------
    n_workers:
        Engine worker processes (replicas).  Every model is served by
        every replica; routing spreads the request stream across them.
    supervisor:
        :class:`SupervisorPolicy`; its ``retry_budget`` bounds how
        many times one worker slot may be respawned before it is
        removed from the routing set.
    route_seed:
        Seed of the consistent-hash routing ring.
    n_slots:
        Shared-memory ring slots (default ``max(2 * n_workers, 4)``);
        bounds how many batches may be in flight across all workers.

    Swaps and weight pushes go through the registry first (interface
    validation, breaker reset) and then roll out to the workers one
    replica at a time.
    """

    def __init__(self, registry, n_workers: int = 2,
                 supervisor: SupervisorPolicy | None = None,
                 route_seed: int = 0, n_slots: int | None = None,
                 **kwargs) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        super().__init__(registry, **kwargs)
        self.n_workers = n_workers
        self.supervisor = supervisor or SupervisorPolicy()
        self.router = ConsistentHashRouter(range(n_workers), seed=route_seed)
        self.n_slots = (n_slots if n_slots is not None
                        else max(2 * n_workers, 4))
        self._next_batch_id = 0
        self._free_slots: list[int] = []
        self._assigned: dict[int, _InFlight] = {}
        self._draining: set[int] = set()
        self._swap_acks: dict[int, tuple] = {}
        self._workers: dict[int, _Worker] = {}
        self._ring: SpikeRing | None = None
        #: Self-pipe that wakes the collector out of ``select``.
        self._wake_rd = self._wake_wr = -1
        self._mp = multiprocessing.get_context()

    # -- lane lifecycle -------------------------------------------------------------

    def _start_lanes(self) -> None:
        """Allocate the ring, spawn the workers, await every handshake."""
        names = self.registry.names()
        if not names:
            raise ConfigurationError(
                "the registry holds no models; register before start()"
            )
        widths = [self.registry.get(n).tiles[0].n_in for n in names]
        self._ring = SpikeRing(RingGeometry(
            self.n_slots, self.policy.max_batch_size, max(widths)
        ))
        self._free_slots = list(range(self.n_slots))
        self._assigned = {}
        self._wake_rd, self._wake_wr = os.pipe()
        os.set_blocking(self._wake_rd, False)
        self._workers = {
            w: _Worker(w, self._mp.SimpleQueue())
            for w in range(self.n_workers)
        }
        try:
            for worker in self._workers.values():
                self._spawn(worker)
            self._await_ready()
        except BaseException:
            self._stop_lanes()
            raise

    def _await_ready(self) -> None:
        """Read ready handshakes until every worker has sent one."""
        deadline = self._clock() + LANE_TIMEOUT_S
        while True:
            pending = [w for w in self._workers.values() if not w.ready]
            if not pending:
                return
            dead = [w.worker_id for w in pending if not w.alive]
            if dead:
                raise ServingError(
                    f"fleet workers {dead} died before reporting ready"
                )
            left = deadline - self._clock()
            if left <= 0:
                raise ServingError(
                    "timed out waiting for fleet workers to report ready"
                )
            readable, _, _ = select.select(
                [fd for w in pending
                 for fd in (w.result_rd, w.process.sentinel)], [], [], left,
            )
            for worker in pending:
                if worker.result_rd in readable:
                    self._drain_pipe(worker)

    def _payloads(self) -> list[ModelPayload]:
        return [
            ModelPayload.from_network(name, self.registry.get(name))
            for name in self.registry.names()
        ]

    def _spawn(self, worker: _Worker) -> None:
        """Start one worker process on the slot's current work queue.

        The caller is responsible for having installed a *fresh* queue
        when respawning after a crash — items posted to a dead
        worker's queue must never be double-served by its successor
        (the crash handler fails them explicitly instead).  Each spawn
        also gets a fresh result pipe: the dying generation may have
        torn its final frame, and a torn tail must never desync its
        successor's frame stream.
        """
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)
        with self._cond:
            worker.generation += 1
            worker.ready = False
            worker.result_rd = read_fd
            worker.decoder = FrameDecoder()
        worker.process = self._mp.Process(
            target=worker_main,
            name=f"repro-fleet-worker-{worker.worker_id}",
            args=(worker.generation, self._ring.name,
                  self._ring.geometry.to_tuple(), self._payloads(),
                  self.engine, worker.queue, write_fd,
                  self.retry, self.chaos),
            daemon=True,
        )
        worker.process.start()
        # The child owns its copy of the write end; dropping the
        # parent's keeps the fd table bounded across respawns.
        os.close(write_fd)

    def _stop_lanes(self) -> None:
        """Stop the workers, close every pipe, unlink the ring."""
        for worker in self._workers.values():
            if worker.alive:
                worker.queue.put(("stop",))
        for worker in self._workers.values():
            if worker.process is not None:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
        fds = [w.result_rd for w in self._workers.values()]
        fds += [self._wake_rd, self._wake_wr]
        for fd in fds:
            if fd >= 0:
                os.close(fd)
        for worker in self._workers.values():
            worker.result_rd = -1
        self._wake_rd = self._wake_wr = -1
        if self._ring is not None:
            self._ring.close()
            self._ring.unlink()
            self._ring = None

    def _loops(self) -> list:
        return [*super()._loops(), (self._collect_forever, "collector")]

    def _wake(self) -> None:
        if self._wake_wr >= 0:
            os.write(self._wake_wr, b"\0")

    # -- lanes ----------------------------------------------------------------------

    def _lanes(self) -> list[int]:
        """Worker ids in the routing set.  (Call under the lock.)"""
        return [w.worker_id for w in self._workers.values() if not w.removed]

    def _lane_for(self, request) -> int:
        lanes = self._lanes()
        if len(lanes) == 1:
            return lanes[0]
        return self.router.route(request.request_id, lanes)

    def _accepts(self, lane: int) -> bool:
        return self._workers[lane].ready and lane not in self._draining

    def _held(self) -> list:
        held = super()._held()
        for flight in self._assigned.values():
            held.extend(flight.requests)
        self._assigned = {}
        return held

    def _flush(self, model: str, lane: int, requests: list,
               site: str) -> None:
        """Pack the batch into a ring slot and post it to worker ``lane``."""
        slot = self._acquire_slot()
        if slot is None:  # failed, or aborted without drain
            self._fail(requests, ServingError(
                "fleet stopped before the batch could be dispatched"
            ))
            return
        n_rows = self._ring.pack_into(
            slot, np.stack([r.spikes for r in requests])
        )
        with self._cond:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            self._assigned[batch_id] = _InFlight(
                batch_id=batch_id, model=model, worker_id=lane, slot=slot,
                requests=requests, dispatched_at=self._clock(),
            )
            target_queue = self._workers[lane].queue
        target_queue.put(("batch", batch_id, model, slot, n_rows, site))

    def _acquire_slot(self) -> int | None:
        with self._cond:
            while not self._free_slots:
                if self._failed or (not self._running
                                    and not self._drain_on_stop):
                    return None
                self._cond.wait()
            return self._free_slots.pop()

    def _release_slot(self, slot: int) -> None:
        with self._cond:
            self._free_slots.append(slot)
            self._cond.notify_all()

    # -- introspection --------------------------------------------------------------

    def live_workers(self) -> set[int]:
        """Worker ids still in the routing set (spawned or respawning)."""
        with self._cond:
            return set(self._lanes())

    def describe(self) -> dict:
        """JSON-ready fabric summary (CLI reports, tests)."""
        with self._cond:
            workers = [
                {
                    "worker_id": w.worker_id,
                    "generation": w.generation,
                    "ready": w.ready,
                    "respawns": w.respawns,
                    "removed": w.removed,
                }
                for w in self._workers.values()
            ]
        return {
            "n_workers": self.n_workers,
            "engine": self.engine,
            "n_slots": self.n_slots,
            "slo_classes": sorted(self.slo_classes),
            "workers": workers,
        }

    # -- rolling hot-swap -----------------------------------------------------------

    def swap(self, name: str, network, point=None):
        """Replace ``name``'s network and roll it out replica by replica.

        The registry swap happens first (interface check, breaker
        reset); then each live worker is drained — no new batches
        dispatched to it, its in-flight batches allowed to finish —
        and handed the new weights before the next worker starts
        draining.  The fleet keeps serving on the other replicas the
        whole time.  Returns the old network.
        """
        old = self.registry.swap(name, network, point=point)
        self._rollout(name)
        return old

    def push_weights(self, name: str) -> tuple:
        """Roll the registry's *current* weights for ``name`` out.

        The in-place hot-swap path: after online learning or fault
        injection mutated the registered network's tiles (bumping
        ``Tile.weight_version``), this ships a fresh snapshot to every
        worker, one drained replica at a time.  Returns the weight
        versions rolled out.
        """
        return self._rollout(name)

    def _rollout(self, name: str) -> tuple:
        payload = ModelPayload.from_network(name, self.registry.get(name))
        for worker_id in sorted(self.live_workers()):
            with self._cond:
                worker = self._workers[worker_id]
                if worker.removed:
                    continue
                self._draining.add(worker_id)
            try:
                self._await(
                    lambda: not any(f.worker_id == worker_id
                                    for f in self._assigned.values()),
                    f"draining replica {worker_id} for {name!r} rollout",
                )
                with self._cond:
                    if worker.removed:
                        continue
                    self._swap_acks.pop(worker_id, None)
                    sent_generation = worker.generation
                    worker.queue.put(("swap", name, payload))
                # A respawn mid-swap is also success: the fresh worker
                # rebuilt from the registry, which already holds the
                # new weights (so the lost swap message is moot).
                self._await(
                    lambda: self._swap_acks.get(worker_id)
                    == (name, payload.versions)
                    or worker.generation != sent_generation
                    or worker.removed,
                    f"swap ack from replica {worker_id} for {name!r}",
                )
            finally:
                with self._cond:
                    self._draining.discard(worker_id)
                    self._cond.notify_all()
        return payload.versions

    def _await(self, predicate, what: str) -> None:
        """Wait on the server condition until ``predicate()`` holds."""
        deadline = self._clock() + LANE_TIMEOUT_S
        with self._cond:
            while not predicate():
                if self._failed:
                    raise ServingError(
                        f"fleet failed while waiting for {what}"
                    )
                left = deadline - self._clock()
                if left <= 0:
                    raise ServingError(f"timed out waiting for {what}")
                self._cond.wait(left)

    # -- collection and supervision -------------------------------------------------

    def _collect_forever(self) -> None:
        """Collector thread: results, worker deaths and wake-ups from one
        ``select``.  Exits once stopped and nothing is left in flight."""
        while True:
            with self._cond:
                if not self._running and (self._failed
                                          or self._in_flight == 0):
                    return
                workers = [w for w in self._workers.values()
                           if w.result_rd >= 0]
            watched = [self._wake_rd]
            for worker in workers:
                watched += [worker.result_rd, worker.process.sentinel]
            readable, _, _ = select.select(watched, [], [])
            if self._wake_rd in readable:
                try:
                    os.read(self._wake_rd, 1 << 10)
                except BlockingIOError:
                    pass
            for worker in workers:
                died = worker.process.sentinel in readable
                # A dead generation's pipe gets one final drain: every
                # complete frame it wrote still counts, a torn tail is
                # discarded with the decoder.
                if died or worker.result_rd in readable:
                    self._drain_pipe(worker)
                if died:
                    self._handle_crash(worker)

    def _drain_pipe(self, worker: _Worker) -> None:
        """Non-blocking read of everything available, frame dispatch."""
        while True:
            try:
                data = os.read(worker.result_rd, 1 << 16)
            except OSError:  # BlockingIOError: nothing more right now
                break
            if not data:
                break
            worker.decoder.feed(data)
        for message in worker.decoder.frames():
            self._handle_result(worker, message)

    def _handle_result(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "ready":
            with self._cond:
                if worker.generation == message[1]:
                    worker.ready = True
                    self._cond.notify_all()
            return
        if kind == "swapped":
            _, model, versions = message
            with self._cond:
                self._swap_acks[worker.worker_id] = (model, versions)
                self._cond.notify_all()
            return
        _, batch_id, outcome, stats = message
        with self._cond:
            flight = self._assigned.pop(batch_id, None)
        if flight is None:
            # Late result of a batch already failed (its slot was
            # freed there; never free it twice).
            return
        self._release_slot(flight.slot)
        retried = stats["retried"]
        if retried:
            self.metrics.record_retried(retried)
            for _ in range(retried):
                self.registry.record_flush_failure(flight.model)
        done = self._clock()
        self._replay_stats(flight, stats, done)
        if kind == "ok":
            self._complete(flight.model, flight.requests, outcome, done)
        else:
            self._fail(flight.requests, outcome, flight.model)

    def _replay_stats(self, flight: _InFlight, stats: dict,
                      done: float) -> None:
        """Fold one worker's batch stats into the fleet's registry."""
        registry = self.metrics.registry
        labels = {"replica": str(flight.worker_id), "model": flight.model}
        registry.counter("repro_fleet_batches_total", **labels).inc()
        registry.counter("repro_fleet_rows_total", **labels).inc(
            stats["rows"]
        )
        registry.histogram("repro_fleet_flush_ms", **labels).observe(
            round(stats["flush_s"] * 1e3, 3)
        )
        tracer = self._active_tracer()
        if tracer.enabled:
            tracer.record(
                "fleet.flush", flight.dispatched_at, done,
                model=flight.model, replica=flight.worker_id,
                size=len(flight.requests), engine=self.engine,
            )

    def _handle_crash(self, worker: _Worker) -> None:
        """One worker died: fail its in-flight work, respawn or remove it.

        Ordering matters: the fresh work queue is installed *before*
        the in-flight snapshot is taken, so any batch the dispatcher
        managed to post to the dead queue is provably in the snapshot
        (batches register in ``_assigned`` before the post) and gets
        failed here — nothing ever lands in a void.
        """
        exit_code = worker.process.exitcode
        with self._cond:
            worker.ready = False
            worker.queue = self._mp.SimpleQueue()
            lost = [f for f in self._assigned.values()
                    if f.worker_id == worker.worker_id]
            for flight in lost:
                del self._assigned[flight.batch_id]
            os.close(worker.result_rd)
            worker.result_rd = -1
        cause = WorkerCrashError(
            f"fleet worker {worker.worker_id} died (exit code {exit_code})"
        )
        registry = self.metrics.registry
        replica = str(worker.worker_id)
        registry.counter(
            "repro_fleet_worker_crashes_total", replica=replica
        ).inc()
        for flight in lost:
            self._release_slot(flight.slot)
            error = ServingError(
                f"fleet worker {worker.worker_id} crashed with the batch "
                "in flight; request failed explicitly"
            )
            error.__cause__ = cause
            self._fail(flight.requests, error, flight.model)
        if worker.respawns < self.supervisor.retry_budget:
            worker.respawns += 1
            registry.counter(
                "repro_fleet_respawns_total", replica=replica
            ).inc()
            self._spawn(worker)
            return
        # Budget exhausted: remove the replica from the routing set and
        # re-route its undispatched requests to the survivors.
        with self._cond:
            worker.removed = True
            survivors = self._lanes()
            stranded = [
                request
                for (_, lane), batcher in self._batchers.items()
                if lane == worker.worker_id
                for batch in batcher.drain()
                for request in batch
            ]
            if survivors:
                for index, request in enumerate(stranded):
                    target = self.router.route(f"reroute/{index}", survivors)
                    self._batcher(request.model, target).add(
                        request, now=request.submitted_at
                    )
            self._cond.notify_all()
        if not survivors:
            self._fail_pending(cause, "fleet")
