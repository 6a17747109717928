"""The serving fleet: the serving core with its flushes in worker processes.

:class:`FleetServer` is :class:`~repro.serve.server.InferenceServer`
with its batches flushed in N ``EngineWorker`` *processes* instead of
the dispatch thread: admission, SLO classes, micro-batching, deadline
shedding, retries, chaos and the accounting invariant
(``submitted == completed + failed + shed``) are the core's, and only
where a batch is flushed differs — so kernel work escapes the GIL and
aggregate throughput can scale with workers (``benchmarks/
bench_serving.py`` measures the curve).

The moving parts and who owns what:

* **client threads** — the core's ``submit``: validation and a private
  copy of the row, SLO-class admission, breaker check, and the add to
  the model's batcher, all holding the interpreter lock.
* **dispatch thread** — the core's loop: takes each ready batch, sheds
  deadline-expired requests, then (this module) joins the batch's rows
  (:func:`~repro.serve.server.join_rows`) and sends that one ``bytes``
  object to the ready worker with the fewest batches in flight
  (:func:`choose_worker`), waiting while every worker holds
  :data:`MAX_IN_FLIGHT` batches.
* **worker processes** — :func:`~repro.serve.pool.worker_main`: view
  the rows, run the same :func:`~repro.serve.server.flush_batch` the
  in-process server runs, and send predictions + stats back.  Each
  worker generation has one ``multiprocessing.Pipe()``: work one way,
  replies the other.
* **collector thread** — one wait over every worker's pipe, every
  worker's process sentinel and a wake-up pipe: resolves futures from
  results, replays worker stats into the
  :class:`~repro.serve.metrics.ServingMetrics` registry (per-replica
  labels), records ``fleet.flush`` spans — and supervises: a dead
  worker's pipe is drained once, its in-flight batches are failed
  explicitly (never silently dropped), and the worker is respawned on
  a fresh pipe under the
  :class:`~repro.resilience.policy.SupervisorPolicy` retry budget.  A
  worker that exhausts the budget is removed; the batches still queued
  go to the survivors.  Nothing polls, so :meth:`~FleetServer.stop`
  returns as soon as the work is done.

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
from collections import Counter
from dataclasses import dataclass
from multiprocessing.connection import wait

from repro.errors import (
    ConfigurationError,
    ServingError,
    WorkerCrashError,
    _integer,
)
from repro.obs.trace import get_tracer
from repro.resilience.policy import SupervisorPolicy
from repro.serve.pool import ModelPayload, worker_main
from repro.serve.server import InferenceServer, join_rows

__all__ = ["MAX_IN_FLIGHT", "FleetServer", "choose_worker", "receive_all"]

#: How long :meth:`FleetServer.start` waits for every worker's ready
#: handshake, and a rollout for each replica's drain and swap ack.
LANE_TIMEOUT_S = 60.0

#: Batches one worker may hold at once: one it runs, one waiting in
#: its pipe, so it never idles between batches.
MAX_IN_FLIGHT = 2


def choose_worker(workers) -> int | None:
    """The worker the next batch goes to, or ``None`` if none can take it.

    ``workers`` yields ``(worker_id, ready, draining, removed,
    in_flight)``.  A worker is eligible when it is ready, not draining
    for a rollout, not removed, and holds fewer than
    :data:`MAX_IN_FLIGHT` batches.  The pick is the eligible worker
    with the fewest batches in flight, ties going to the lowest id.
    """
    eligible = [
        (in_flight, worker_id)
        for worker_id, ready, draining, removed, in_flight in workers
        if ready and not draining and not removed
        and in_flight < MAX_IN_FLIGHT
    ]
    return min(eligible)[1] if eligible else None


def receive_all(conn) -> list:
    """Every complete message waiting on ``conn``.

    Reads while the pipe polls readable.  Once the writer is gone the
    pipe polls readable at end of file, where ``recv`` raises: a clean
    end ends the read, and so does a message the dead writer tore
    mid-write, which is dropped.  So draining a dead generation's pipe
    keeps every complete message and never blocks.
    """
    messages = []
    try:
        while conn.poll():
            messages.append(conn.recv())
    except (EOFError, OSError):
        pass
    return messages


@dataclass
class _InFlight:
    """One batch the fleet has handed to a worker."""

    batch_id: int
    model: str
    worker_id: int
    requests: list
    dispatched_at: float


class _Worker:
    """Parent-side handle of one EngineWorker process."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.generation = -1
        self.process = None
        #: Parent end of this generation's pipe.  Only the collector
        #: thread (or ``start`` before it exists) reads it.
        self.conn = None
        self.ready = False
        self.respawns = 0
        self.removed = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class FleetServer(InferenceServer):
    """Multi-process micro-batching classification service.

    Takes every :class:`~repro.serve.server.InferenceServer` argument
    (``policy``, ``max_queue_depth``, ``metrics``, ``retry``,
    ``chaos``, ``slo_classes``, ``clock``).
    Retries and flush chaos run inside the workers, where an active
    ``chaos`` policy's worker-crash schedule also decides which batches
    crash their worker mid-flight (test harness).  In addition:

    Parameters
    ----------
    n_workers:
        Engine worker processes (replicas).  Every model is served by
        every replica; each batch goes to the ready replica with the
        fewest batches in flight.
    supervisor:
        :class:`SupervisorPolicy`; its ``retry_budget`` bounds how
        many times one worker slot may be respawned before it is
        removed.

    Swaps and weight pushes go through the registry first (interface
    validation, breaker reset) and then roll out to the workers one
    replica at a time.
    """

    def __init__(self, registry, n_workers: int = 2,
                 supervisor: SupervisorPolicy | None = None,
                 **kwargs) -> None:
        n_workers = _integer("n_workers", n_workers)
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        super().__init__(registry, **kwargs)
        self.n_workers = n_workers
        self.supervisor = supervisor or SupervisorPolicy()
        self._next_batch_id = 0
        self._assigned: dict[int, _InFlight] = {}
        self._draining: set[int] = set()
        self._swap_acks: dict[int, tuple] = {}
        self._workers: dict[int, _Worker] = {}
        #: Pipes of dead generations, closed by ``stop``: closing one
        #: under a sender that raced the crash could hand its
        #: descriptor number to the next pipe.  The retry budget
        #: bounds how many there are.
        self._retired: list = []
        #: Self-pipe that wakes the collector out of its wait.
        self._wake_rd = self._wake_wr = -1
        self._mp = multiprocessing.get_context()

    # -- worker lifecycle -----------------------------------------------------------

    def _start_lanes(self) -> None:
        """Spawn the workers and await every handshake."""
        if not self.registry.names():
            raise ConfigurationError(
                "the registry holds no models; register before start()"
            )
        self._assigned = {}
        self._wake_rd, self._wake_wr = os.pipe()
        os.set_blocking(self._wake_rd, False)
        self._workers = {w: _Worker(w) for w in range(self.n_workers)}
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
            readable = wait([obj for w in pending
                             for obj in (w.conn, w.process.sentinel)], left)
            for worker in pending:
                if worker.conn in readable:
                    self._receive(worker)

    def _payloads(self) -> list[ModelPayload]:
        return [
            ModelPayload.from_network(name, self.registry.get(name))
            for name in self.registry.names()
        ]

    def _spawn(self, worker: _Worker) -> None:
        """Start the worker's next generation on a fresh pipe.

        A dead generation's pipe may hold a torn final message, and a
        batch sent to it must never reach its successor (the crash
        handler fails it explicitly instead), so every generation gets
        its own pipe.
        """
        parent_end, child_end = self._mp.Pipe()
        with self._cond:
            worker.generation += 1
            worker.ready = False
            if worker.conn is not None:
                self._retired.append(worker.conn)
            worker.conn = parent_end
        worker.process = self._mp.Process(
            target=worker_main,
            name=f"repro-fleet-worker-{worker.worker_id}",
            args=(worker.generation, child_end, self._payloads(),
                  self.retry, self.chaos),
            daemon=True,
        )
        worker.process.start()
        # With the child holding the only copy of its end, the pipe
        # reads end of file once the child is gone, and a send to the
        # dead child fails instead of filling a buffer nobody reads.
        child_end.close()

    def _stop_lanes(self) -> None:
        """Stop the workers, close every pipe."""
        for worker in self._workers.values():
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except OSError:  # died since: nothing left to stop
                    pass
        for worker in self._workers.values():
            if worker.process is not None:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
        conns = [*self._retired, *(w.conn for w in self._workers.values())]
        for conn in conns:
            if conn is not None:
                conn.close()
        self._retired = []
        for fd in (self._wake_rd, self._wake_wr):
            if fd >= 0:
                os.close(fd)
        self._wake_rd = self._wake_wr = -1

    def _loops(self) -> list:
        return [*super()._loops(), (self._collect_forever, "collector")]

    def _wake(self) -> None:
        if self._wake_wr >= 0:
            os.write(self._wake_wr, b"\0")

    # -- dispatch -------------------------------------------------------------------

    def _held(self) -> list:
        held = super()._held()
        for flight in self._assigned.values():
            held.extend(flight.requests)
        self._assigned = {}
        return held

    def _choose(self) -> _Worker | None:
        """The worker for the next batch.  (Call under the lock.)"""
        loads = Counter(f.worker_id for f in self._assigned.values())
        picked = choose_worker(
            (w.worker_id, w.ready, w.worker_id in self._draining,
             w.removed, loads[w.worker_id])
            for w in self._workers.values()
        )
        return None if picked is None else self._workers[picked]

    def _flush(self, model: str, requests: list, site: str) -> None:
        """Send the batch's rows to the least-loaded ready worker."""
        rows = join_rows(requests)
        with self._cond:
            # Choosing the worker and registering the batch in one
            # lock hold means a worker the collector removes can never
            # be handed a batch: either the batch is registered first
            # and the crash path fails it, or the worker is not chosen.
            while (worker := self._choose()) is None:
                if self._failed or (not self._running
                                    and not self._drain_on_stop):
                    break
                self._cond.wait()
            if worker is not None:
                batch_id = self._next_batch_id
                self._next_batch_id += 1
                self._assigned[batch_id] = _InFlight(
                    batch_id=batch_id, model=model,
                    worker_id=worker.worker_id, requests=requests,
                    dispatched_at=self._clock(),
                )
                conn = worker.conn
        if worker is None:  # failed, or aborted without drain
            self._fail(requests, ServingError(
                "fleet stopped before the batch could be dispatched"
            ))
            return
        # Each pipe has one sender at a time: this dispatch thread
        # sends batches, a rollout sends its swap only once that
        # replica is ready with nothing in flight (and the dispatcher
        # skips a draining replica), and ``stop`` goes out after the
        # server threads have exited.  The rows go one byte per spike,
        # and a send that waits behind the batch the worker has not
        # read yet still does not block: the pipe is an AF_UNIX socket
        # pair, whose send buffer is 208 KiB by default on Linux
        # (``net.core.wmem_default``), and at most one batch
        # (MAX_IN_FLIGHT = 2) queues behind the one running.  A
        # 64-row batch of the 768-input reference model is 49 KB.
        try:
            conn.send(("batch", batch_id, model, rows, len(requests),
                       site))
        except OSError:
            # The worker died: the batch is registered, so the crash
            # path fails it explicitly.
            pass

    # -- introspection --------------------------------------------------------------

    def live_workers(self) -> set[int]:
        """Ids of the workers not removed (spawned or respawning)."""
        with self._cond:
            return {w.worker_id for w in self._workers.values()
                    if not w.removed}

    def describe(self) -> dict:
        """JSON-ready fleet summary (CLI reports, tests)."""
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
        worker, one drained replica at a time.  It also deploys a
        model registered after :meth:`start`: the workers were built
        from the models registered at spawn, and fail a batch for any
        other model until this has run.  Returns the weight versions
        rolled out.
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
                    lambda: worker.removed or (worker.ready and not any(
                        f.worker_id == worker_id
                        for f in self._assigned.values()
                    )),
                    f"draining replica {worker_id} for {name!r} rollout",
                )
                with self._cond:
                    if worker.removed:
                        continue
                    self._swap_acks.pop(worker_id, None)
                    sent_generation = worker.generation
                    conn = worker.conn
                try:
                    conn.send(("swap", name, payload))
                except OSError:  # died: its successor rebuilds below
                    pass
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
        wait.  Exits once stopped and nothing is left in flight."""
        while True:
            with self._cond:
                if not self._running and (self._failed
                                          or self._in_flight == 0):
                    return
                watched = [(w, w.conn, w.process.sentinel)
                           for w in self._workers.values() if not w.removed]
            readable = wait([self._wake_rd, *(obj for _, conn, sentinel
                                              in watched
                                              for obj in (conn, sentinel))])
            if self._wake_rd in readable:
                try:
                    os.read(self._wake_rd, 1 << 10)
                except BlockingIOError:
                    pass
            for worker, conn, sentinel in watched:
                died = sentinel in readable
                # A dead generation's pipe gets one final drain: every
                # complete message it sent still counts.
                if died or conn in readable:
                    self._receive(worker)
                if died:
                    self._handle_crash(worker)

    def _receive(self, worker: _Worker) -> None:
        for message in receive_all(worker.conn):
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
            self._cond.notify_all()
        if flight is None:  # late result of a batch already failed
            return
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
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                "fleet.flush", flight.dispatched_at, done,
                model=flight.model, replica=flight.worker_id,
                size=len(flight.requests),
            )

    def _handle_crash(self, worker: _Worker) -> None:
        """One worker died: fail its in-flight work, respawn or remove it.

        The worker stops being ready in the same lock hold that takes
        its batches out of ``_assigned``, so the dispatcher either
        registered a batch before (and it is failed here) or cannot
        choose this worker — nothing ever lands in a void.
        """
        exit_code = worker.process.exitcode
        with self._cond:
            worker.ready = False
            lost = [f for f in self._assigned.values()
                    if f.worker_id == worker.worker_id]
            for flight in lost:
                del self._assigned[flight.batch_id]
        cause = WorkerCrashError(
            f"fleet worker {worker.worker_id} died (exit code {exit_code})"
        )
        registry = self.metrics.registry
        replica = str(worker.worker_id)
        registry.counter(
            "repro_fleet_worker_crashes_total", replica=replica
        ).inc()
        for flight in lost:
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
        # Budget exhausted: the survivors take every batch from here on.
        with self._cond:
            worker.removed = True
            survivors = any(not w.removed for w in self._workers.values())
            self._cond.notify_all()
        if not survivors:
            self._fail_pending(cause, "fleet")
