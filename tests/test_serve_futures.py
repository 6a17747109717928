"""Served futures: each request is its own ``concurrent.futures`` future.

``submit`` returns the admitted request itself, a
``concurrent.futures.Future`` subclass that waits on its server's
resolution condition and builds a condition of its own only when a
stdlib consumer asks for one.  ``wait`` and ``as_completed`` read the
private fields of a ``Future`` (``_condition``, ``_state``,
``_waiters``, ``_result``, ``_exception``, ``_done_callbacks``), so
these tests drive every stdlib consumer of a future through both server
kinds: a Python release that changes those fields fails here.  An admitted request starts running, so it cannot be
cancelled: the lane that answers its batch must find it unresolved,
and a cancelled future would make that resolution raise on the
dispatch thread (in process) or the collector (in the fleet).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, as_completed, wait

import pytest

from repro.errors import DeadlineExceededError
from repro.serve import BatchPolicy, ModelRegistry

from tests.test_serve import (
    SERVER_KINDS,
    make_server,
    random_network,
    random_spikes,
)

pytestmark = pytest.mark.serve

#: Rows per batch.  With the coalescing deadline far beyond any test,
#: only a full batch flushes, so each test decides when a batch goes.
BATCH = 4
FAR_MS = 600_000.0


def make_stack(kind: str, batch: int = BATCH, models=("m",), **kwargs):
    """A server whose models all serve one random network."""
    registry = ModelRegistry()
    network = random_network()
    for model in models:
        registry.register_network(model, network)
    server = make_server(
        kind, registry,
        policy=BatchPolicy(max_batch_size=batch, max_wait_ms=FAR_MS),
        **kwargs,
    )
    return network, server


def served(futures) -> list:
    return [future.result(timeout=30.0) for future in futures]


def settle(server) -> None:
    """Wait until the server holds nothing in flight: a batch's depths
    are released after its futures resolve."""
    deadline = time.monotonic() + 30.0
    while server.in_flight:
        assert time.monotonic() < deadline, "the server never went idle"
        time.sleep(0.001)


def assert_accounted(server, completed: int, shed: int = 0) -> None:
    data = server.metrics.to_dict()
    assert data["submitted"] == completed + shed
    assert (data["completed"], data["failed"], data["shed"]) == (
        completed, 0, shed)
    assert (data["submitted"]
            == data["completed"] + data["failed"] + data["shed"])


@pytest.mark.parametrize("kind", SERVER_KINDS)
class TestServedFutures:
    def test_an_admitted_request_cannot_be_cancelled(self, kind):
        network, server = make_stack(kind)
        spikes = random_spikes(2 * BATCH)
        with server:
            first = server.submit("m", spikes[0])
            assert isinstance(first, concurrent.futures.Future)
            # Queued behind the far deadline, and still not cancellable.
            assert first.cancel() is False
            assert first.running()
            assert not first.cancelled() and not first.done()
            batch = [first] + [server.submit("m", row)
                               for row in spikes[1:BATCH]]
            assert served(batch) == network.classify_batch(
                spikes[:BATCH]).tolist()
            # The lane survived: a second batch is answered too.
            again = [server.submit("m", row) for row in spikes[BATCH:]]
            assert served(again) == network.classify_batch(
                spikes[BATCH:]).tolist()
            settle(server)
            assert not server.failed
            assert first.cancel() is False and not first.cancelled()
            # A resolved request keeps no row: the batch's join has it.
            assert all(f.spikes is None for f in batch + again)
        assert server.in_flight == 0
        assert_accounted(server, completed=2 * BATCH)

    def test_wait_and_as_completed_over_a_batch(self, kind):
        network, server = make_stack(kind)
        spikes = random_spikes(3 * BATCH, seed=7)
        offline = network.classify_batch(spikes).tolist()
        with server:
            # Resolved futures: both return at once.
            done_batch = [server.submit("m", row) for row in spikes[:BATCH]]
            done, not_done = wait(done_batch, timeout=30.0)
            assert done == set(done_batch) and not not_done
            assert set(as_completed(done_batch, timeout=30.0)) == set(
                done_batch)

            # Pending futures: waiters installed while queued are told
            # by the batch's resolution, which the last submit, from
            # another thread, triggers.
            def fill(futures, rows) -> threading.Timer:
                def submit_last() -> None:
                    futures.append(server.submit("m", rows[-1]))
                timer = threading.Timer(0.05, submit_last)
                timer.start()
                return timer

            waited = [server.submit("m", row)
                      for row in spikes[BATCH:2 * BATCH - 1]]
            queued = list(waited)
            timer = fill(waited, spikes[BATCH:2 * BATCH])
            first = wait(queued, timeout=30.0, return_when=FIRST_COMPLETED)
            assert first.done
            done, not_done = wait(queued, timeout=30.0)
            assert done == set(queued) and not not_done
            timer.join()

            completed = [server.submit("m", row)
                         for row in spikes[2 * BATCH:3 * BATCH - 1]]
            queued = list(completed)
            timer = fill(completed, spikes[2 * BATCH:3 * BATCH])
            assert set(as_completed(queued, timeout=30.0)) == set(queued)
            timer.join()
            assert served(done_batch + waited + completed) == offline
        assert_accounted(server, completed=3 * BATCH)

    def test_done_callbacks_before_and_after_resolution(self, kind, caplog):
        caplog.set_level(logging.ERROR, logger="concurrent.futures")
        network, server = make_stack(kind)
        spikes = random_spikes(2 * BATCH, seed=9)
        seen: dict[int, int] = {}

        def record(index: int):
            return lambda future: seen.__setitem__(index, future.result())

        def explode(future) -> None:
            raise RuntimeError("callback failed")

        with server:
            batch = []
            for index, row in enumerate(spikes[:BATCH]):
                future = server.submit("m", row)
                if index < BATCH - 1:  # the last submit flushes the batch
                    # Callbacks run in order, after the lane's hold: once
                    # the last one has recorded, every one has run.
                    future.add_done_callback(explode)
                    future.add_done_callback(record(index))
                batch.append(future)
            answers = served(batch)
            deadline = time.monotonic() + 30.0
            while len(seen) < BATCH - 1:
                assert time.monotonic() < deadline, "callbacks never ran"
                time.sleep(0.001)
            # A callback added after resolution runs at once, here.
            batch[-1].add_done_callback(record(BATCH - 1))
            assert [seen[i] for i in range(BATCH)] == answers
            # Each raising callback was logged, and the lane serves on.
            logged = [r for r in caplog.records
                      if "exception calling callback" in r.getMessage()]
            assert len(logged) == BATCH - 1
            again = [server.submit("m", row) for row in spikes[BATCH:]]
            assert answers + served(again) == network.classify_batch(
                spikes).tolist()
            settle(server)
            assert not server.failed
        assert_accounted(server, completed=2 * BATCH)

    def test_result_times_out_while_queued(self, kind):
        network, server = make_stack(kind, models=("m", "n"))
        spikes = random_spikes(2 * BATCH, seed=11)
        with server:
            queued = server.submit("m", spikes[0])
            # Another model's batch resolves while the wait runs: its
            # notify must not end the wait early.
            other: list = []
            timer = threading.Timer(0.05, lambda: other.extend(
                server.submit("n", row) for row in spikes[BATCH:]))
            timer.start()
            started = time.monotonic()
            with pytest.raises(concurrent.futures.TimeoutError):
                queued.result(timeout=0.5)
            assert time.monotonic() - started >= 0.5
            timer.join()
            assert len(other) == BATCH and all(f.done() for f in other)
            with pytest.raises(concurrent.futures.TimeoutError):
                queued.exception(timeout=0.0)
            assert not queued.done()
            rest = [server.submit("m", row) for row in spikes[1:BATCH]]
        assert served([queued, *rest, *other]) == network.classify_batch(
            spikes).tolist()
        assert queued.exception() is None
        assert_accounted(server, completed=2 * BATCH)

    def test_exception_reports_a_shed_request(self, kind):
        network, server = make_stack(kind)
        spikes = random_spikes(BATCH, seed=13)
        with server:
            doomed = server.submit("m", spikes[0], deadline_ms=1.0)
            time.sleep(0.01)
            rest = [server.submit("m", row) for row in spikes[1:]]
            assert isinstance(doomed.exception(timeout=30.0),
                              DeadlineExceededError)
            with pytest.raises(DeadlineExceededError, match="shed"):
                doomed.result(timeout=0)
            assert doomed.done() and not doomed.cancelled()
            assert served(rest) == network.classify_batch(
                spikes[1:]).tolist()
            settle(server)
        assert_accounted(server, completed=BATCH - 1, shed=1)

    def test_asyncio_wrap_future_over_a_batch(self, kind):
        network, server = make_stack(kind)
        spikes = random_spikes(2 * BATCH, seed=17)

        async def gather(rows) -> list:
            return await asyncio.gather(*(
                asyncio.wrap_future(server.submit("m", row)) for row in rows
            ))

        async def give_up_on_one(row):
            # A timed-out await cancels its wrapper, which asks the
            # served future to cancel: it refuses and is answered.
            future = server.submit("m", row)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.wrap_future(future), 0.01)
            return future

        with server:
            assert asyncio.run(gather(spikes[:BATCH])) == (
                network.classify_batch(spikes[:BATCH]).tolist())
            abandoned = asyncio.run(give_up_on_one(spikes[BATCH]))
            assert not abandoned.cancelled()
            rest = [server.submit("m", row) for row in spikes[BATCH + 1:]]
            assert served([abandoned, *rest]) == network.classify_batch(
                spikes[BATCH:]).tolist()
            settle(server)
            assert not server.failed
        assert_accounted(server, completed=2 * BATCH)


def wait_from_two_threads(pairs) -> bool:
    """``wait`` on each pair 50 times over from two threads at a 1 µs
    switch interval, one thread taking the pairs whose first future has
    the lower id and the other the rest; returns whether both finished
    within 30 s.

    ``wait`` takes its futures' conditions in the order of their ids,
    so the two threads take the locks of the two sides in opposite
    orders wherever one lock stands for several futures.
    """
    ordered = [pair for pair in pairs if id(pair[0]) < id(pair[1])]
    reversed_ = [pair for pair in pairs if id(pair[0]) > id(pair[1])]
    assert ordered and reversed_

    def hammer(chosen) -> None:
        for _ in range(50):
            for pair in chosen:
                wait(pair, timeout=0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(chosen,),
                                    daemon=True)
                   for chosen in (ordered, reversed_)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    return not any(thread.is_alive() for thread in threads)


def test_wait_over_two_servers_from_two_threads():
    """Futures of two servers in one ``wait``, from two threads."""
    stacks = [make_stack("inproc", batch=64) for _ in range(2)]
    spikes = random_spikes(2 * 16, seed=19)
    for _, server in stacks:
        server.start()
    # Alternate the submits so the two servers' ids interleave.
    futures: tuple[list, list] = ([], [])
    for row_a, row_b in zip(spikes[0::2], spikes[1::2]):
        for (_, server), mine, row in zip(stacks, futures, (row_a, row_b)):
            mine.append(server.submit("m", row))
    pairs = [(a, b) for a in futures[0] for b in futures[1]]
    # A deadlocked pair holds the locks stop() would need: fail first.
    # (Not on the call itself: the report would print the futures, and
    # a future's repr takes its lock.)
    finished = wait_from_two_threads(pairs)
    assert finished, "deadlock"
    for (network, server), mine, rows in zip(stacks, futures,
                                             (spikes[0::2], spikes[1::2])):
        server.stop(drain=True)
        assert served(mine) == network.classify_batch(rows).tolist()


def test_wait_over_served_and_executor_futures_from_two_threads():
    """Served futures and a thread pool's futures in one ``wait``, from
    two threads.  Every served future ``wait`` touches gets a lock of
    its own: one lock shared by the served futures would be taken
    before a pool future's lock by one thread and after it by the
    other, and the two would deadlock."""
    network, server = make_stack("inproc", batch=64)
    spikes = random_spikes(16, seed=23)
    server.start()
    queued, executed = [], []
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as executor:
        # Alternate the two kinds so their ids interleave.  The pool's
        # futures finish at once; ``wait`` still takes their locks.
        for row in spikes:
            queued.append(server.submit("m", row))
            executed.append(executor.submit(int))
        wait(executed, timeout=30.0)
    finished = wait_from_two_threads(
        [(a, b) for a in queued for b in executed])
    assert finished, "deadlock"
    assert len({future._condition for future in queued}) == len(queued)
    server.stop(drain=True)
    assert served(queued) == network.classify_batch(spikes).tolist()


def test_waits_race_the_lane():
    """``wait`` and ``as_completed`` give a batch's requests conditions
    of their own while the lane resolves the batch: every waiter is told
    once, whichever comes first."""
    batches = 2000
    spikes = random_spikes(BATCH * batches, seed=29)
    network, server = make_stack("inproc")
    answered: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with server:
            for index in range(batches):
                # The last submit flushes the batch: the dispatch thread
                # resolves it while this thread starts waiting on it.
                batch = [server.submit("m", row)
                         for row in spikes[BATCH * index:][:BATCH]]
                if index % 2:
                    yielded = list(as_completed(batch, timeout=30.0))
                    assert sorted(map(id, yielded)) == sorted(map(id, batch))
                else:
                    done, not_done = wait(batch, timeout=30.0)
                    assert done == set(batch) and not not_done
                answered += batch
    finally:
        sys.setswitchinterval(interval)
    assert served(answered) == network.classify_batch(spikes).tolist()
    assert_accounted(server, completed=len(spikes))


def test_a_request_builds_its_condition_outside_a_resolution():
    """A request's own condition is built under the resolution
    condition: a lane that found a request without one has written its
    outcome before any waiter can be installed on it."""
    _, server = make_stack("inproc")
    with server:
        future = server.submit("m", random_spikes(1)[0])
        built = threading.Event()
        thread = threading.Thread(
            target=lambda: (future._condition, built.set()), daemon=True)
        with server._resolution:
            thread.start()
            assert not built.wait(0.1)
        assert built.wait(30.0)
        thread.join()
    assert future.result(timeout=30.0) >= 0
