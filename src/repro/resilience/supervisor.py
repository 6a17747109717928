"""The crash-supervised map that evaluates a campaign's cache misses.

The campaign core (:meth:`repro.sweep.runner.CampaignRunner.run`)
hands its misses to :func:`supervised_map` and commits each row to the
result cache from its ``on_done`` callback, which is what makes an
interrupted campaign resumable by re-running it.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

from repro.errors import WorkerCrashError
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import SupervisorPolicy


def _watchdog_kill(site, watchdog_s: float) -> None:
    """Worker-side watchdog action: a hung point becomes a crash.

    ``os._exit`` is deliberate — the point is wedged, so the only safe
    recovery is the supervisor's crash path (rebuild the pool, charge
    the point's retry budget).  The write to stderr survives because
    worker stderr is inherited from the parent.
    """
    sys.stderr.write(
        f"\nrepro: shard watchdog fired — payload {site} exceeded "
        f"{watchdog_s:g}s; killing worker so the supervisor can retry\n"
    )
    sys.stderr.flush()
    os._exit(87)


def _supervised_call(task, payload, chaos: ChaosPolicy | None, site,
                     attempt: int, watchdog_s: float | None):
    """Run one payload under the chaos schedule and wall-clock watchdog."""
    if chaos is not None:
        chaos.maybe_crash_worker(site, attempt)
    timer = None
    if (watchdog_s is not None
            and multiprocessing.parent_process() is not None):
        timer = threading.Timer(
            watchdog_s, _watchdog_kill, args=(site, watchdog_s)
        )
        timer.daemon = True
        timer.start()
    try:
        return task(payload)
    finally:
        if timer is not None:
            timer.cancel()


def _supervised_serial(task, payloads: list, policy: SupervisorPolicy,
                       chaos: ChaosPolicy | None, on_done) -> list:
    """In-process supervised loop (``n_workers == 1``).

    Chaos worker crashes degrade to :class:`WorkerCrashError` here
    (killing the only process would kill the campaign), and the
    supervisor handles them identically: bounded re-queue, then give
    up naming the payload.  The watchdog does not apply in-process.
    """
    results = [None] * len(payloads)
    budgets = {i: policy.retry_budget for i in range(len(payloads))}
    queue = [(i, 0) for i in range(len(payloads))]
    while queue:
        index, attempt = queue.pop(0)
        try:
            result = _supervised_call(
                task, payloads[index], chaos, index, attempt, None
            )
        except WorkerCrashError:
            budgets[index] -= 1
            if budgets[index] < 0:
                raise WorkerCrashError(
                    f"shard payload {index} crashed beyond the retry "
                    f"budget ({policy.retry_budget} retries)"
                ) from None
            queue.append((index, attempt + 1))
            continue
        results[index] = result
        if on_done is not None:
            on_done(index, result)
    return results


def _supervised_pool(task, payloads: list, n_workers: int,
                     policy: SupervisorPolicy, chaos: ChaosPolicy | None,
                     on_done) -> list:
    """Process-pool execution that survives ``BrokenProcessPool``.

    Each payload is submitted individually; when a worker dies (real
    crash, watchdog kill, or injected chaos) the broken pool is torn
    down, a fresh one is built, and every unfinished payload is
    re-queued.  Retry budgets are charged to the *culprit* when the
    chaos schedule can name it (the schedule is deterministic, so the
    parent recomputes who was due to crash); an unattributable crash
    charges every unfinished payload — bounded either way.  Completed
    payloads are reported through ``on_done`` as they finish, in
    completion order, while ``results`` stay in input order.
    """
    results = [None] * len(payloads)
    attempts = {i: 0 for i in range(len(payloads))}
    budgets = {i: policy.retry_budget for i in range(len(payloads))}
    remaining = set(range(len(payloads)))
    while remaining:
        workers = min(n_workers, len(remaining))
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        futures = {
            pool.submit(
                _supervised_call, task, payloads[i], chaos, i,
                attempts[i], policy.watchdog_s,
            ): i
            for i in sorted(remaining)
        }
        crashed: list[int] = []
        try:
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    crashed.append(index)
                    continue
                results[index] = result
                remaining.discard(index)
                if on_done is not None:
                    on_done(index, result)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if not crashed:
            continue
        if chaos is not None:
            culprits = [
                i for i in crashed
                if chaos.should_crash_worker(i, attempts[i])
            ]
            if not culprits:  # a real (non-injected) crash under chaos
                culprits = crashed
        else:
            culprits = crashed
        for index in culprits:
            budgets[index] -= 1
            if budgets[index] < 0:
                raise WorkerCrashError(
                    f"shard payload {index} crashed/hung beyond the retry "
                    f"budget ({policy.retry_budget} retries)"
                )
            attempts[index] += 1
    return results


def supervised_map(task, payloads, *, n_workers: int = 1,
                   supervisor: SupervisorPolicy | None = None,
                   chaos: ChaosPolicy | None = None,
                   on_done=None) -> list:
    """``[task(p) for p in payloads]``, optionally across processes.

    ``n_workers=1`` evaluates in-process; ``>1`` shards across a
    ``ProcessPoolExecutor`` (``task`` must then be a module-level,
    picklable callable).  Results come back in input order, so callers
    are bit-identical for any worker count by construction.

    Both paths submit payload by payload under supervision (the
    default :class:`SupervisorPolicy` unless one is given): worker
    deaths re-queue the unfinished payloads to a rebuilt pool under a
    bounded retry budget, a hung payload is killed by the worker-side
    watchdog and retried the same way, and ``on_done(index, result)``
    fires in the parent as each payload completes.  Because tasks are
    pure functions of their payloads, re-execution cannot change any
    result: supervised runs stay bit-identical to fault-free ones.
    """
    payloads = list(payloads)
    policy = supervisor or SupervisorPolicy()
    chaos = chaos if (chaos is not None and chaos.active) else None
    if n_workers == 1 or len(payloads) <= 1:
        return _supervised_serial(task, payloads, policy, chaos, on_done)
    return _supervised_pool(
        task, payloads, n_workers, policy, chaos, on_done,
    )
