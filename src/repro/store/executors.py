"""Pluggable campaign executors: how miss points get evaluated.

The campaign core (:meth:`repro.sweep.runner.CampaignRunner.run`)
hands its cache misses to an *executor* — anything with a ``map(task,
payloads, *, supervisor, chaos, on_done)`` method returning results in
input order and firing ``on_done(index, result)`` as each payload
completes.  Two backends ship:

``local-pool`` (:class:`LocalPoolExecutor`)
    An in-process loop or ``ProcessPoolExecutor`` shards, both with
    per-payload supervised submission (crash recovery, bounded
    retries, chaos injection, incremental ``on_done``).
    Bit-identical for any worker count by construction.

``job-dir`` (:class:`JobDirExecutor`)
    Work stealing over a shared directory: the coordinator seeds one
    pickled payload file per point under ``pending/``, N independent
    claimant processes — locally spawned ones, plus any number of
    external ``python -m repro.store work <job-dir>`` processes on
    hosts sharing the filesystem — claim points via atomic renames
    into ``claimed/`` and commit results under ``results/``.  Because
    tasks are pure functions of self-seeded payloads, results are
    bit-identical to ``local-pool`` regardless of who claimed what.

Both backends funnel every payload through the same
:func:`_supervised_call`, so the chaos/retry semantics the resilience
suite pins hold for either.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pathlib
import pickle
import sys
import tempfile
import threading
import time
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ConfigurationError, WorkerCrashError
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import SupervisorPolicy

#: Registered executor backends (the CLI ``--executor`` choices).
EXECUTOR_NAMES = ("local-pool", "job-dir")

#: Sentinel file the coordinator drops when a job-dir run is over, so
#: waiting claimants exit instead of polling forever.
CLOSED_SENTINEL = "CLOSED"


# -- supervised execution core --------------------------------------------------------
#
# Shared by both backends: one payload runs under the chaos schedule
# and the worker-side watchdog.


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


def _supervised_task(args):
    """Module-level worker entry point for supervised shards."""
    return _supervised_call(*args)


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
                _supervised_task,
                (task, payloads[i], chaos, i, attempts[i],
                 policy.watchdog_s),
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
        if chaos is not None and chaos.active:
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


# -- the local-pool backend -----------------------------------------------------------


class LocalPoolExecutor:
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
    fires in the parent as each payload completes (this is what makes
    campaign caching incremental, hence crash-safe).  Because tasks
    are pure functions of their payloads, re-execution cannot change
    any result — supervised runs stay bit-identical to fault-free ones.
    """

    name = "local-pool"

    def __init__(self, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = n_workers

    def map(self, task, payloads: list, *,
            supervisor: SupervisorPolicy | None = None,
            chaos: ChaosPolicy | None = None,
            on_done=None) -> list:
        payloads = list(payloads)
        policy = supervisor or SupervisorPolicy()
        chaos = chaos if (chaos is not None and chaos.active) else None
        if self.n_workers == 1 or len(payloads) <= 1:
            return _supervised_serial(task, payloads, policy, chaos, on_done)
        return _supervised_pool(
            task, payloads, self.n_workers, policy, chaos, on_done,
        )

    def __repr__(self) -> str:
        return f"LocalPoolExecutor(n_workers={self.n_workers})"


# -- the job-dir backend --------------------------------------------------------------


def _dump_pickle(path: pathlib.Path, obj) -> None:
    """Atomic pickle write (tmp sibling + rename), mirroring the cache."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{path.name}.", suffix=".tmp", dir=path.parent,
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(obj, handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _load_pickle(path: pathlib.Path):
    with path.open("rb") as handle:
        return pickle.load(handle)


def claim_work(job_dir, *, poll_s: float = 0.05, wait: bool = False) -> int:
    """Claim-and-run loop of one job-dir worker; returns points done.

    Claims are atomic ``os.rename`` moves from ``pending/`` into
    ``claimed/`` (the loser of a race gets ``OSError`` and tries the
    next file), so any number of claimants — local or on other hosts
    over a shared filesystem — partition the points without locks.
    Results (or the task's exception) are committed atomically under
    ``results/``; a claimant that dies mid-point leaves its claim file
    behind for the coordinator to re-queue.  With ``wait=True`` the
    loop polls for new work until the coordinator drops the
    ``CLOSED`` sentinel; otherwise it returns once ``pending/`` is
    drained.  This is what ``python -m repro.store work`` runs.
    """
    root = pathlib.Path(job_dir)
    task_path = root / "task.pkl"
    if not task_path.is_file():
        raise ConfigurationError(
            f"{root} is not a seeded job dir (no task.pkl); start the "
            "campaign with --executor job-dir first"
        )
    task, chaos = _load_pickle(task_path)
    pending = root / "pending"
    claimed = root / "claimed"
    results = root / "results"
    completed = 0
    while True:
        try:
            candidates = sorted(
                name for name in os.listdir(pending)
                if name.endswith(".task")
            )
        except FileNotFoundError:
            candidates = []
        claim = None
        for name in candidates:
            target = claimed / f"{name[:-len('.task')]}.{os.getpid()}.task"
            try:
                os.rename(pending / name, target)
            except OSError:
                continue  # lost the claim race; try the next point
            claim = target
            break
        if claim is None:
            if (root / CLOSED_SENTINEL).exists() or not wait:
                return completed
            time.sleep(poll_s)
            continue
        index_text, attempt_text = claim.name.split(".")[:2]
        index, attempt = int(index_text), int(attempt_text)
        payload = _load_pickle(claim)
        try:
            value = _supervised_call(task, payload, chaos, index, attempt,
                                     None)
        except WorkerCrashError:
            # In-process chaos degradation (an external, non-forked
            # claimant): die like a crashed worker would — the claim
            # file stays behind for the coordinator to re-queue.
            raise
        except Exception as error:  # noqa: BLE001 — shipped to the coordinator
            _dump_pickle(results / f"{index_text}.result", ("error", error))
        else:
            _dump_pickle(results / f"{index_text}.result", ("ok", value))
        claim.unlink()
        completed += 1


def _claimant_entry(job_dir: str, poll_s: float) -> None:
    """Module-level ``multiprocessing.Process`` target (picklable)."""
    claim_work(job_dir, poll_s=poll_s, wait=True)


class JobDirExecutor:
    """Work-stealing execution over a shared job directory.

    The coordinator (the process calling :meth:`map`) seeds one pickled
    payload per point under ``<job_dir>/pending/``, spawns
    ``n_claimants`` local claimant processes, and collects results as
    they land — firing ``on_done`` in completion order while the
    returned list stays in input order.  External claimants on any
    host sharing the filesystem join with ``python -m repro.store work
    <job_dir>``.  A claimant that dies mid-point (chaos injection, a
    real crash) leaves its claim file behind; the coordinator re-queues
    it with the attempt count bumped, under the supervisor's bounded
    retry budget.  The per-payload wall-clock watchdog is a local-pool
    feature and does not apply here.

    A job dir is single-use: a dir whose previous run completed (the
    ``CLOSED`` sentinel exists) is cleaned and reused, anything else
    non-empty is refused rather than silently mixed with stale state.
    """

    name = "job-dir"

    def __init__(self, job_dir, *, n_claimants: int = 2,
                 poll_s: float = 0.05) -> None:
        if n_claimants < 0:
            raise ConfigurationError(
                f"n_claimants must be >= 0, got {n_claimants}"
            )
        self.job_dir = pathlib.Path(job_dir)
        self.n_claimants = n_claimants
        self.poll_s = poll_s

    def _prepare(self, task, chaos, payloads: list) -> None:
        root = self.job_dir
        if (root / CLOSED_SENTINEL).exists():
            # Previous run completed cleanly — reset for reuse.
            for sub in ("pending", "claimed", "results"):
                directory = root / sub
                if directory.is_dir():
                    for name in os.listdir(directory):
                        os.unlink(directory / name)
            (root / CLOSED_SENTINEL).unlink()
            (root / "task.pkl").unlink(missing_ok=True)
        elif (root / "task.pkl").exists():
            raise ConfigurationError(
                f"job dir {root} holds an unfinished run (task.pkl without "
                f"{CLOSED_SENTINEL}); remove it or point --job-dir at a "
                "fresh directory"
            )
        for sub in ("pending", "claimed", "results"):
            (root / sub).mkdir(parents=True, exist_ok=True)
        for directory in (root / "pending", root / "claimed",
                          root / "results"):
            leftovers = os.listdir(directory)
            if leftovers:
                raise ConfigurationError(
                    f"job dir {root} is not empty ({directory.name}/ holds "
                    f"{len(leftovers)} files); use a fresh directory per run"
                )
        _dump_pickle(root / "task.pkl", (task, chaos))
        for index, payload in enumerate(payloads):
            _dump_pickle(root / "pending" / f"{index:06d}.0.task", payload)

    def _spawn(self) -> multiprocessing.Process:
        process = multiprocessing.Process(
            target=_claimant_entry, args=(str(self.job_dir), self.poll_s),
            daemon=True,
        )
        process.start()
        return process

    def map(self, task, payloads: list, *,
            supervisor: SupervisorPolicy | None = None,
            chaos: ChaosPolicy | None = None,
            on_done=None) -> list:
        payloads = list(payloads)
        if not payloads:
            return []
        policy = supervisor or SupervisorPolicy()
        chaos = chaos if (chaos is not None and chaos.active) else None
        root = self.job_dir
        self._prepare(task, chaos, payloads)
        pending = root / "pending"
        claimed = root / "claimed"
        results_dir = root / "results"
        total = len(payloads)
        results: dict[int, object] = {}
        errors: dict[int, Exception] = {}
        budgets = {i: policy.retry_budget for i in range(total)}
        target = min(self.n_claimants, total)
        workers = [self._spawn() for _ in range(target)]
        dead_pids: set[int] = set()
        try:
            while len(results) + len(errors) < total:
                progressed = self._collect(
                    results_dir, results, errors, on_done
                )
                for process in list(workers):
                    if process.is_alive():
                        continue
                    workers.remove(process)
                    dead_pids.add(process.pid)
                self._requeue_dead_claims(
                    claimed, pending, dead_pids, budgets, policy
                )
                outstanding = total - len(results) - len(errors)
                while outstanding > 0 and len(workers) < target:
                    workers.append(self._spawn())
                if not progressed:
                    time.sleep(self.poll_s)
        finally:
            (root / CLOSED_SENTINEL).touch()
            for process in workers:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()
        if errors:
            raise errors[min(errors)]
        return [results[index] for index in range(total)]

    def _collect(self, results_dir: pathlib.Path, results: dict,
                 errors: dict, on_done) -> bool:
        """Fold newly landed result files in; True if any were new."""
        progressed = False
        for name in sorted(os.listdir(results_dir)):
            if not name.endswith(".result"):
                continue
            index = int(name.split(".")[0])
            if index in results or index in errors:
                continue
            status, value = _load_pickle(results_dir / name)
            if status == "ok":
                results[index] = value
                if on_done is not None:
                    on_done(index, value)
            else:
                errors[index] = value
            progressed = True
        return progressed

    def _requeue_dead_claims(self, claimed: pathlib.Path,
                             pending: pathlib.Path, dead_pids: set[int],
                             budgets: dict, policy: SupervisorPolicy,
                             ) -> None:
        """Re-queue claims held by claimants known to be dead."""
        for name in sorted(os.listdir(claimed)):
            parts = name.split(".")
            if len(parts) < 4 or not name.endswith(".task"):
                continue
            index, attempt, pid = int(parts[0]), int(parts[1]), int(parts[2])
            if pid not in dead_pids:
                continue
            budgets[index] -= 1
            if budgets[index] < 0:
                raise WorkerCrashError(
                    f"job-dir payload {index} crashed beyond the retry "
                    f"budget ({policy.retry_budget} retries)"
                )
            os.rename(
                claimed / name, pending / f"{parts[0]}.{attempt + 1}.task"
            )

    def __repr__(self) -> str:
        return (f"JobDirExecutor({str(self.job_dir)!r}, "
                f"n_claimants={self.n_claimants})")


def make_executor(name: str, *, n_workers: int = 1, job_dir=None,
                  poll_s: float = 0.05):
    """Build a registered executor from CLI-shaped arguments."""
    if name == "local-pool":
        if job_dir is not None:
            raise ConfigurationError(
                "--job-dir only applies to the job-dir executor"
            )
        return LocalPoolExecutor(n_workers)
    if name == "job-dir":
        if job_dir is None:
            raise ConfigurationError(
                "the job-dir executor needs --job-dir DIR (a fresh "
                "directory on a filesystem every claimant can reach)"
            )
        return JobDirExecutor(job_dir, n_claimants=n_workers, poll_s=poll_s)
    raise ConfigurationError(
        f"unknown executor {name!r}; registered: {', '.join(EXECUTOR_NAMES)}"
    )
