"""Deterministic chaos injection for the execution layer itself.

The paper sweeps bit-error-rate grids through the *hardware* model and
asks how gracefully accuracy degrades; this module applies the same
discipline to the *software* stack that measures it.  A
:class:`ChaosPolicy` injects three fault families into the execution
paths that claim to tolerate them:

* **worker crashes** — a sharded campaign worker calls ``os._exit``
  mid-point, producing the same ``BrokenProcessPool`` a real OOM-kill
  or segfault would.  The shard supervisor must rebuild the pool and
  re-queue the point.
* **flush errors** — a serving micro-batch flush raises
  :class:`~repro.errors.InjectedFaultError` before touching the
  engine.  The retry policy must absorb transient ones; persistent
  ones must trip the circuit breaker.
* **latency spikes** — a flush sleeps ``latency_spike_ms`` first,
  stressing deadlines and load shedding.

Every draw is a pure hash of ``(seed, site, key, attempt)`` — no
hidden RNG state — so a chaos schedule is reproducible across runs,
processes and shard assignments, and crash counts per site are capped
(``max_crashes_per_site``) so a supervised run with a sufficient retry
budget provably converges.  The acceptance suite drives campaigns and
serving through a seeded policy and asserts bit-identical results,
zero silent drops and zero recomputation on resume.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, InjectedFaultError, _integer


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded fault-injection schedule for the execution layer.

    A zero-probability policy injects nothing; each probability opens
    one fault family.  Frozen and primitive-typed, so it pickles into
    worker processes alongside the payloads it sabotages.
    """

    seed: int = 0
    worker_crash_p: float = 0.0
    flush_error_p: float = 0.0
    latency_spike_ms: float = 0.0
    latency_spike_p: float = 0.0
    #: Upper bound on injected crashes per site, so a supervised run
    #: with ``retry_budget >= max_crashes_per_site`` always converges.
    max_crashes_per_site: int = 2

    def __post_init__(self) -> None:
        for name in ("worker_crash_p", "flush_error_p", "latency_spike_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if not 0 <= self.latency_spike_ms < math.inf:
            raise ConfigurationError(
                f"latency_spike_ms must be finite and >= 0, "
                f"got {self.latency_spike_ms}"
            )
        object.__setattr__(
            self, "max_crashes_per_site",
            _integer("max_crashes_per_site", self.max_crashes_per_site),
        )
        if self.max_crashes_per_site < 0:
            raise ConfigurationError(
                f"max_crashes_per_site must be >= 0, "
                f"got {self.max_crashes_per_site}"
            )

    # -- the deterministic draw ------------------------------------------------------

    def _uniform(self, *parts) -> float:
        """One U[0, 1) draw, a pure hash of seed + site parts."""
        text = "|".join(str(part) for part in (self.seed, *parts))
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    # -- worker crashes --------------------------------------------------------------

    def crashes_for(self, site) -> int:
        """How many consecutive executions of ``site`` will crash.

        Geometric-style count: consecutive attempt draws below
        ``worker_crash_p``, capped at ``max_crashes_per_site``.  Attempt
        ``crashes_for(site)`` is the first that succeeds — which is what
        makes supervised retry provably convergent.
        """
        count = 0
        while (count < self.max_crashes_per_site
               and self._uniform("crash", site, count) < self.worker_crash_p):
            count += 1
        return count

    def should_crash_worker(self, site, attempt: int) -> bool:
        """Does execution ``attempt`` (0-based) of ``site`` crash?"""
        return attempt < self.crashes_for(site)

    def maybe_crash_worker(self, site, attempt: int) -> None:
        """Crash the current worker process if the schedule says so.

        In a real worker process this is ``os._exit`` — the hard death
        a segfault or OOM-kill would be, surfacing to the parent as
        ``BrokenProcessPool``.  In the supervising process itself
        (in-process execution, ``n_workers=1``) it degrades to raising
        :class:`~repro.errors.WorkerCrashError`, which the supervisor
        treats identically — so the crash-recovery path is testable
        without real process pools.
        """
        if not self.should_crash_worker(site, attempt):
            return
        import multiprocessing

        from repro.errors import WorkerCrashError
        if multiprocessing.parent_process() is not None:
            os._exit(86)
        raise WorkerCrashError(
            f"chaos: injected worker crash (site={site}, attempt={attempt})"
        )

    # -- flush faults ----------------------------------------------------------------

    def flush_should_fail(self, site, attempt: int) -> bool:
        return self._uniform("flush", site, attempt) < self.flush_error_p

    def latency_spike_for(self, site, attempt: int) -> float:
        """Injected pre-flush latency in ms (0.0 = no spike)."""
        if (self.latency_spike_ms > 0
                and self._uniform("spike", site, attempt)
                < self.latency_spike_p):
            return self.latency_spike_ms
        return 0.0

    def on_flush(self, site, attempt: int, sleep=time.sleep) -> None:
        """Run the flush-site fault schedule: maybe spike, maybe fail.

        Called by the serving layer at the top of every micro-batch
        flush attempt; the raised
        :class:`~repro.errors.InjectedFaultError` is transient, so a
        :class:`~repro.resilience.policy.RetryPolicy` with enough
        budget rides it out (each attempt is a fresh draw).
        """
        spike_ms = self.latency_spike_for(site, attempt)
        if spike_ms > 0:
            sleep(spike_ms / 1e3)
        if self.flush_should_fail(site, attempt):
            raise InjectedFaultError(
                f"chaos: injected flush failure (site={site}, "
                f"attempt={attempt})"
            )

    @property
    def active(self) -> bool:
        """Does this policy inject anything at all?"""
        return (self.worker_crash_p > 0 or self.flush_error_p > 0
                or (self.latency_spike_ms > 0 and self.latency_spike_p > 0))
