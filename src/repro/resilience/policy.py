"""Fault-tolerance policies: retry with backoff, circuit breaking, supervision.

These are the declarative knobs of the execution layer's failure
handling, shared by the serving stack (:mod:`repro.serve`) and the
campaign runners (:mod:`repro.sweep`, :mod:`repro.reliability`):

* :class:`RetryPolicy` — bounded retries with seeded exponential
  backoff + jitter for *transient* failures (injected chaos faults,
  timeouts).  The backoff sequence is a pure function of the seed, so
  two runs with the same policy sleep the same schedule — determinism
  the property suite asserts.
* :class:`CircuitBreaker` / :class:`BreakerPolicy` — per-model
  fail-fast after K consecutive flush failures, with a half-open probe
  after a cooldown.  An open circuit turns a stream of doomed requests
  into immediate :class:`~repro.errors.ModelUnavailableError`\\ s
  instead of queue pressure.
* :class:`SupervisorPolicy` — how the campaign worker pool
  (:func:`~repro.resilience.supervisor.supervised_map`) survives
  worker-process crashes: a bounded per-point retry budget and an
  optional worker-side
  wall-clock watchdog that converts a hung point into a crash the
  supervisor can handle.

Everything here is a frozen dataclass of primitives, hence hashable
and picklable — policies cross process boundaries with the payloads
they govern.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, InjectedFaultError, _integer

#: Exception classes a retry is expected to help with.  Chaos-injected
#: faults are transient by definition; timeouts and connection drops
#: are the classic production members of the family.  Deterministic
#: errors (bad configuration, design-rule violations) are deliberately
#: absent — retrying those only delays the failure.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    InjectedFaultError,
    TimeoutError,
    ConnectionError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded exponential backoff + jitter.

    Attempt ``a`` (0-based, counting re-tries only) nominally waits
    ``min(base_delay_ms * multiplier**a, max_delay_ms)``; jitter then
    scales each delay by a factor drawn uniformly from
    ``[1 - jitter, 1]`` using ``random.Random(seed)``, so the full
    sleep schedule is deterministic per seed.  ``retry_on`` names the
    exception classes worth retrying; anything else propagates
    immediately.
    """

    retries: int = 3
    base_delay_ms: float = 1.0
    multiplier: float = 2.0
    max_delay_ms: float = 100.0
    jitter: float = 0.5
    seed: int = 42
    retry_on: tuple[type[BaseException], ...] = TRANSIENT_ERRORS

    def __post_init__(self) -> None:
        object.__setattr__(self, "retries",
                           _integer("retries", self.retries))
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        # Chained comparisons, which a NaN fails: a NaN delay would
        # drop the backoff and a NaN cap would lift it.
        if not 0 <= self.base_delay_ms < math.inf:
            raise ConfigurationError(
                f"base_delay_ms must be finite and >= 0, "
                f"got {self.base_delay_ms}"
            )
        if not 1.0 <= self.multiplier < math.inf:
            raise ConfigurationError(
                f"multiplier must be finite and >= 1, got {self.multiplier}"
            )
        if not self.base_delay_ms <= self.max_delay_ms < math.inf:
            raise ConfigurationError(
                f"max_delay_ms ({self.max_delay_ms}) must be finite and "
                f">= base_delay_ms ({self.base_delay_ms})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if not self.retry_on:
            raise ConfigurationError("retry_on must name at least one class")

    def delays_ms(self) -> tuple[float, ...]:
        """The full backoff schedule, one delay per retry.

        Pure function of the policy fields (the jitter stream restarts
        from ``seed`` on every call), so the schedule can be inspected,
        asserted on, and reproduced.
        """
        return tuple(self._delays())

    def _delays(self):
        """The schedule's delays, computed as they are asked for."""
        rng = random.Random(self.seed)
        nominal = self.base_delay_ms
        for attempt in range(self.retries):
            # A zero delay and one at the cap stay there (multiplier
            # >= 1), so the power is taken only while the delay grows:
            # a long schedule would take it past the float range.
            if 0 < nominal < self.max_delay_ms:
                try:
                    grown = self.base_delay_ms * self.multiplier ** attempt
                except OverflowError:  # a base delay far below the cap
                    grown = nominal * self.multiplier
                nominal = min(grown, self.max_delay_ms)
            yield nominal * (1.0 - self.jitter * rng.random())

    def call(self, fn, *, sleep=time.sleep, on_retry=None):
        """``fn(attempt)`` with retries on :attr:`retry_on` failures.

        ``fn`` receives the 0-based attempt number (so callers can key
        per-attempt behaviour, e.g. chaos draws).  ``on_retry(attempt,
        error, delay_ms)`` fires before each backoff sleep — the
        serving layer counts retries and feeds the circuit breaker
        there.  The final failure (budget exhausted) propagates
        unchanged.  Each delay is computed only when its retry comes,
        so an attempt that succeeds pays for no schedule.
        """
        delays = self._delays()
        attempt = 0
        while True:
            try:
                return fn(attempt)
            except self.retry_on as error:
                try:
                    delay_ms = next(delays)
                except StopIteration:
                    raise error from None
                if on_retry is not None:
                    on_retry(attempt, error, delay_ms)
                if delay_ms > 0:
                    sleep(delay_ms / 1e3)
                attempt += 1


@dataclass(frozen=True)
class BreakerPolicy:
    """When a model's circuit opens and how it is allowed to recover."""

    #: Consecutive flush failures that open the circuit.
    failure_threshold: int = 5
    #: Seconds an open circuit waits before admitting one half-open probe.
    cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "failure_threshold",
            _integer("failure_threshold", self.failure_threshold),
        )
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        # A NaN or infinite cooldown would never half-open the circuit.
        if not 0 <= self.cooldown_s < math.inf:
            raise ConfigurationError(
                f"cooldown_s must be finite and >= 0, got {self.cooldown_s}"
            )


class CircuitBreaker:
    """Three-state (closed / open / half-open) failure latch.

    ``closed`` admits everything.  After ``failure_threshold``
    *consecutive* failures the breaker is ``open``: :meth:`allow`
    returns ``False`` until ``cooldown_s`` elapses, after which exactly
    one caller is admitted as the ``half-open`` probe.  The probe's
    outcome decides: success closes the circuit, failure re-opens it
    (fresh cooldown).  Thread-safe; the clock is injectable so tests
    drive the cooldown deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, policy: BreakerPolicy | None = None,
                 clock=time.monotonic) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None

    @property
    def state(self) -> str:
        """Current state; reports ``half-open`` once the cooldown is up."""
        with self._lock:
            if (self._state == self.OPEN
                    and self._clock() - self._opened_at
                    >= self.policy.cooldown_s):
                return self.HALF_OPEN
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def allow(self) -> bool:
        """May a request proceed right now?

        The transition from open to half-open happens here: the first
        caller after the cooldown gets ``True`` (it *is* the probe) and
        every other caller keeps getting ``False`` until the probe's
        outcome is recorded.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if (self._state == self.OPEN
                    and self._clock() - self._opened_at
                    >= self.policy.cooldown_s):
                self._state = self.HALF_OPEN
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (self._state == self.HALF_OPEN
                    or self._consecutive_failures
                    >= self.policy.failure_threshold):
                self._state = self.OPEN
                self._opened_at = self._clock()


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the campaign worker pool survives worker crashes and hangs.

    ``retry_budget`` bounds how many times one payload may be
    re-executed after a crash before the run fails with
    :class:`~repro.errors.WorkerCrashError`.  ``watchdog_s`` arms a
    wall-clock timer *inside* each worker around each point; a point
    that overruns kills its worker (a deliberate crash), which the
    supervisor then handles exactly like any other crash — so a hung
    point costs ``watchdog_s * (retry_budget + 1)`` at worst instead of
    wedging the campaign forever.
    """

    retry_budget: int = 2
    watchdog_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "retry_budget",
                           _integer("retry_budget", self.retry_budget))
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        # threading.Timer fires a NaN wait at once and dies on an
        # infinite one, so neither arms a watchdog.
        if self.watchdog_s is not None and not 0 < self.watchdog_s < math.inf:
            raise ConfigurationError(
                f"watchdog_s must be finite and > 0 when set, "
                f"got {self.watchdog_s}"
            )
