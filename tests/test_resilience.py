"""Resilience primitives: retry policy, circuit breaker, chaos, supervisor.

The execution-layer failure handling rests on two determinism claims:
a :class:`RetryPolicy`'s backoff schedule is a pure function of its
seed (hypothesis pins this across the parameter space), and a
:class:`ChaosPolicy`'s fault schedule is a pure hash of
``(seed, site, attempt)`` with per-site crash counts capped — which is
what makes supervised retry provably convergent.  The circuit breaker
tests drive the full state machine with an injected clock.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InjectedFaultError, WorkerCrashError
from repro.resilience import (
    TRANSIENT_ERRORS,
    BreakerPolicy,
    ChaosPolicy,
    CircuitBreaker,
    RetryPolicy,
    SupervisorPolicy,
)


NAN, INF = float("nan"), float("inf")

#: Each count field's rejected values: a fraction, a bool, a string.
NOT_INTEGERS = (2.5, True, "2")


def bad_fields(counts=(), floats=()):
    """``{field: value}`` cases: every non-integer count and every
    non-finite float, one field at a time."""
    return [
        pytest.param({name: value}, id=f"{name}={value!r}")
        for names, values in ((counts, NOT_INTEGERS), (floats, (NAN, INF)))
        for name in names for value in values
    ]


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


# -- retry policy --------------------------------------------------------------------


class TestRetryPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_ms=50.0, max_delay_ms=10.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(retry_on=())

    @pytest.mark.parametrize("fields", bad_fields(
        counts=("retries",),
        floats=("base_delay_ms", "multiplier", "max_delay_ms", "jitter"),
    ))
    def test_rejects_a_fractional_or_non_finite_field(self, fields):
        """A fractional count failed every flush in ``range()``, and a
        NaN delay dropped or uncapped the backoff."""
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            RetryPolicy(**fields)

    def test_counts_are_plain_ints(self):
        assert type(RetryPolicy(retries=np.int64(2)).retries) is int

    def test_schedule_shape(self):
        policy = RetryPolicy(retries=5, base_delay_ms=1.0, multiplier=2.0,
                             max_delay_ms=4.0, jitter=0.0)
        assert policy.delays_ms() == (1.0, 2.0, 4.0, 4.0, 4.0)

    @pytest.mark.parametrize("fields", [
        {},
        {"retries": 40, "base_delay_ms": 1.5, "multiplier": 1.1,
         "max_delay_ms": 50.0, "jitter": 0.3, "seed": 7},
        {"retries": 12, "base_delay_ms": 0.3, "multiplier": 3.0,
         "max_delay_ms": 1e3, "jitter": 0.0},
        {"retries": 9, "multiplier": 1.0},
        {"retries": 9, "base_delay_ms": 0.0, "max_delay_ms": 5.0},
        {"retries": 9, "base_delay_ms": 5.0, "max_delay_ms": 5.0},
        {"retries": 1000, "multiplier": 2.0, "max_delay_ms": 1e300},
    ], ids=["default", "slow-growth", "fast-growth", "flat", "zero-base",
            "base-at-cap", "near-overflow"])
    def test_schedule_equals_the_capped_power(self, fields):
        """Every schedule the power formula could compute stays equal to
        it, float for float."""
        policy = RetryPolicy(**fields)
        rng = random.Random(policy.seed)
        expected = tuple(
            min(policy.base_delay_ms * policy.multiplier ** attempt,
                policy.max_delay_ms) * (1.0 - policy.jitter * rng.random())
            for attempt in range(policy.retries)
        )
        assert policy.delays_ms() == expected

    def test_a_long_schedule_does_not_overflow(self):
        """The nominal delay was computed before the cap, so
        ``multiplier ** 1024`` overflowed and every call() under the
        policy failed before its first attempt."""
        delays = RetryPolicy(retries=1100).delays_ms()
        assert len(delays) == 1100
        assert max(delays) <= 100.0
        assert RetryPolicy(retries=1100).call(lambda attempt: "ok") == "ok"
        # A base this far below the cap is still growing at the power's
        # float limit; it grows on from the last delay to the cap.
        tiny = RetryPolicy(retries=1100, base_delay_ms=1e-300,
                           max_delay_ms=1e10, jitter=0.0).delays_ms()
        assert tiny[1024] == 2 * tiny[1023]
        assert list(tiny) == sorted(tiny) and tiny[-1] == 1e10

    def test_jitter_shrinks_delays_only(self):
        policy = RetryPolicy(retries=8, base_delay_ms=2.0, jitter=0.5,
                             max_delay_ms=100.0)
        nominal = RetryPolicy(retries=8, base_delay_ms=2.0, jitter=0.0,
                              max_delay_ms=100.0).delays_ms()
        for delay, cap in zip(policy.delays_ms(), nominal):
            assert 0.5 * cap <= delay <= cap

    def test_call_succeeds_after_transient_failures(self):
        attempts = []

        def flaky(attempt):
            attempts.append(attempt)
            if attempt < 2:
                raise InjectedFaultError("transient")
            return "ok"

        sleeps = []
        policy = RetryPolicy(retries=3, base_delay_ms=1.0)
        assert policy.call(flaky, sleep=sleeps.append) == "ok"
        assert attempts == [0, 1, 2]
        assert len(sleeps) == 2

    def test_call_exhausts_budget(self):
        policy = RetryPolicy(retries=2, base_delay_ms=0.0)
        calls = []

        def doomed(attempt):
            calls.append(attempt)
            raise InjectedFaultError("always")

        with pytest.raises(InjectedFaultError):
            policy.call(doomed, sleep=lambda s: None)
        assert calls == [0, 1, 2]  # first try + 2 retries

    def test_call_does_not_retry_permanent_errors(self):
        policy = RetryPolicy(retries=3)
        calls = []

        def broken(attempt):
            calls.append(attempt)
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            policy.call(broken, sleep=lambda s: None)
        assert calls == [0]

    def test_a_first_attempt_success_draws_no_schedule(self, monkeypatch):
        """``call`` built the whole schedule before its first attempt,
        0.27 s of it at a million retries."""
        built, real = [], random.Random
        monkeypatch.setattr(random, "Random",
                            lambda seed: built.append(seed) or real(seed))
        assert RetryPolicy(retries=10**6).call(lambda attempt: "ok") == "ok"
        assert built == []
        RetryPolicy(retries=1, seed=5).delays_ms()
        assert built == [5]

    def test_a_call_that_fails_twice_sleeps_the_schedule(self):
        policy = RetryPolicy(retries=6, base_delay_ms=1.5, multiplier=3.0,
                             jitter=0.4, seed=3)
        seen, sleeps = [], []

        def flaky(attempt):
            if attempt < 2:
                raise InjectedFaultError("transient")
            return "ok"

        assert policy.call(flaky, sleep=sleeps.append,
                           on_retry=lambda a, e, d: seen.append(d)) == "ok"
        assert seen == list(policy.delays_ms()[:2])
        assert sleeps == [d / 1e3 for d in policy.delays_ms()[:2]]

    def test_on_retry_reports_each_backoff(self):
        policy = RetryPolicy(retries=2, base_delay_ms=1.0)
        seen = []

        def doomed(attempt):
            raise InjectedFaultError("always")

        with pytest.raises(InjectedFaultError):
            policy.call(
                doomed, sleep=lambda s: None,
                on_retry=lambda a, e, d: seen.append((a, type(e), d)),
            )
        assert [a for a, _, _ in seen] == [0, 1]
        assert all(t is InjectedFaultError for _, t, _ in seen)
        assert tuple(d for _, _, d in seen) == policy.delays_ms()

    def test_transient_family_is_curated(self):
        assert InjectedFaultError in TRANSIENT_ERRORS
        assert TimeoutError in TRANSIENT_ERRORS
        assert ValueError not in TRANSIENT_ERRORS

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        retries=st.integers(0, 8),
        base=st.floats(0.0, 10.0, allow_nan=False),
        jitter=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_schedule_is_deterministic_per_seed(self, seed, retries, base,
                                                jitter):
        make = lambda: RetryPolicy(  # noqa: E731
            retries=retries, base_delay_ms=base, max_delay_ms=base + 100.0,
            jitter=jitter, seed=seed,
        )
        first, second = make().delays_ms(), make().delays_ms()
        assert first == second
        assert len(first) == retries
        assert all(d >= 0 for d in first)


# -- circuit breaker -----------------------------------------------------------------


class TestCircuitBreaker:
    def breaker(self, threshold=3, cooldown=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=threshold, cooldown_s=cooldown),
            clock=clock,
        )
        return breaker, clock

    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(cooldown_s=-1.0)

    @pytest.mark.parametrize("fields", bad_fields(
        counts=("failure_threshold",), floats=("cooldown_s",),
    ))
    def test_rejects_a_fractional_or_non_finite_field(self, fields):
        """A NaN or infinite cooldown never half-opened the circuit."""
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            BreakerPolicy(**fields)

    def test_opens_after_consecutive_failures_only(self):
        breaker, _ = self.breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # concurrent callers keep failing fast
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker, clock = self.breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()


# -- chaos policy --------------------------------------------------------------------


class TestChaosPolicy:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(worker_crash_p=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(latency_spike_ms=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(max_crashes_per_site=-1)

    @pytest.mark.parametrize("fields", bad_fields(
        counts=("max_crashes_per_site",),
        floats=("worker_crash_p", "flush_error_p", "latency_spike_ms",
                "latency_spike_p"),
    ))
    def test_rejects_a_fractional_or_non_finite_field(self, fields):
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            ChaosPolicy(**fields)

    def test_inactive_by_default(self):
        assert not ChaosPolicy().active
        assert ChaosPolicy(worker_crash_p=0.1).active
        assert ChaosPolicy(flush_error_p=0.1).active
        # A spike size without a probability (or vice versa) injects
        # nothing.
        assert not ChaosPolicy(latency_spike_ms=5.0).active
        assert not ChaosPolicy(latency_spike_p=0.5).active

    def test_schedule_is_deterministic(self):
        a = ChaosPolicy(seed=7, worker_crash_p=0.5, flush_error_p=0.5)
        b = ChaosPolicy(seed=7, worker_crash_p=0.5, flush_error_p=0.5)
        sites = [f"site{i}" for i in range(32)]
        assert [a.crashes_for(s) for s in sites] == \
            [b.crashes_for(s) for s in sites]
        assert [a.flush_should_fail(s, 0) for s in sites] == \
            [b.flush_should_fail(s, 0) for s in sites]
        c = ChaosPolicy(seed=8, worker_crash_p=0.5, flush_error_p=0.5)
        assert [a.crashes_for(s) for s in sites] != \
            [c.crashes_for(s) for s in sites]

    def test_crashes_are_capped_so_retry_converges(self):
        chaos = ChaosPolicy(seed=0, worker_crash_p=1.0, max_crashes_per_site=2)
        for site in range(16):
            assert chaos.crashes_for(site) == 2
            assert chaos.should_crash_worker(site, 0)
            assert chaos.should_crash_worker(site, 1)
            assert not chaos.should_crash_worker(site, 2)

    def test_maybe_crash_worker_raises_in_process(self):
        chaos = ChaosPolicy(seed=0, worker_crash_p=1.0)
        with pytest.raises(WorkerCrashError):
            chaos.maybe_crash_worker("site", 0)
        # Attempt beyond the cap: no crash.
        chaos.maybe_crash_worker("site", chaos.max_crashes_per_site)

    def test_on_flush_spikes_then_fails(self):
        chaos = ChaosPolicy(seed=1, flush_error_p=1.0,
                            latency_spike_ms=5.0, latency_spike_p=1.0)
        slept = []
        with pytest.raises(InjectedFaultError):
            chaos.on_flush("m/0", 0, sleep=slept.append)
        assert slept == [5.0 / 1e3]
        clean = ChaosPolicy(seed=1)
        clean.on_flush("m/0", 0, sleep=slept.append)  # no-op
        assert len(slept) == 1


# -- supervisor policy ----------------------------------------------------------------


class TestSupervisorPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(retry_budget=-1)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(watchdog_s=0.0)

    @pytest.mark.parametrize("fields", bad_fields(
        counts=("retry_budget",), floats=("watchdog_s",),
    ))
    def test_rejects_a_fractional_or_non_finite_field(self, fields):
        """A NaN watchdog killed every worker as it started, and an
        infinite one killed the timer thread instead."""
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            SupervisorPolicy(**fields)

    def test_defaults_cover_the_chaos_cap(self):
        # The default budget must cover the default chaos crash cap,
        # so a supervised chaos run always converges.
        assert SupervisorPolicy().retry_budget >= \
            ChaosPolicy().max_crashes_per_site
