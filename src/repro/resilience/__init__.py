"""Fault-tolerant execution layer shared by serving and campaigns.

One policy-driven vocabulary for how the stack behaves when things
break — the software-layer mirror of the paper's graceful-degradation
story:

* :class:`~repro.resilience.policy.RetryPolicy` — seeded exponential
  backoff + jitter for transient failures (deterministic per seed).
* :class:`~repro.resilience.policy.BreakerPolicy` /
  :class:`~repro.resilience.policy.CircuitBreaker` — per-model
  fail-fast after K consecutive flush failures, half-open probe to
  recover.
* :class:`~repro.resilience.policy.SupervisorPolicy` — bounded crash
  retry + wall-clock watchdog for sharded campaign workers, applied by
  :func:`~repro.resilience.supervisor.supervised_map`.
* :class:`~repro.resilience.chaos.ChaosPolicy` — seeded, deterministic
  fault injection (worker crashes, flush errors, latency spikes) that
  the acceptance suite drives the whole stack through.

An interrupted campaign resumes by being re-run: every finished point
is already in the result cache, so only the unfinished points are
evaluated.

See ``docs/resilience.md`` for the failure-semantics walkthrough.
"""

from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import (
    TRANSIENT_ERRORS,
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
    SupervisorPolicy,
)

__all__ = [
    "BreakerPolicy",
    "ChaosPolicy",
    "CircuitBreaker",
    "RetryPolicy",
    "SupervisorPolicy",
    "TRANSIENT_ERRORS",
]
