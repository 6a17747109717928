"""Exception hierarchy for the ESAM reproduction library."""

from __future__ import annotations

import contextlib
import operator


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An object was configured with inconsistent or unsupported parameters."""


class OutputError(ReproError):
    """An output file (a CLI's ``--out``, ``--csv``, ``--json``,
    ``--trace-out`` or ``--metrics-out``) could not be written."""


@contextlib.contextmanager
def writing(path):
    """Turn an ``OSError`` in the block into an :class:`OutputError`
    naming ``path``, so a CLI ends with ``error: cannot write PATH:
    reason`` and exit 1 instead of a traceback."""
    try:
        yield
    except OSError as error:
        raise OutputError(
            f"cannot write {path}: {error.strerror or error}"
        ) from None


def _integer(name: str, value) -> int:
    """``value`` as a plain ``int``: any integer, numpy's included, but
    no bool, float or string.

    Counts and sizes go through this, so a float can neither change a
    cache key, be truncated into another Monte-Carlo stream, nor reach
    a ``range()`` that fails long after the object was built.
    """
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


class DesignRuleError(ReproError):
    """A physical design rule was violated (e.g. invalid array size).

    The paper restricts SRAM arrays to at most 128 rows and 128 columns
    because larger arrays would require a negative-bitline write-assist
    voltage below -400 mV, which is considered non-yielding
    (Liu et al., TED'22).  Attempting to build such an array raises this
    error rather than silently producing an unmanufacturable design.
    """


class SimulationError(ReproError):
    """The hardware simulation reached an inconsistent state."""


class TrainingError(ReproError):
    """Offline BNN training could not proceed (bad shapes, no data, ...)."""


class ServingError(ReproError):
    """The inference-serving layer could not satisfy a request.

    Raised for serving-level faults that are not configuration mistakes:
    submitting to a stopped server, targeting a model name the registry
    does not hold, or a request abandoned because the server shut down
    without draining.  Configuration problems (bad batch policy, invalid
    spike shapes) still raise :class:`ConfigurationError`.
    """


class QueueFullError(ServingError):
    """The server's bounded request queue rejected a submission.

    This is the explicit backpressure signal (paper north star: serve
    heavy traffic without unbounded buffering).  The server admits at
    most ``max_queue_depth`` in-flight requests; once that many are
    submitted but not yet resolved, further submissions fail fast with
    this error instead of growing the queue without bound.  Callers are
    expected to retry after a short delay or shed load — a rejected
    request is never partially enqueued.
    """


class DeadlineExceededError(ServingError):
    """A request's deadline expired before it could be dispatched.

    Requests submitted with ``deadline_ms`` carry an absolute expiry;
    under backlog the server *sheds* already-doomed requests at flush
    time — failing their futures with this error instead of spending
    engine cycles on an answer nobody is waiting for.  Every shed
    request is counted in ``ServingMetrics`` (``shed``); nothing is
    dropped silently.
    """


class ModelUnavailableError(ServingError):
    """A model's circuit breaker is open; submissions fail fast.

    After ``failure_threshold`` consecutive flush failures the
    registry's per-model :class:`~repro.resilience.policy.
    CircuitBreaker` opens: new submissions for that model raise this
    error immediately (no queueing, no engine work) until the cooldown
    elapses and a half-open probe succeeds.  Other models on the same
    server are unaffected.
    """


class WorkerCrashError(SimulationError):
    """A supervised worker shard crashed (or hung) beyond its retry budget.

    The sweep/reliability shard supervisor survives worker-process
    crashes (``BrokenProcessPool``) by re-queueing the affected points
    to a rebuilt pool; when one point keeps crashing past
    ``SupervisorPolicy.retry_budget`` re-executions, the campaign fails
    with this error naming the point instead of retrying forever.
    """


class InjectedFaultError(SimulationError):
    """A synthetic transient fault injected by the chaos harness.

    Raised only by :class:`~repro.resilience.chaos.ChaosPolicy` —
    mirroring the paper's bit-error grids at the software layer — and
    classified as *transient*: retry policies treat it as retryable,
    which is how the chaos suite proves the retry/breaker machinery
    works without real hardware faults.
    """
