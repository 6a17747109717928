"""Micro-batching policy: coalesce single requests into engine batches.

The fast engine's throughput comes from batching (~200x on 256-image
batches, `BENCH_simulator.json`), but serving traffic arrives one image
at a time.  A :class:`MicroBatcher` holds pending requests and releases
them in batches under two triggers:

* **size** — a batch target's worth of requests is pending; flush now.
* **deadline** — the oldest pending request has waited ``max_wait_ms``;
  flush whatever is pending so tail latency stays bounded even at low
  arrival rates.

With ``adaptive=True`` the batch target floats between
``min_batch_size`` and ``max_batch_size`` driven by observed backlog:
it doubles when a size-triggered flush still leaves a full target
pending (the queue is deep — amortize more), and halves when a
deadline-triggered flush goes out at most half full (the queue is
shallow — stop waiting for riders that are not coming).

The batcher is deliberately free of threads and wall clocks: callers
inject ``now`` timestamps (the server passes ``time.monotonic``, tests
pass a counter), which makes the coalescing policy exactly testable.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sweep.spec import _integer


@dataclass(frozen=True)
class BatchPolicy:
    """When to flush pending requests into one ``infer_batch`` call.

    ``max_batch_size`` bounds every flush; ``max_wait_ms`` bounds how
    long any request may sit waiting for co-riders.  ``adaptive``
    activates the floating batch target described in the module
    docstring, with ``min_batch_size`` as its lower bound.
    """

    max_batch_size: int = 64
    max_wait_ms: float = 2.0
    adaptive: bool = False
    min_batch_size: int = 1

    def __post_init__(self) -> None:
        for name in ("max_batch_size", "min_batch_size"):
            object.__setattr__(
                self, name, _integer(name, getattr(self, name))
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        # A NaN wait never expires and an infinite one overflows the
        # dispatch thread's timed wait.
        if not 0 <= self.max_wait_ms < math.inf:
            raise ConfigurationError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}"
            )
        if not 1 <= self.min_batch_size <= self.max_batch_size:
            raise ConfigurationError(
                f"min_batch_size must be in [1, {self.max_batch_size}], "
                f"got {self.min_batch_size}"
            )


class MicroBatcher:
    """FIFO coalescer for one model's pending requests."""

    def __init__(self, policy: BatchPolicy | None = None,
                 clock=time.monotonic) -> None:
        self.policy = policy or BatchPolicy()
        self._clock = clock
        self._pending: deque[tuple[float, object]] = deque()
        if self.policy.adaptive:
            self._target = self.policy.min_batch_size
        else:
            self._target = self.policy.max_batch_size

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def target(self) -> int:
        """Current flush target (fixed unless the policy is adaptive)."""
        return self._target

    def add(self, item, now: float | None = None) -> int:
        """Enqueue one request; returns the pending depth after it."""
        now = self._clock() if now is None else now
        self._pending.append((now + self.policy.max_wait_ms / 1e3, item))
        return len(self._pending)

    def next_deadline(self) -> float | None:
        """When the oldest pending request must flush (None if empty)."""
        if not self._pending:
            return None
        return self._pending[0][0]

    def ready(self, now: float | None = None) -> bool:
        """True when a size or deadline trigger has fired."""
        if not self._pending:
            return False
        if len(self._pending) >= self._target:
            return True
        now = self._clock() if now is None else now
        return self._pending[0][0] <= now

    def take(self, now: float | None = None) -> list:
        """Pop the next batch (up to the current target), oldest first.

        Also applies the adaptive target update: the decision is made
        from what triggered this flush and what it leaves behind, so it
        is deterministic given the sequence of ``add``/``take`` calls
        and timestamps.
        """
        now = self._clock() if now is None else now
        size_triggered = len(self._pending) >= self._target
        n = min(len(self._pending), self._target)
        batch = [self._pending.popleft()[1] for _ in range(n)]
        if self.policy.adaptive and batch:
            if size_triggered and len(self._pending) >= self._target:
                self._target = min(
                    self.policy.max_batch_size, self._target * 2
                )
            elif not size_triggered and n * 2 <= self._target:
                self._target = max(
                    self.policy.min_batch_size, self._target // 2
                )
        return batch

    def drain(self) -> list[list]:
        """Flush everything pending as max-size batches (shutdown path)."""
        batches = []
        while self._pending:
            n = min(len(self._pending), self.policy.max_batch_size)
            batches.append([self._pending.popleft()[1] for _ in range(n)])
        return batches
