"""Micro-batching policy: coalesce single requests into engine batches.

The fast engine's throughput comes from batching (~200x on 256-image
batches, `BENCH_simulator.json`), but serving traffic arrives one image
at a time.  A :class:`MicroBatcher` holds pending requests and releases
them in batches under two triggers:

* **size** — ``max_batch_size`` requests are pending; flush now.
* **deadline** — the oldest pending request has waited ``max_wait_ms``;
  flush whatever is pending so tail latency stays bounded even at low
  arrival rates.

The batcher is deliberately free of threads and wall clocks: callers
inject ``now`` timestamps (the server passes ``time.monotonic``, tests
pass a counter), which makes the coalescing policy exactly testable.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError, _integer


@dataclass(frozen=True)
class BatchPolicy:
    """When to flush pending requests into one ``infer_batch`` call.

    ``max_batch_size`` bounds every flush; ``max_wait_ms`` bounds how
    long any request may sit waiting for co-riders.
    """

    max_batch_size: int = 64
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_batch_size",
            _integer("max_batch_size", self.max_batch_size),
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


class MicroBatcher:
    """FIFO coalescer for one model's pending requests."""

    def __init__(self, policy: BatchPolicy | None = None,
                 clock=time.monotonic) -> None:
        self.policy = policy or BatchPolicy()
        self._clock = clock
        self._pending: deque[tuple[float, object]] = deque()

    def __len__(self) -> int:
        return len(self._pending)

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
        if len(self._pending) >= self.policy.max_batch_size:
            return True
        now = self._clock() if now is None else now
        return self._pending[0][0] <= now

    def take(self) -> list:
        """Pop the next batch (up to ``max_batch_size``), oldest first."""
        n = min(len(self._pending), self.policy.max_batch_size)
        return [self._pending.popleft()[1] for _ in range(n)]

    def drain(self) -> list[list]:
        """Flush everything pending as max-size batches (shutdown path)."""
        batches = []
        while self._pending:
            batches.append(self.take())
        return batches
