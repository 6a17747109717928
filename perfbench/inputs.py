"""Seeded inputs: row pools, per-phase row streams and arrival schedules.

Everything a run feeds the program is derived here from ``--seed``; the
program itself only ever sees the generated rows.  Each workload has its
own row pool:

* ``distinct`` -- the 1500 test digits, each shifted by every translation
  of at most 2 px in x and y and then encoded: 37 500 distinct spike rows
  with the same spike density as the test set.  The seed orders them.
  No row repeats within one pass, so nothing an engine memoizes can help.
* ``repeated`` -- rows drawn with replacement from the 1500 encoded test
  digits, the way ``python -m repro.serve`` draws its traces.  Rows recur
  often, which is the case a pattern memo targets.
"""

from __future__ import annotations

import numpy as np

from repro.snn.encode import IMAGE_SIZE, encode_images

#: Largest translation, in pixels, along each image axis.
MAX_SHIFT_PX = 2

#: Workload name -> one-line reason it exists (mirrored in BENCHMARK.json).
WORKLOADS = {
    "distinct": "every row is a distinct shifted test digit, so no engine "
                "instance sees a row twice and a pattern memo cannot help",
    "repeated": "rows are drawn with replacement from the 1500 test digits, "
                "as the serving CLI does, so rows recur and a memo could hit",
}


def shifted(images: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate ``(n, 28, 28)`` images by ``(dy, dx)`` pixels, zero-filled."""
    out = np.zeros_like(images)
    src_y = slice(max(-dy, 0), IMAGE_SIZE - max(dy, 0))
    dst_y = slice(max(dy, 0), IMAGE_SIZE - max(-dy, 0))
    src_x = slice(max(-dx, 0), IMAGE_SIZE - max(dx, 0))
    dst_x = slice(max(dx, 0), IMAGE_SIZE - max(-dx, 0))
    out[:, dst_y, dst_x] = images[:, src_y, src_x]
    return out


def translation_pool(images: np.ndarray) -> np.ndarray:
    """Encoded rows of every image under every translation of <= 2 px."""
    span = range(-MAX_SHIFT_PX, MAX_SHIFT_PX + 1)
    return np.concatenate([
        encode_images(shifted(images, dy, dx)) for dy in span for dx in span
    ])


class RowPool:
    """The spike rows one workload draws from."""

    def __init__(self, workload: str, test_images: np.ndarray) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        if workload == "distinct":
            self.rows = translation_pool(test_images)
        else:
            self.rows = encode_images(test_images)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def stream(self, rng: np.random.Generator) -> "RowStream":
        return RowStream(self, rng)


class RowStream:
    """Hands out seeded rows of a :class:`RowPool` to one phase.

    ``take(n)`` returns the next ``n`` rows and their pool indices.  On
    ``distinct`` the stream walks a seeded permutation of the pool and
    raises once it is exhausted, so a phase can never silently reuse a
    row; :meth:`restart` begins a new seeded pass (callers pair it with
    a fresh engine instance).  On ``repeated`` it draws with replacement
    and never runs out.
    """

    def __init__(self, pool: RowPool, rng: np.random.Generator) -> None:
        self.pool = pool
        self._rng = rng
        self._order = np.empty(0, dtype=np.int64)
        self._cursor = 0
        self.restart()

    @property
    def distinct(self) -> bool:
        return self.pool.workload == "distinct"

    def restart(self) -> None:
        """Begin a new pass (``distinct``: a fresh seeded permutation)."""
        if self.distinct:
            self._order = self._rng.permutation(self.pool.size)
        self._cursor = 0

    def remaining(self) -> int | None:
        """Rows left in this pass (``None``: the stream never runs out)."""
        return self.pool.size - self._cursor if self.distinct else None

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.distinct:
            if self._cursor + n > self.pool.size:
                raise ValueError(
                    f"distinct pool exhausted: {n} rows asked, "
                    f"{self.pool.size - self._cursor} left in this pass"
                )
            index = self._order[self._cursor:self._cursor + n]
            self._cursor += n
        else:
            index = self._rng.integers(0, self.pool.size, size=n)
        return self.pool.rows[index], index


def poisson_schedule(rate: float, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Due times (s, from 0) of ``n`` Poisson arrivals at ``rate`` per s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))
