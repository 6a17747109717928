"""Summary statistics shared by every phase of the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count, so a
tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples a tail percentile needs beyond it before it is reported.
MIN_TAIL_SAMPLES = 10


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= 10 of ``n`` samples beyond."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= MIN_TAIL_SAMPLES:
            return pct
    return None


def summarize(samples, unit: str) -> dict:
    """Median, supported tail percentile and count of a sample list."""
    values = np.asarray(list(samples), dtype=np.float64)
    out = {"n": int(values.size), "unit": unit, "median": None}
    if values.size == 0:
        return out
    out["median"] = float(np.median(values))
    pct = tail_percentile(values.size)
    if pct is not None:
        out[f"p{pct:g}"] = float(np.percentile(values, pct))
    return out


def median(samples) -> float:
    values = list(samples)
    if not values:
        raise ValueError("median of an empty sample")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(samples, pct: float) -> float:
    values = list(samples)
    if not values:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


class RowTracker:
    """Counts rows an engine instance has already seen.

    ``loadgen.dup_row_share`` is the share of rows that some earlier
    request or batch of the same engine instance already carried: the
    upper bound on what a per-engine pattern memo could skip.  Rows are
    keyed by their packed bytes.
    """

    def __init__(self) -> None:
        self._seen: set[bytes] = set()
        self.rows = 0
        self.duplicates = 0

    def reset_engine(self) -> None:
        """A fresh engine instance starts with nothing seen."""
        self._seen = set()

    def observe(self, rows: np.ndarray) -> None:
        packed = np.packbits(np.asarray(rows, dtype=bool), axis=1)
        for row in packed:
            key = row.tobytes()
            if key in self._seen:
                self.duplicates += 1
            else:
                self._seen.add(key)
        self.rows += packed.shape[0]

    @property
    def share(self) -> float:
        return self.duplicates / self.rows if self.rows else 0.0
