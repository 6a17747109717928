"""Run-wide state: seeded generators, metric sink, checks and spans."""

from __future__ import annotations

import contextlib
import time
import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Context:
    """Everything one benchmark run shares across its phases.

    ``metrics`` collects every figure a phase measured (end-to-end and
    per-layer alike, keyed by metric name); ``run.py`` picks the declared
    set for the final line.  ``report`` collects the human-readable
    detail printed before it.  ``tracer`` is the installed
    :class:`repro.obs.Tracer` in a traced run and ``None`` otherwise.
    """

    workload: str
    seed: int
    tracer: object | None = None
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def rng(self, purpose: str) -> np.random.Generator:
        """A generator of its own per phase, so phases never share draws."""
        return np.random.default_rng([self.seed, zlib.crc32(purpose.encode())])

    def metric(self, name: str, value, unit: str) -> None:
        """Record a figure; ``None`` marks one the run could not measure."""
        self.metrics[name] = {
            "value": None if value is None else float(value), "unit": unit,
        }

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a correctness check; a failed check fails the run."""
        previous = self.checks.get(name, {"ok": True, "detail": ""})
        self.checks[name] = {
            "ok": bool(previous["ok"] and ok),
            "detail": detail if not ok else previous["detail"],
        }

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def span(self, name: str, **attrs):
        """A benchmark-side span when tracing, else a no-op."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def now(self) -> float:
        return time.perf_counter()

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks.values())
