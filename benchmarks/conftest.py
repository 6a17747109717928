"""Shared benchmark fixtures.

The benchmarks regenerate every table and figure of the paper's
evaluation section; each prints a paper-vs-measured comparison so the
console log doubles as the reproduction record (see PAPER.md;
``python -m repro.reproduce`` writes every table and figure).
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.envinfo import environment_info
from repro.hw.config import HardwareConfig
from repro.learning.pretrained import ReferenceModel, get_reference_model
from repro.obs import get_tracer
from repro.sweep import SweepResult, SweepRunner, SweepSpec, figure8_spec


@pytest.fixture(scope="session")
def reference_model() -> ReferenceModel:
    """The paper's trained 768:256:256:256:10 network (disk-cached)."""
    return get_reference_model(quality="full", seed=42)


@pytest.fixture(scope="session")
def figure8_sweep(reference_model) -> SweepSpec:
    """Figure 8's five cells, each simulated over 32 test digits of
    ``reference_model``; the ablation sweeps take the same sample."""
    return figure8_spec(sample_images=32, quality="full", seed=42)


@pytest.fixture(scope="session")
def figure8(figure8_sweep) -> SweepResult:
    """The ``figure8`` sweep, run once a session without the cache."""
    return SweepRunner(figure8_sweep, cache=None).run()


@pytest.fixture
def bench_report():
    """Writer for ``BENCH_*.json`` trajectory files.

    Every BENCH artifact must be self-describing: which hardware the
    numbers were measured on (the full ``HardwareConfig`` dict), which
    host measured them (``environment_info()``), and — since the
    observability layer — how long the producing benchmark ran and
    what the process tracer did while it ran (span count and measured
    overhead; all zeros under the default no-op tracer, which is
    itself the claim the artifact records).  Function-scoped so the
    wall clock covers exactly the benchmark that writes the artifact.
    """
    started = time.perf_counter()

    def write(path: pathlib.Path, payload: dict,
              hardware: HardwareConfig) -> pathlib.Path:
        stamped = dict(payload)
        stamped["hardware"] = hardware.to_dict()
        stamped["environment"] = environment_info()
        stamped["observability"] = {
            "bench_wall_s": round(time.perf_counter() - started, 3),
            "tracer": get_tracer().stats(),
        }
        path.write_text(json.dumps(stamped, indent=2) + "\n")
        return path

    return write
