"""Abstract / section 4.4.2 headline claims.

Paper: 3.1x speed and 2.2x energy efficiency vs the single-port design;
44 MInf/s at 607 pJ/Inf and 29 mW; 97.64 % classification accuracy
(MNIST — here measured on the synthetic-digit substitute).  The claims
come from the ``figure8`` sweep, timed here end to end and cold: the
sweep runs once in a new interpreter (``sys.executable`` running this
file as a script), after the model is loaded, so what another
benchmark of the session left in the process (the encoded sample, the
memoized arbiter netlists) cannot shorten it.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.learning.pretrained import get_reference_model
from repro.sweep import SweepRunner, figure8_spec
from repro.system.claims import HeadlineClaims
from repro.system.report import render_claims

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The session's ``figure8_sweep``: 32 test digits a cell, ``full`` model.
SPEC = figure8_spec(sample_images=32, quality="full", seed=42)


def cold_sweep() -> dict:
    """The sweep's wall time in this process, and its headline claims."""
    accuracy = get_reference_model(SPEC.quality, SPEC.seed).test_accuracy
    started = time.perf_counter()
    result = SweepRunner(SPEC, cache=None).run()
    took = time.perf_counter() - started
    claims = result.headline_claims(accuracy)
    return {"sweep_s": took, "claims": dataclasses.asdict(claims)}


def test_headline_claims(figure8_sweep, reference_model):
    assert SPEC == figure8_sweep
    child = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
        timeout=300,
    )
    run = json.loads(child.stdout)
    claims = HeadlineClaims(**run["claims"])
    print()
    print(f"figure8 sweep, cold in a new process: {run['sweep_s'] * 1e3:.1f} ms")
    print(render_claims(claims))
    print(f"  area vs 1RW:         2.4x  -> {claims.area_ratio_vs_1rw:.2f}x")
    assert claims.speedup_vs_1rw == pytest.approx(3.1, abs=0.4)
    assert claims.energy_efficiency_vs_1rw == pytest.approx(2.2, abs=0.35)
    assert claims.throughput_minf_s == pytest.approx(44.0, rel=0.15)
    assert claims.energy_per_inf_pj == pytest.approx(607.0, rel=0.15)
    assert claims.power_mw == pytest.approx(29.0, rel=0.15)
    assert claims.accuracy == reference_model.test_accuracy > 0.95


if __name__ == "__main__":
    print(json.dumps(cold_sweep()))
