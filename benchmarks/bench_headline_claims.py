"""Abstract / section 4.4.2 headline claims.

Paper: 3.1x speed and 2.2x energy efficiency vs the single-port design;
44 MInf/s at 607 pJ/Inf and 29 mW; 97.64 % classification accuracy
(MNIST — here measured on the synthetic-digit substitute).  The claims
come from the ``figure8`` sweep, timed here end to end.
"""

import pytest

from repro.sweep import SweepRunner
from repro.system.report import render_claims


@pytest.mark.benchmark(group="headline")
def test_headline_claims(benchmark, figure8_sweep, reference_model):
    runner = SweepRunner(figure8_sweep, cache=None)
    result = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    claims = result.headline_claims(reference_model.test_accuracy)
    print()
    print(render_claims(claims))
    print(f"  area vs 1RW:         2.4x  -> {claims.area_ratio_vs_1rw:.2f}x")
    assert claims.speedup_vs_1rw == pytest.approx(3.1, abs=0.4)
    assert claims.energy_efficiency_vs_1rw == pytest.approx(2.2, abs=0.35)
    assert claims.throughput_minf_s == pytest.approx(44.0, rel=0.15)
    assert claims.energy_per_inf_pj == pytest.approx(607.0, rel=0.15)
    assert claims.power_mw == pytest.approx(29.0, rel=0.15)
    assert claims.accuracy > 0.95
