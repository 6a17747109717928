"""Refactor parity: the config path reproduces the pre-refactor seed.

``tests/golden/figure8_fast8.json`` was captured from the repository
state *before* the ``HardwareConfig`` refactor, by evaluating the
paper's design point at 8 sample images with the ``"fast"`` model —
figure8 rows plus headline claims, stored with full ``repr`` float
precision.  The refactor threads a frozen descriptor through every
layer, and at the default point (3nm node, typical corner) that must
be a pure plumbing change: every metric bit-identical, no tolerance.

If a deliberate modelling change ever breaks this, re-capture the
golden file in the same commit and say so in the commit message.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.learning.pretrained import get_reference_model
from repro.sram.bitcell import CellType
from repro.sweep import (
    DesignPoint,
    SweepResult,
    SweepRow,
    SweepRunner,
    SweepStats,
    figure8_spec,
)
from repro.sweep.__main__ import main as sweep_main
from repro.system.energy import SystemMetrics

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "figure8_fast8.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture
def result(golden, backend) -> SweepResult:
    """The ``figure8`` sweep at the golden configuration on ``backend``,
    evaluated fresh."""
    config = golden["config"]
    return SweepRunner(
        figure8_spec(sample_images=config["sample_images"],
                     quality=config["quality"], seed=config["seed"],
                     engine=backend),
        cache=None,
    ).run()


class TestParity:
    def test_figure8_metrics_bit_identical_to_seed(self, golden, result,
                                                backend):
        """Every backend renders the golden figure — every metric bit for
        bit, not just the predictions.

        Energies are counts times per-access energies, summed in one
        fixed order, so the per-cycle reference matches the capture
        exactly too.
        """
        assert [r.point.cell_type.value for r in result] == [
            r["cell_type"] for r in golden["rows"]
        ]
        for got, want in zip(result, golden["rows"]):
            got_metrics = dataclasses.asdict(got.metrics)
            assert got_metrics == want["metrics"], (
                f"{want['cell_type']}: {backend} metrics diverge from the "
                "golden capture"
            )

    def test_headline_claims_bit_identical_to_seed(self, golden, result):
        config = golden["config"]
        accuracy = get_reference_model(
            config["quality"], config["seed"]).test_accuracy
        claims = dataclasses.asdict(result.headline_claims(accuracy))
        assert claims == golden["claims"]

    def test_cli_claims_output_pinned(self, golden, capsys):
        """`python -m repro.sweep figure8 --claims` prints exactly the
        golden headline claims for the golden configuration."""
        config = golden["config"]
        code = sweep_main([
            "figure8", "--quality", config["quality"],
            "--sample-images", str(config["sample_images"]),
            "--seed", str(config["seed"]), "--no-cache", "--claims",
        ])
        assert code == 0
        out = capsys.readouterr().out
        table = SweepResult(
            spec_name="figure8",
            rows=[
                SweepRow(
                    point=DesignPoint(
                        cell_type=CellType(row["cell_type"]),
                        sample_images=config["sample_images"],
                        quality=config["quality"], seed=config["seed"],
                    ),
                    metrics=SystemMetrics(**row["metrics"]),
                )
                for row in golden["rows"]
            ],
            stats=SweepStats(evaluated=len(golden["rows"])),
        ).render()
        assert out.startswith(table + "\n")
        claims = golden["claims"]
        assert "\n".join([
            "headline claims (paper -> measured):",
            f"  speedup vs 1RW:      3.1x  -> "
            f"{claims['speedup_vs_1rw']:.2f}x",
            f"  energy efficiency:   2.2x  -> "
            f"{claims['energy_efficiency_vs_1rw']:.2f}x",
            f"  throughput:     44 MInf/s  -> "
            f"{claims['throughput_minf_s']:.1f} MInf/s",
            f"  energy/inference: 607 pJ   -> "
            f"{claims['energy_per_inf_pj']:.0f} pJ",
            f"  power:             29 mW   -> {claims['power_mw']:.1f} mW",
        ]) in out
