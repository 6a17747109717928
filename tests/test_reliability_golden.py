"""Campaign parity: the reliability path reproduces its golden capture.

``tests/golden/reliability_fast8.json`` was captured at the
introduction of :mod:`repro.reliability` (PR 5): the named
``reliability`` campaign at ``quality="fast"``, 8 sample images, 2
trials over BER (0, 1e-3, 5e-2) x corner (typical/slow/fast), stored
with full ``repr`` float precision — mirroring
``tests/test_parity_golden.py`` for the sweep path.  Every mask
derives from the config seed and the timing yield from a seeded
Monte-Carlo, so the run must be bit-identical, no tolerance.

If a deliberate modelling change ever breaks this, re-capture the
golden file in the same commit and say so in the commit message.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.reliability import ReliabilityRunner, reliability_spec
from repro.reliability.__main__ import main as reliability_main

pytestmark = pytest.mark.campaign

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "reliability_fast8.json"
)


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def result(golden):
    config = golden["config"]
    spec = reliability_spec(
        trials=config["trials"], sample_images=config["sample_images"],
        quality=config["quality"], seed=config["seed"],
        bers=tuple(config["bers"]), corners=tuple(config["corners"]),
    )
    return ReliabilityRunner(spec, cache=None).run()


class TestGoldenCampaign:
    def test_nominal_yield_curve_bit_identical(self, golden, result):
        assert result.claims_curve().to_dict() == golden["nominal_curve"]

    def test_nominal_rows_bit_identical(self, golden, result):
        nominal = [
            r.to_dict() for r in result.rows if r.point.corner == "typical"
        ]
        assert nominal == golden["nominal_rows"]

    def test_claims_rendering_pinned(self, golden, result):
        assert result.render_claims() == golden["claims"]

    def test_cli_claims_output_pinned(self, golden, capsys):
        """`python -m repro.reliability --claims` prints exactly the
        golden claims block for the golden configuration."""
        config = golden["config"]
        code = reliability_main([
            "--quality", config["quality"],
            "--sample-images", str(config["sample_images"]),
            "--trials", str(config["trials"]),
            "--bers", ",".join(repr(b) for b in config["bers"]),
            "--seed", str(config["seed"]),
            "--no-cache", "--claims",
        ])
        assert code == 0
        assert golden["claims"] in capsys.readouterr().out
