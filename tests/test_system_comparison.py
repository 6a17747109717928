"""Table 3 comparison data."""

import pytest

from repro.system.comparison import (
    TABLE3_LITERATURE,
    TABLE3_PAPER_THIS_WORK,
    table3,
    this_work_row,
)


class TestLiteratureRows:
    def test_three_literature_systems(self):
        assert len(TABLE3_LITERATURE) == 3

    def test_wang_row_matches_paper(self):
        wang = TABLE3_LITERATURE[0]
        assert wang.technology_nm == 65
        assert wang.power_w == pytest.approx(305e-9)
        assert wang.throughput_inf_s == 2.0
        assert wang.energy_per_inf_j == pytest.approx(195e-9)

    def test_chen_row_matches_paper(self):
        chen = TABLE3_LITERATURE[1]
        assert chen.neuron_count == 4096
        assert chen.synapse_count == 1_000_000
        assert chen.weight_bits == 7

    def test_kim_row_transposable(self):
        kim = TABLE3_LITERATURE[2]
        assert kim.transposable
        assert kim.energy_per_inf_j is None

    def test_paper_this_work_reference(self):
        ref = TABLE3_PAPER_THIS_WORK
        assert ref.technology_nm == 3
        assert ref.neuron_count == 778
        assert ref.synapse_count == 330_000
        assert ref.throughput_inf_s == pytest.approx(44e6)
        assert ref.energy_per_inf_j == pytest.approx(0.607e-9)
        assert ref.power_w == pytest.approx(29e-3)


class TestMeasuredRow:
    def test_this_work_row_from_metrics(self, rng):
        import numpy as np
        from repro.system.energy import SystemEnergyModel
        from repro.tile.network import EsamNetwork, InferenceTrace

        weights = [rng.integers(0, 2, (128, 10)).astype(np.uint8)]
        net = EsamNetwork(weights, [np.full(10, 511)])
        trace = InferenceTrace()
        net.infer(rng.random(128) < 0.3, trace)
        metrics = SystemEnergyModel(net).metrics(trace)
        row = this_work_row(
            metrics, accuracy_pct=99.0, neuron_count=10, synapse_count=1280,
        )
        assert row.technology_nm == 3
        assert row.transposable
        assert row.clock_frequency_hz == pytest.approx(810e6, rel=2e-3)
        full = table3(row)
        assert len(full) == 4
        assert full[-1] is row
