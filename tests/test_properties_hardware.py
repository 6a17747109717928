"""Property-based tests of hardware invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiter.cascaded import MultiPortArbiter
from repro.hw.config import HardwareConfig
from repro.sram.array import SramArray
from repro.sram.bitcell import CellType
from repro.tile.tile import Tile


class TestArbiterInvariants:
    @given(
        st.lists(st.integers(0, 63), min_size=0, max_size=64, unique=True),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_of_grants(self, requests, ports):
        """Every submitted request is granted exactly once, in order."""
        arb = MultiPortArbiter(64, ports)
        arb.submit_rows(requests)
        granted = []
        for grant in arb.drain():
            granted.extend(grant.granted_rows.tolist())
        assert granted == sorted(requests)

    @given(
        st.lists(st.integers(0, 31), min_size=1, max_size=32, unique=True),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_cycle_count_is_ceiling(self, requests, ports):
        arb = MultiPortArbiter(32, ports)
        arb.submit_rows(requests)
        cycles = len(arb.drain())
        assert cycles == -(-len(requests) // ports)

    @given(st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_grants_per_cycle_bounded(self, ports):
        arb = MultiPortArbiter(32, ports)
        arb.submit(np.ones(32, dtype=bool))
        for grant in arb.drain():
            assert grant.grant_count <= ports


class TestSramInvariants:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reads_never_disturb_contents(self, seed):
        rng = np.random.default_rng(seed)
        arr = SramArray(CellType.C1RW4R, 32, 32, enforce_design_rules=False)
        bits = rng.integers(0, 2, (32, 32))
        arr.load_weights(bits)
        for _ in range(5):
            rows = rng.choice(32, size=rng.integers(0, 5), replace=False)
            arr.read_rows(rows)
            arr.read_column(int(rng.integers(0, 32)))
        assert (arr.dump_weights() == bits).all()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_column_writes_compose(self, seed):
        """Writing all columns one by one equals a bulk load."""
        rng = np.random.default_rng(seed)
        arr = SramArray(CellType.C1RW2R, 16, 16, enforce_design_rules=False)
        target = rng.integers(0, 2, (16, 16))
        for col in range(16):
            arr.write_column(col, target[:, col])
        assert (arr.dump_weights() == target).all()


class TestTileInvariants:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_output_independent_of_spike_order(self, seed):
        """The IF accumulation is commutative: any grant order gives the
        same Vmem, so repeated runs with the same input are identical."""
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 2, (128, 32)).astype(np.uint8)
        th = rng.integers(-4, 12, 32)
        spikes = rng.random(128) < 0.35
        tile_a = Tile(w, th, config=HardwareConfig(cell_type=CellType.C1RW4R))
        tile_b = Tile(w, th, config=HardwareConfig(cell_type=CellType.C1RW1R))
        out_a = tile_a.run_inference(spikes)
        out_b = tile_b.run_inference(spikes)
        assert (out_a == out_b).all()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_grants_equal_input_spikes(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 2, (128, 16)).astype(np.uint8)
        tile = Tile(w, np.zeros(16),
                    config=HardwareConfig(cell_type=CellType.C1RW3R))
        spikes = rng.random(128) < 0.4
        tile.run_inference(spikes)
        assert tile.stats.grants == int(spikes.sum())
