"""Full-width (128-row, 4-port) arbiter: gate netlist vs behavioral.

The production configuration is exercised once at full scale: the
complete cascaded tree netlist (thousands of gates) must grant exactly
the four leftmost pending requests, stage by stage.
"""

import numpy as np
import pytest

from repro.arbiter.cascaded import MultiPortArbiter, build_cascaded_netlist


@pytest.fixture(scope="module")
def netlist():
    return build_cascaded_netlist(128, 4, tree=True, base_width=64)


class TestFullWidthEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tree_netlist_matches_behavioral(self, netlist, seed):
        rng = np.random.default_rng(seed)
        requests = rng.random(128) < rng.uniform(0.05, 0.6)
        inputs = {"s0": True}
        inputs.update({f"r{n}": bool(requests[n]) for n in range(128)})
        values = netlist.evaluate(inputs)
        expected = np.flatnonzero(requests)[:4]
        for stage in range(4):
            grants = [n for n in range(128) if values[f"st{stage}_g{n}"]]
            if stage < expected.size:
                assert grants == [int(expected[stage])], (seed, stage)
            else:
                assert grants == []

    def test_sparse_single_request_far_right(self, netlist):
        inputs = {"s0": True}
        inputs.update({f"r{n}": n == 127 for n in range(128)})
        values = netlist.evaluate(inputs)
        assert values["st0_g127"]
        assert values["st1_noR"]

    def test_dense_all_requests(self, netlist):
        inputs = {"s0": True}
        inputs.update({f"r{n}": True for n in range(128)})
        values = netlist.evaluate(inputs)
        for stage in range(4):
            grants = [n for n in range(128) if values[f"st{stage}_g{n}"]]
            assert grants == [stage]

    def test_cycle_semantics_drain_128(self):
        arb = MultiPortArbiter(128, 4)
        arb.submit(np.ones(128, dtype=bool))
        trace = arb.drain()
        assert len(trace) == 32
        assert sum(g.grant_count for g in trace) == 128
