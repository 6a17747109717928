"""Cascaded p-port arbiter: cycle semantics and gate netlist."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiter.cascaded import MultiPortArbiter, build_cascaded_netlist
from repro.errors import ConfigurationError, SimulationError


class TestGrantSemantics:
    def test_grants_leftmost_p(self):
        arb = MultiPortArbiter(16, 4)
        arb.submit_rows([14, 2, 9, 5, 11])
        grant = arb.step()
        assert grant.granted_rows.tolist() == [2, 5, 9, 11]
        assert grant.remaining_requests == 1

    def test_second_cycle_drains_rest(self):
        arb = MultiPortArbiter(16, 4)
        arb.submit_rows([14, 2, 9, 5, 11])
        arb.step()
        grant = arb.step()
        assert grant.granted_rows.tolist() == [14]
        assert arb.r_empty

    def test_no_request_flag(self):
        arb = MultiPortArbiter(8, 2)
        grant = arb.step()
        assert grant.no_request
        assert grant.grant_count == 0

    def test_submit_is_idempotent_or(self):
        arb = MultiPortArbiter(8, 4)
        arb.submit_rows([3])
        arb.submit_rows([3])
        assert arb.pending_count == 1

    def test_drain(self):
        arb = MultiPortArbiter(32, 3)
        arb.submit(np.ones(32, dtype=bool))
        trace = arb.drain()
        assert len(trace) == 11  # ceil(32 / 3)
        assert sum(g.grant_count for g in trace) == 32
        assert arb.r_empty

    def test_counters(self):
        """A drain's grants and cycles, counted from its grant trace."""
        arb = MultiPortArbiter(8, 2)
        arb.submit_rows([0, 1, 2])
        trace = arb.drain()
        assert sum(g.grant_count for g in trace) == 3
        assert len(trace) == 2

    def test_reset(self):
        arb = MultiPortArbiter(8, 2)
        arb.submit_rows([1, 5])
        arb.reset()
        assert arb.r_empty
        assert arb.pending_count == 0
        assert arb.drain() == []


class TestReferenceEquivalence:
    @given(
        st.lists(st.booleans(), min_size=16, max_size=16),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_step_matches_cascaded_definition(self, bits, ports):
        fast = MultiPortArbiter(16, ports)
        slow = MultiPortArbiter(16, ports)
        requests = np.array(bits, dtype=bool)
        fast.submit(requests)
        slow.submit(requests)
        g_fast = fast.step()
        g_slow = slow.step_reference()
        assert g_fast.granted_rows.tolist() == g_slow.granted_rows.tolist()
        assert g_fast.no_request == g_slow.no_request
        assert g_fast.remaining_requests == g_slow.remaining_requests


class TestGateLevelCascade:
    @pytest.mark.parametrize("tree", [False, True])
    def test_cascade_grants_match_behavioral(self, tree, rng):
        """Stage-k grant nets of the netlist = k-th leftmost request."""
        width, ports = 16, 3
        net = build_cascaded_netlist(width, ports, tree=tree, base_width=8)
        for _ in range(12):
            r = rng.random(width) < 0.4
            inputs = {"s0": True}
            inputs.update({f"r{n}": bool(r[n]) for n in range(width)})
            values = net.evaluate(inputs)
            expected = np.flatnonzero(r)[:ports]
            for stage in range(ports):
                grants = [
                    n for n in range(width) if values[f"st{stage}_g{n}"]
                ]
                if stage < expected.size:
                    assert grants == [int(expected[stage])]
                else:
                    assert grants == []

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            build_cascaded_netlist(0, 1)
        with pytest.raises(ConfigurationError):
            MultiPortArbiter(8, 0)


class TestValidation:
    def test_submit_shape_checked(self):
        arb = MultiPortArbiter(8, 2)
        with pytest.raises(ConfigurationError):
            arb.submit(np.zeros(4, dtype=bool))

    def test_submit_rows_range_checked(self):
        arb = MultiPortArbiter(8, 2)
        with pytest.raises(SimulationError):
            arb.submit_rows([8])
