"""Property-based tests of the fleet's worker choice (hypothesis).

:func:`~repro.serve.fleet.choose_worker` is a pure function of each
worker's ready / draining / removed state and its batches in flight.
Hypothesis sweeps fleets of 0..8 workers in every such state and
checks the whole rule:

* the pick is eligible — ready, not draining, not removed and holding
  fewer than :data:`~repro.serve.fleet.MAX_IN_FLIGHT` batches;
* it has the fewest batches in flight of all eligible workers, and
  the lowest id among those;
* it is ``None`` only when no worker is eligible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.fleet import MAX_IN_FLIGHT, choose_worker

pytestmark = pytest.mark.serve

#: ``(worker_id, ready, draining, removed, in_flight)`` rows with
#: unique, non-contiguous ids (as after removals), in any order.
fleets = st.lists(
    st.tuples(st.integers(0, 15), st.booleans(), st.booleans(),
              st.booleans(), st.integers(0, MAX_IN_FLIGHT)),
    max_size=8, unique_by=lambda row: row[0],
)


def _eligible(row) -> bool:
    _, ready, draining, removed, in_flight = row
    return ready and not draining and not removed \
        and in_flight < MAX_IN_FLIGHT


@given(workers=fleets)
@settings(max_examples=300, deadline=None)
def test_pick_is_the_least_loaded_eligible_worker(workers):
    picked = choose_worker(iter(workers))
    eligible = [row for row in workers if _eligible(row)]
    if not eligible:
        assert picked is None
        return
    rows = {row[0]: row for row in workers}
    assert picked in rows
    assert _eligible(rows[picked])
    fewest = min(row[4] for row in eligible)
    assert rows[picked][4] == fewest
    assert picked == min(row[0] for row in eligible if row[4] == fewest)
