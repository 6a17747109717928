"""Property-based tests of the bit-packed popcount kernel (hypothesis).

The bitpacked backend's correctness rests on two pure-function claims:
packing is lossless (``np.unpackbits`` of the packed words gives back
any binary batch), and popcount accumulation over packed words equals
the dense signed matmul ``spikes @ (2W - 1)`` exactly — for
*arbitrary* widths, including ragged ones not divisible by 64 (where
trailing pad bits must never leak phantom spikes).  Hypothesis sweeps
the shape space the example-based suites cannot.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tile.backends.bitpacked import (
    WORD_BITS,
    bitpacked_delta,
    pack_spike_rows,
    packed_width,
    popcount_accumulate,
    popcount_words,
)

#: Widths straddling word boundaries: 1, 63..66, 127..129, and a
#: three-word ragged tail.
RAGGED_WIDTHS = st.sampled_from(
    [1, 7, 63, 64, 65, 66, 127, 128, 129, 150, 191, 192, 193]
)


def binary_batch(draw, widths=RAGGED_WIDTHS, max_rows: int = 6):
    n = draw(widths)
    rows = draw(st.integers(1, max_rows))
    bits = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=rows, max_size=rows,
        )
    )
    return np.array(bits, dtype=bool)


@st.composite
def batches(draw):
    return binary_batch(draw)


@st.composite
def batch_and_planes(draw):
    """A spike batch plus a binary weight matrix sharing its width."""
    spikes = binary_batch(draw, max_rows=4)
    n_out = draw(st.integers(1, 5))
    weights = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n_out, max_size=n_out),
            min_size=spikes.shape[1], max_size=spikes.shape[1],
        )
    )
    return spikes, np.array(weights, dtype=np.uint8)


class TestPackingRoundTrip:
    @given(batches())
    @settings(max_examples=80, deadline=None)
    def test_pack_unpack_is_identity(self, spikes):
        packed = pack_spike_rows(spikes)
        assert packed.dtype == np.uint64
        assert packed.shape == (
            spikes.shape[0], packed_width(spikes.shape[1])
        )
        bits = np.unpackbits(packed.view(np.uint8), axis=1)
        assert np.array_equal(bits[:, :spikes.shape[1]], spikes)

    @given(batches())
    @settings(max_examples=80, deadline=None)
    def test_packed_popcount_equals_row_sum(self, spikes):
        """Pad bits contribute nothing: popcount == number of spikes."""
        packed = pack_spike_rows(spikes)
        counts = popcount_words(packed).sum(axis=1, dtype=np.int64)
        assert np.array_equal(counts, spikes.sum(axis=1))

    @given(st.integers(1, 4 * WORD_BITS + 3))
    @settings(max_examples=40, deadline=None)
    def test_packed_width_is_word_ceiling(self, n_bits):
        width = packed_width(n_bits)
        assert (width - 1) * WORD_BITS < n_bits <= width * WORD_BITS


class TestPopcountAccumulate:
    @given(batch_and_planes())
    @settings(max_examples=80, deadline=None)
    def test_overlap_equals_dense_and(self, data):
        spikes, weights = data
        packed = pack_spike_rows(spikes)
        planes = pack_spike_rows(weights.T)
        overlap = popcount_accumulate(packed, planes)
        dense = spikes.astype(np.int64) @ weights.astype(np.int64)
        assert np.array_equal(overlap, dense)

    @given(batch_and_planes())
    @settings(max_examples=80, deadline=None)
    def test_delta_equals_signed_matmul(self, data):
        """The drain delta matches the fast engine's ``x @ (2W - 1)``
        for arbitrary binary batches and ragged widths."""
        spikes, weights = data
        packed = pack_spike_rows(spikes)
        planes = pack_spike_rows(weights.T)
        delta = bitpacked_delta(packed, planes)
        signed = 2 * weights.astype(np.int64) - 1
        assert np.array_equal(delta, spikes.astype(np.int64) @ signed)
