"""Bit-packed popcount engine: spikes and weights as uint64 words.

Spikes and weights are binary, so a drain only counts bits.  This
backend packs each ``(B, n_in)`` spike batch into ``ceil(n_in / 64)``
uint64 words per image (:func:`pack_spike_rows` via ``np.packbits``)
and packs each output neuron's weight column into the same word layout
(a *weight bitplane*).  One drain then reduces to popcounts::

    delta[b, j] = 2 * popcount(x[b] & plane[j]) - popcount(x[b])

because every overlapping spike/weight bit contributes +1 and every
spike over a 0-weight contributes -1.  The popcounts run 64 synapses
per word operation instead of one synapse per float multiply-add.

On top of the packing, the kernel memoizes per spike *pattern*: images
that share a packed row — duplicates inside a batch, recurring hidden-
layer fire patterns, repeated serving requests — reuse the memoized
drain schedule and accumulation delta instead of recomputing them.
The memo lives in the kernel, and the kernel is rebuilt whenever a
tile reports an in-place weight mutation (``Tile.weight_version``), so
stale planes or schedules cannot survive online learning or fault
injection.

Saturation is exact by the same argument as the fast engine: the
closed-form delta needs no clipping unless a batch row's membranes
could reach a 12-bit rail *mid*-drain, and those rows fall back to the
grant-ordered replay inherited from :class:`~repro.tile.engine.
_TileKernel`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.tile.engine import FastEngine, _TileKernel
from repro.tile.fast import block_pending_counts

#: Bits per packed word.
WORD_BITS = 64

#: Default cap on memoized spike patterns per tile kernel.  Beyond it
#: new patterns are computed but not stored, so a long-running server
#: cannot grow the memo without bound.  Results never depend on memo
#: state — only the time to produce them does.
DEFAULT_MEMO_LIMIT = 65536

#: Byte-wise popcount table, fallback for numpy builds without
#: ``np.bitwise_count`` (added in numpy 2.0).
_POPCOUNT_BYTE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (uint8 result).

    Uses ``np.bitwise_count`` when available, else a byte-LUT fallback,
    so the backend needs nothing beyond numpy itself.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    per_byte = _POPCOUNT_BYTE[words.view(np.uint8)]
    return per_byte.reshape(words.shape + (8,)).sum(
        axis=-1, dtype=np.uint8
    )


def packed_width(n_bits: int) -> int:
    """uint64 words needed to hold ``n_bits`` packed bits."""
    if n_bits < 1:
        raise ConfigurationError(f"n_bits must be >= 1, got {n_bits}")
    return -(-n_bits // WORD_BITS)


def pack_spike_rows(rows: np.ndarray) -> np.ndarray:
    """Pack binary ``(B, n)`` rows into ``(B, ceil(n / 64))`` uint64.

    Bit ``i`` of a row lands in word ``i // 64`` (big-endian within
    each byte, ``np.packbits`` order); trailing pad bits are zero, so
    popcounts over packed words never see phantom spikes.
    """
    rows = np.atleast_2d(np.asarray(rows))
    if rows.ndim != 2:
        raise ConfigurationError("spike rows must be 2-D (batch, n)")
    n_words = packed_width(rows.shape[1])
    as_bytes = np.packbits(rows.astype(bool), axis=1)
    pad = n_words * 8 - as_bytes.shape[1]
    if pad:
        as_bytes = np.pad(as_bytes, ((0, 0), (0, pad)))
    return np.ascontiguousarray(as_bytes).view(np.uint64)


def popcount_accumulate(packed_rows: np.ndarray,
                        packed_planes: np.ndarray) -> np.ndarray:
    """``counts[b, j] = popcount(rows[b] & planes[j])`` as int64.

    Word-at-a-time with a uint16 accumulator: each word contributes at
    most 64, so up to 1023 words (65472 bits) cannot overflow it, and
    the narrow dtype keeps the inner-loop memory traffic low.  Wider
    inputs silently widen the accumulator to int64.
    """
    rows = np.ascontiguousarray(packed_rows, dtype=np.uint64)
    planes = np.ascontiguousarray(packed_planes, dtype=np.uint64)
    if rows.ndim != 2 or planes.ndim != 2 or rows.shape[1] != planes.shape[1]:
        raise ConfigurationError(
            f"packed shapes {rows.shape} x {planes.shape} do not align"
        )
    n_rows, n_words = rows.shape
    n_planes = planes.shape[0]
    acc_dtype = (np.uint16 if n_words * WORD_BITS < (1 << 16)
                 else np.int64)
    acc = np.zeros((n_rows, n_planes), dtype=acc_dtype)
    masked = np.empty((n_rows, n_planes), dtype=np.uint64)
    counts = np.empty((n_rows, n_planes), dtype=np.uint8)
    for word in range(n_words):
        np.bitwise_and(rows[:, word, None], planes[None, :, word],
                       out=masked)
        if _HAVE_BITWISE_COUNT:
            np.bitwise_count(masked, out=counts)
        else:
            counts = popcount_words(masked)
        acc += counts
    return acc.astype(np.int64)


def bitpacked_delta(packed_rows: np.ndarray,
                    packed_planes: np.ndarray) -> np.ndarray:
    """Membrane deltas of one full drain, from packed operands only.

    Equals ``spikes @ (2W - 1)`` (the fast engine's matmul) exactly:
    ``2 * popcount(x & plane) - popcount(x)`` per (image, neuron).
    """
    overlap = popcount_accumulate(packed_rows, packed_planes)
    pending = popcount_words(packed_rows).sum(axis=1, dtype=np.int64)
    return 2 * overlap - pending[:, None]


class _BitpackedKernel(_TileKernel):
    """Per-tile popcount kernel with a spike-pattern memo.

    Keeps the dense ``signed`` matrix from the base class only for the
    rare mid-drain-saturation fallback rows; the hot path never touches
    it.
    """

    __slots__ = ("packed_planes", "n_words", "_memo", "memo_limit",
                 "memo_hits", "memo_misses")

    def __init__(self, tile, memo_limit: int = DEFAULT_MEMO_LIMIT) -> None:
        super().__init__(tile)
        # One bitplane per output neuron: column j of the weight
        # matrix, packed along the input dimension.
        self.packed_planes = pack_spike_rows(tile.weight_matrix().T)
        self.n_words = packed_width(tile.n_in)
        # packed-row bytes -> (delta (n_out,), pending_per_block).
        self._memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.memo_limit = memo_limit
        self.memo_hits = 0
        self.memo_misses = 0

    def _schedule_and_delta(
        self, spikes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-image block pending counts and accumulation deltas.

        Deduplicates the batch on packed spike patterns: each distinct
        pattern is scheduled and accumulated once (memoized across
        calls), then scattered back to every image that carries it.
        """
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("engine.pack",
                             batch=int(np.atleast_2d(spikes).shape[0])):
                packed = pack_spike_rows(spikes)
        else:
            packed = pack_spike_rows(spikes)
        batch = packed.shape[0]
        row_blocks = self.tile.mapping.row_blocks
        n_out = self.tile.n_out
        if batch == 0:
            return (np.zeros((0, row_blocks), dtype=np.int64),
                    np.zeros((0, n_out), dtype=np.int64))
        uniq, first, inverse = np.unique(
            packed, axis=0, return_index=True, return_inverse=True
        )
        deltas = np.empty((uniq.shape[0], n_out), dtype=np.int64)
        pendings = np.empty((uniq.shape[0], row_blocks), dtype=np.int64)
        misses = []
        for u, row in enumerate(uniq):
            hit = self._memo.get(row.tobytes())
            if hit is None:
                misses.append(u)
            else:
                deltas[u], pendings[u] = hit
        self.memo_hits += uniq.shape[0] - len(misses)
        self.memo_misses += len(misses)
        if misses:
            miss_idx = np.asarray(misses)
            deltas[miss_idx] = bitpacked_delta(
                uniq[miss_idx], self.packed_planes
            )
            # Block pending counts from the first image carrying each
            # missed pattern (identical rows by construction).
            pendings[miss_idx] = block_pending_counts(
                np.atleast_2d(spikes)[first[miss_idx]],
                self.tile.mapping.array_dim,
            )
            for u in misses:
                if len(self._memo) >= self.memo_limit:
                    break
                self._memo[uniq[u].tobytes()] = (
                    deltas[u].copy(), pendings[u].copy()
                )
        return pendings[inverse], deltas[inverse]


class BitpackedEngine(FastEngine):
    """uint64 popcount engine with memoized per-pattern drain schedules."""

    kernel_cls = _BitpackedKernel

    def memo_stats(self) -> dict:
        """Aggregate memo hit/miss/size counters across all tiles."""
        return {
            "hits": sum(k.memo_hits for k in self._kernels),
            "misses": sum(k.memo_misses for k in self._kernels),
            "patterns": sum(len(k._memo) for k in self._kernels),
        }

    def publish_memo_stats(self) -> dict:
        """Mirror :meth:`memo_stats` into the process metric registry.

        Gauges (not counters) because the kernels own the source of
        truth — the registry shows the latest snapshot, including the
        derived hit rate, and re-publishing after a kernel rebuild
        (weight-version bump) resets cleanly.
        """
        stats = self.memo_stats()
        registry = get_registry()
        registry.gauge("repro_bitpacked_memo_hits").set(stats["hits"])
        registry.gauge("repro_bitpacked_memo_misses").set(stats["misses"])
        registry.gauge("repro_bitpacked_memo_patterns").set(
            stats["patterns"]
        )
        lookups = stats["hits"] + stats["misses"]
        registry.gauge("repro_bitpacked_memo_hit_rate").set(
            stats["hits"] / lookups if lookups else 0.0
        )
        return stats

    def infer_batch(self, spikes: np.ndarray, trace=None) -> np.ndarray:
        out = super().infer_batch(spikes, trace)
        self.publish_memo_stats()
        return out
