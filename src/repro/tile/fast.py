"""Batched drain-schedule primitives for the fast inference engine.

The cycle-accurate simulator steps every arbiter once per clock until
``R_empty``.  Because the cascaded arbiter is a *fixed-priority* device,
that whole per-cycle process is deterministic given the pending vector:
row ``r`` is granted in cycle ``rank(r among pending) // ports``, a row
block with ``s`` pending spikes drains in ``ceil(s / ports)`` cycles,
and the tile reaches ``R_empty`` after the slowest row block.  Nothing
about the drain needs to be simulated cycle-by-cycle — it can be
*computed* with batched numpy over ``(B, n_in)`` spike matrices.

The fast engine gets both the schedule and the accumulation from one
float32 matmul per tile pass, against :func:`drain_matrix`'s
``[2W - 1 | block indicator]``: the indicator columns count each
block's pending spikes, and :meth:`DrainSchedule.from_pending` turns
the counts into grants and cycles.  :func:`drain_schedule` and
:func:`block_pending_counts` compute the same schedule straight from
the spikes; the tests hold the engine to them.

This module holds the pure-numpy primitives; the stateful engine that
replays the schedule into the tile statistics and energy ledgers lives
in :mod:`repro.tile.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.tile.mapping import ARRAY_DIM


@dataclass(frozen=True)
class DrainSchedule:
    """Closed-form drain of a batch of spike vectors through one tile.

    All quantities are exactly what the per-cycle reference
    (:meth:`repro.tile.tile.Tile.step` looped until ``R_empty``) would
    accumulate, proven by the equivalence test suite.
    """

    #: Pending spikes per image per row block, shape ``(B, row_blocks)``.
    pending_per_block: np.ndarray
    #: Total grants (= input spikes) per image, shape ``(B,)``.
    grants: np.ndarray
    #: Drain cycles per image (max over row blocks), shape ``(B,)``.
    cycles: np.ndarray
    #: Arbiter grant ports per row block.
    ports: int

    @classmethod
    def from_pending(cls, pending: np.ndarray, ports: int) -> "DrainSchedule":
        """The drain of integer ``(B, row_blocks)`` pending counts.

        A block with ``s`` pending spikes drains in ``ceil(s / ports)``
        cycles and the tile clocks until its fullest block empties;
        ceil is monotone, so that is ``ceil(max_blocks s / ports)``.
        """
        return cls(
            pending_per_block=pending,
            grants=pending.sum(axis=1),
            cycles=-(-pending.max(axis=1) // ports),
            ports=ports,
        )

    @property
    def batch(self) -> int:
        """Number of images scheduled (``B``)."""
        return int(self.grants.shape[0])

    @property
    def total_grants(self) -> int:
        """Grants summed over the whole batch (= total input spikes)."""
        return int(self.grants.sum())

    @property
    def total_cycles(self) -> int:
        """Drain cycles summed over the whole batch."""
        return int(self.cycles.sum())

    def grants_per_block(self) -> np.ndarray:
        """Batch-total grants per row block, shape ``(row_blocks,)``."""
        return self.pending_per_block.sum(axis=0)


def block_pending_counts(spikes: np.ndarray,
                         array_dim: int = ARRAY_DIM) -> np.ndarray:
    """Pending-request count per 128-row arbiter block.

    ``spikes`` is a boolean ``(B, n_in)`` matrix; returns int64
    ``(B, ceil(n_in / array_dim))``.
    """
    spikes = np.asarray(spikes)
    if spikes.ndim != 2:
        raise ConfigurationError("spike matrix must be 2-D (batch, n_in)")
    if array_dim < 1:
        raise ConfigurationError(f"array_dim must be >= 1, got {array_dim}")
    starts = np.arange(0, spikes.shape[1], array_dim)
    return np.add.reduceat(spikes.astype(np.int64), starts, axis=1)


def drain_schedule(spikes: np.ndarray, ports: int,
                   array_dim: int = ARRAY_DIM) -> DrainSchedule:
    """Schedule a batch of spike vectors through fixed-priority arbiters.

    Per image, every row block holding ``s`` pending spikes drains in
    ``ceil(s / ports)`` cycles; the tile keeps clocking until its
    slowest block empties (all arbiters step every cycle), so the drain
    lasts ``max_blocks ceil(s / ports)`` cycles and issues exactly one
    grant per pending spike.
    """
    if ports < 1:
        raise ConfigurationError(f"ports must be >= 1, got {ports}")
    return DrainSchedule.from_pending(
        block_pending_counts(spikes, array_dim), ports
    )


def grant_cycle_of_rows(block_spikes: np.ndarray,
                        ports: int) -> tuple[np.ndarray, np.ndarray]:
    """Grant cycle of every pending row in one arbiter block.

    Fixed-priority arbitration grants the leftmost ``ports`` pending
    rows each cycle, so row ``r`` wins in cycle
    ``rank(r among pending) // ports``.  Returns ``(rows, cycles)``
    in priority order — the exact per-cycle grant trace
    :meth:`MultiPortArbiter.drain` would produce, without clocking it.
    """
    if ports < 1:
        raise ConfigurationError(f"ports must be >= 1, got {ports}")
    block_spikes = np.asarray(block_spikes).astype(bool)
    if block_spikes.ndim != 1:
        raise ConfigurationError("block spike vector must be 1-D")
    rows = np.flatnonzero(block_spikes)
    return rows, np.arange(rows.size, dtype=np.int64) // ports


def drain_matrix(weights: np.ndarray,
                 array_dim: int = ARRAY_DIM) -> np.ndarray:
    """The matrix one tile pass multiplies its spikes by.

    For binary ``(n_in, n_out)`` weights this is the float32
    ``[2W - 1 | block indicator]`` of shape
    ``(n_in, n_out + ceil(n_in / array_dim))``: one single-precision
    BLAS matmul of a ``(B, n_in)`` spike batch by it gives every
    membrane's drained charge (the left columns) and every image's
    pending count per arbiter block (the right ones).  That is exact:
    every partial sum is an integer of magnitude at most the fan-in,
    and float32 holds every integer up to 2**24 exactly, whatever
    order BLAS adds in.
    """
    weights = np.asarray(weights)
    n_in, n_out = weights.shape
    rows = np.arange(n_in)
    matrix = np.zeros(
        (n_in, n_out + -(-n_in // array_dim)), dtype=np.float32
    )
    # int8 arithmetic and one widening copy: a third of the cost of
    # doing the same passes in float32.
    matrix[:, :n_out] = 2 * weights.astype(np.int8) - 1
    matrix[rows, n_out + rows // array_dim] = 1
    return matrix
