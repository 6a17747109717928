"""Schedule-based batched inference engine.

The cycle-accurate path (:class:`~repro.tile.tile.Tile` stepped by
:class:`~repro.tile.network.EsamNetwork`) is the bit-true reference,
but its per-cycle Python loop makes large system sweeps impractical.
Fixed-priority arbitration is deterministic, so the whole drain of an
input spike vector can be *computed* instead of clocked
(:mod:`repro.tile.fast`).  Each tile pass is one float32 matmul of the
spikes against ``[2W - 1 | block indicator]``, a matrix built once per
engine: the left columns give every membrane's drained charge, the
last ``row_blocks`` columns every image's pending count per arbiter
block, from which the drain schedule follows.

:class:`FastEngine` runs that closed form over ``(B, n_in)`` batches
and adds each batch's counts into the tile's one integer record,
:class:`~repro.tile.tile.TileInferenceStats`, which the per-cycle path
fills step by step.  Every energy is derived from those counts, so
every downstream consumer (:class:`InferenceTrace`,
:class:`~repro.system.energy.SystemEnergyModel`, ``HardwareReport``)
sees numbers *identical*, to the last bit, to a sequential
cycle-accurate run, however the rows are batched.  The equivalence
test suite asserts this across cell types, Vprech regimes and temporal
mode.

Saturation is handled exactly without clipping: a membrane that
starts at ``v`` and takes ``g`` grants stays within
``[v - g, v + g]`` for the whole drain, so rows whose start plus
grants stays inside the 12-bit rails never saturate, and their matmul
result is the per-cycle result.  The remaining rows are replayed in
grant order with per-step clipping, so equivalence holds
unconditionally.  A static batch starts from zero membranes (unless a
temporal run left residue for its first image), so that check is one
comparison of the batch's largest grant count with the rails.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.trace import get_tracer
from repro.tile.fast import DrainSchedule, drain_matrix, grant_cycle_of_rows


class _TileKernel:
    """Precomputed batched view of one tile (weights, limits, shape).

    Subclass hook for alternative backends
    (:mod:`repro.tile.backends`): override :meth:`_schedule_and_delta`
    to compute the pending counts and the drained charge with different
    arithmetic — the schedule, the rail check and the engine's count
    replay are shared by every backend.
    """

    __slots__ = ("tile", "matrix", "signed", "thresholds", "vmem_min",
                 "vmem_max")

    def __init__(self, tile) -> None:
        self.tile = tile
        self.matrix = drain_matrix(
            tile.weight_matrix(), tile.mapping.array_dim
        )
        self.signed = self.matrix[:, :tile.n_out]
        # Membranes are integers inside the 12-bit rails, and float32
        # rounds an integer threshold only beyond 2**24, so comparing
        # in float32 fires exactly the neurons the int64 compare would.
        self.thresholds = np.concatenate(
            [n.thresholds for n in tile.neurons]
        ).astype(np.float32)
        reference = tile.neurons[0]
        self.vmem_min = reference._vmem_min
        self.vmem_max = reference._vmem_max

    def process(self, start: np.ndarray | None,
                spikes: np.ndarray) -> tuple[DrainSchedule, np.ndarray]:
        """One tile pass: the drain schedule and the drained membranes.

        ``start`` holds the ``(B, n_out)`` membranes the drain begins
        from, or is ``None`` when they are all zero.  This kernel
        returns float32 membranes, exact for every value inside the
        rails.
        """
        pending, out = self._schedule_and_delta(spikes)
        schedule = DrainSchedule.from_pending(pending, self.tile.ports)
        if start is not None:
            out += start
        return schedule, self._recompute_saturating_rows(
            start, out, spikes, schedule.grants
        )

    def _schedule_and_delta(
        self, spikes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-image block pending counts and drained charge: one matmul."""
        n_out = self.tile.n_out
        product = spikes.astype(np.float32) @ self.matrix
        return product[:, n_out:].astype(np.int64), product[:, :n_out]

    def _recompute_saturating_rows(self, start: np.ndarray | None,
                                   out: np.ndarray, spikes: np.ndarray,
                                   grants: np.ndarray) -> np.ndarray:
        """Make the unclipped one-shot drain ``out`` exact, in place.

        The one-shot sum equals the per-cycle reference unless a
        membrane could reach a register rail during the drain: its start
        magnitude plus the image's ``grants`` lies beyond the rail.
        Those rare rows are recomputed in grant order with
        per-accumulate clipping.  With a zero ``start`` (``None``) only
        the batch's largest grant count needs checking.
        """
        if start is None:
            reach = min(self.vmem_max, -self.vmem_min)
            if grants.max(initial=0) <= reach:
                return out
            start = np.zeros(out.shape, dtype=np.int64)
        needs_exact = np.flatnonzero(
            (start.max(axis=1, initial=0) + grants > self.vmem_max)
            | (start.min(axis=1, initial=0) - grants < self.vmem_min)
        )
        for b in needs_exact:
            out[b] = self._accumulate_in_grant_order(start[b], spikes[b])
        return out

    def _accumulate_in_grant_order(self, vmem_row: np.ndarray,
                                   spike_row: np.ndarray) -> np.ndarray:
        """Reference-ordered accumulation with per-step clipping.

        Replays the drain exactly as ``Tile.step`` applies it: cycle by
        cycle, row block by row block, clipping the registers after
        each block's contribution.  Only used when the closed form
        could saturate mid-drain.
        """
        tile = self.tile
        dim = tile.mapping.array_dim
        blocks = []
        for rb in range(tile.mapping.row_blocks):
            lo = rb * dim
            rows, cycles = grant_cycle_of_rows(
                spike_row[lo: min(lo + dim, tile.n_in)], tile.ports
            )
            blocks.append((rows + lo, cycles))
        n_cycles = max(
            (int(c[-1]) + 1 for _, c in blocks if c.size), default=0
        )
        vmem = vmem_row.astype(np.int64).copy()
        for cycle in range(n_cycles):
            for rows, cycles in blocks:
                granted = rows[cycles == cycle]
                if granted.size:
                    delta = self.signed[granted].sum(axis=0).astype(np.int64)
                    vmem = np.clip(vmem + delta, self.vmem_min, self.vmem_max)
        return vmem


class FastEngine:
    """Schedule-based batched engine: one float32 matmul per tile pass.

    The constructor snapshots the weight matrices out of the SRAM
    macros; if weights are later mutated in place (online learning),
    build a fresh engine (``EsamNetwork.engine_backend(...,
    refresh=True)`` — the network does this automatically when a tile
    reports a weight-version bump).

    Subclasses swap the per-tile arithmetic by overriding
    :attr:`kernel_cls` (see :class:`~repro.tile.backends.bitpacked.
    BitpackedEngine`); the batch orchestration, count replay and
    temporal loop are shared.

    The engine keeps what it reads, the network's tiles and output
    bias, not the network: the network caches its engines, so a
    reference back would make every network that ran a batch a cycle
    that only the cyclic garbage collector frees.
    """

    #: Per-tile kernel class; subclass hook for alternative backends.
    kernel_cls: type = _TileKernel

    def __init__(self, network) -> None:
        self.tiles = network.tiles
        self.output_bias = network.output_bias
        self._kernels = [self.kernel_cls(tile) for tile in network.tiles]

    # -- bookkeeping ---------------------------------------------------------

    def _process_and_replay(self, index: int, kernel: _TileKernel,
                            start: np.ndarray | None, x: np.ndarray,
                            tracer) -> np.ndarray:
        """One tile pass plus count replay, per-stage traced when on.

        The disabled path pays exactly one ``tracer.enabled`` check per
        tile — the serving benchmark's overhead gate measures this.
        """
        if tracer.enabled:
            with tracer.span("engine.kernel", tile=index,
                             batch=int(x.shape[0])):
                schedule, vmem = kernel.process(start, x)
            with tracer.span("engine.replay", tile=index):
                self._replay(kernel, schedule)
        else:
            schedule, vmem = kernel.process(start, x)
            self._replay(kernel, schedule)
        return vmem

    @staticmethod
    def _replay(kernel: _TileKernel, schedule: DrainSchedule) -> None:
        """Add a computed drain schedule to the tile's count record.

        Mirrors ``Tile.submit_spikes`` plus the ``step()``-until-
        ``R_empty`` loop: each granted row is read once per column
        block and raises one validity flag at every neuron segment.
        """
        tile = kernel.tile
        stats = tile.stats
        grants = schedule.total_grants
        stats.input_spikes += grants
        stats.grants += grants
        stats.array_reads += grants * tile.mapping.col_blocks
        stats.accumulate_events += grants
        stats.cycles += schedule.total_cycles
        stats.block_grants += schedule.grants_per_block()

    # -- time-static inference ------------------------------------------------

    @staticmethod
    def _starting_vmem(tile, batch: int) -> np.ndarray | None:
        """Membranes at the start of a static batch (``None``: all zero).

        The hardware accumulates on top of whatever charge the neurons
        hold (e.g. residue of a preceding temporal run); only the first
        batch image sees it — every fire resets all membranes after.
        """
        if not batch:
            return None
        residual = tile.membrane_potentials()
        if not residual.any():
            return None
        start = np.zeros((batch, tile.n_out), dtype=np.int64)
        start[0] = residual
        return start

    def infer_batch(self, spikes: np.ndarray, trace=None) -> np.ndarray:
        """Run a validated 0/1 ``(B, n_in)`` spike batch through every tile.

        Returns the output-layer membrane readout ``(B, n_classes)``
        (plus the digital bias) and updates ``trace`` and every tile's
        count record exactly as ``B`` sequential ``infer`` calls would.
        An empty batch leaves every record and membrane as it was.
        """
        x = np.atleast_2d(np.asarray(spikes))
        tiles = self.tiles
        if x.shape[1] != tiles[0].n_in:
            raise ConfigurationError(
                f"spike width {x.shape[1]} != {tiles[0].n_in}"
            )
        batch = x.shape[0]
        marks = None if trace is None else trace.mark(tiles)
        tracer = get_tracer()
        for k, kernel in enumerate(self._kernels[:-1]):
            tile = kernel.tile
            vmem = self._process_and_replay(
                k, kernel, self._starting_vmem(tile, batch), x, tracer
            )
            fired = vmem >= kernel.thresholds
            tile.stats.fire_cycles += batch
            tile.stats.fire_checks += batch
            tile.stats.output_spikes += int(np.count_nonzero(fired))
            if batch:
                # fire_check(reset_all=True) clears every membrane.
                for neurons in tile.neurons:
                    neurons.vmem[:] = 0
            x = fired
        kernel = self._kernels[-1]
        vmem = self._process_and_replay(
            len(self._kernels) - 1, kernel,
            self._starting_vmem(kernel.tile, batch), x, tracer,
        )
        # Only the readout's counts and reset: the membranes are vmem.
        kernel.tile.read_out(batch)
        scores = vmem.astype(np.float64)
        if self.output_bias is not None:
            scores = scores + self.output_bias
        if trace is not None:
            trace.record(tiles, batch, marks)
        return scores

    def classify_batch(self, spikes: np.ndarray, trace=None) -> np.ndarray:
        """Predicted class per batch row (arg-max readout)."""
        return np.argmax(self.infer_batch(spikes, trace), axis=1)

    # -- temporal mode ---------------------------------------------------------

    def run_temporal(self, spike_trains: np.ndarray):
        """Multi-timestep run with persistent membranes.

        Matches :meth:`EsamNetwork.run_temporal` exactly: membranes are
        seeded from the neuron arrays, each tile drains and fires with
        fired-only reset per timestep, and the final membranes are
        written back — so the engines are interchangeable mid-run in
        either direction.
        """
        from repro.snn.temporal import TemporalResult

        trains = np.atleast_2d(np.asarray(spike_trains)).astype(bool)
        tiles = self.tiles
        timesteps = trains.shape[0]
        n_out = tiles[-1].n_out
        out_counts = np.zeros(n_out, dtype=np.int64)
        hidden_totals = np.zeros(timesteps, dtype=np.int64)
        vmem = [t.membrane_potentials()[None, :].copy() for t in tiles]
        tracer = get_tracer()
        for t in range(timesteps):
            x = trains[t][None, :]
            for k, kernel in enumerate(self._kernels):
                tile = kernel.tile
                vmem[k] = self._process_and_replay(
                    k, kernel, vmem[k], x, tracer
                )
                fired = vmem[k] >= kernel.thresholds
                vmem[k][fired] = 0
                tile.stats.fire_cycles += 1
                tile.stats.fire_checks += 1
                tile.stats.output_spikes += int(fired.sum())
                x = fired
                if k < len(tiles) - 1:
                    hidden_totals[t] += int(fired.sum())
            out_counts += x[0].astype(np.int64)
        for k, tile in enumerate(tiles):
            for cb, neurons in enumerate(tile.neurons):
                neurons.vmem[:] = vmem[k][0, tile.mapping.col_slice(cb)]
        final = vmem[-1][0].astype(np.float64)
        if self.output_bias is not None:
            final = final + self.output_bias
        return TemporalResult(
            spike_counts=out_counts[None, :],
            final_vmem=final[None, :],
            hidden_spike_totals=hidden_totals,
        )
