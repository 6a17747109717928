"""Cascaded-tile ESAM network: the spike-by-spike system simulator.

Tiles are cascaded directly (paper Figure 2): output spike requests of
tile ``k`` become input requests of tile ``k+1``, transmitted in
parallel as binary pulses with no routing fabric.  The classification
readout takes the output tile's membrane potentials (the class with the
highest potential wins; per-class bias offsets from the BNN are added
digitally).

Timing model (section 4.4): tiles are pipelined — while tile ``k+1``
drains the spikes of image ``i``, tile ``k`` is already arbitrating
image ``i+1``.  Sustained throughput is therefore set by the slowest
tile; single-image latency by the sum of tile drain times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.binary import is_binary
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.sram.bitcell import CellType
from repro.sram.electrical import TransposedPortModel
from repro.sram.readport import ReadPortModel
from repro.tile.backends import backend_factory
from repro.tile.mapping import ARRAY_DIM
from repro.tile.pipeline import PipelineModel
from repro.tile.tile import Tile, TileInferenceStats


def validate_engine(engine: str) -> None:
    """Raise :class:`ConfigurationError` unless ``engine`` is a backend.

    Delegates to the engine-backend table
    (:func:`repro.tile.backends.backend_factory`), so the error message
    always lists every backend.  Call this at API boundaries
    (evaluators, sweep specs, CLIs) so a typo like ``engine="fats"``
    fails immediately instead of deep inside the inference call stack.
    """
    backend_factory(engine)


def validate_spikes(spikes: np.ndarray, n_in: int, *,
                    batch: bool = False) -> np.ndarray:
    """Validate a binary spike input at an inference API boundary.

    Spikes must be boolean, or numeric containing only 0 and 1 (the
    encoders emit uint8); anything else — analog values, NaNs, the
    wrong trailing dimension — previously fell through to numpy
    broadcasting or ``astype(bool)`` truthiness and produced silently
    wrong hardware activity.  Returns the input coerced to a bool
    array: shape ``(n_in,)`` for a single request, ``(B, n_in)`` when
    ``batch=True`` (a single vector is promoted to a 1-row batch).

    A single row comes back as a read-only private copy, so a caller
    may refill its buffer as soon as this returns.  A row of one-byte
    dtype (bool, uint8, int8) is checked and copied with ``bytes``
    methods, which keep the interpreter lock where numpy's loops
    release it: admitting a request never hands the lock to a serving
    thread.  Wider dtypes and batches take
    :func:`~repro.binary.is_binary`, which accepts and rejects the
    same values.
    """
    arr = np.asarray(spikes)
    expected = f"({n_in},) or (B, {n_in})" if batch else f"({n_in},)"
    if batch:
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != n_in:
            raise ConfigurationError(
                f"spike batch shape {np.asarray(spikes).shape} is not "
                f"{expected}"
            )
    elif arr.shape != (n_in,):
        raise ConfigurationError(
            f"spike vector shape {arr.shape} is not {expected}"
        )
    kind = arr.dtype.kind
    if not batch and arr.itemsize == 1 and kind in "biu":
        row = arr.tobytes()
        # Deleting the 0 and 1 bytes leaves nothing of a binary row.
        if kind == "b" or not row.translate(None, b"\0\1"):
            return np.frombuffer(row, np.bool_)
    elif kind == "b":
        return arr
    elif is_binary(arr):
        arr = arr.astype(bool)
        if not batch:
            arr.flags.writeable = False
        return arr
    raise ConfigurationError(
        "spikes must be boolean or contain only 0/1 values "
        f"(expected bool/uint8 of shape {expected}, got dtype "
        f"{arr.dtype})"
    )


@dataclass
class InferenceTrace:
    """The counts of the static inferences traced through a network.

    ``counts`` holds one :class:`~repro.tile.tile.TileInferenceStats`
    per tile: the sum of each tile record's increase over the traced
    batches only, whatever the network served before or between them.
    :class:`~repro.system.energy.SystemEnergyModel` prices these
    counts.
    """

    images: int = 0
    counts: list[TileInferenceStats] = field(default_factory=list)

    @property
    def per_tile_cycles(self) -> list[int]:
        """Cycles per tile, drain and fire, over the traced batches."""
        return [c.total_cycles for c in self.counts]

    @property
    def total_spikes(self) -> int:
        return sum(c.input_spikes for c in self.counts)

    @property
    def total_grants(self) -> int:
        return sum(c.grants for c in self.counts)

    @property
    def total_array_reads(self) -> int:
        return sum(c.array_reads for c in self.counts)

    @property
    def bottleneck_cycles(self) -> int:
        """Pipelined steady-state cycles per inference (slowest tile)."""
        if not self.per_tile_cycles:
            return 0
        return max(self.per_tile_cycles)

    @property
    def latency_cycles(self) -> int:
        """Single-image latency in cycles (sum of all tiles)."""
        return sum(self.per_tile_cycles)

    @staticmethod
    def mark(tiles) -> list[TileInferenceStats]:
        """Copies of the tiles' records, taken before a batch."""
        return [tile.stats.copy() for tile in tiles]

    def record(self, tiles, images: int,
               marks: list[TileInferenceStats]) -> None:
        """Add a completed batch of ``images`` inferences over ``tiles``:
        each record's increase since its :meth:`mark`.

        Shared by every engine, so all update the trace with the exact
        same arithmetic.
        """
        self.images += images
        batch = [tile.stats - mark for tile, mark in zip(tiles, marks)]
        if images:
            # The batch ended with the output tile's readout, which
            # clears that tile's neuron counts (Tile.read_out): the
            # batch's share of them is what the readout left.
            output = tiles[-1].stats
            batch[-1].accumulate_events = output.accumulate_events
            batch[-1].fire_checks = output.fire_checks
        if self.counts:
            batch = [a + b for a, b in zip(self.counts, batch)]
        self.counts = batch


class EsamNetwork:
    """A stack of Tiles forming a fully-connected binary SNN."""

    def __init__(self, weights: list[np.ndarray], thresholds: list[np.ndarray],
                 output_bias: np.ndarray | None = None,
                 config: HardwareConfig | None = None) -> None:
        if not weights:
            raise ConfigurationError("at least one layer is required")
        if len(weights) != len(thresholds):
            raise ConfigurationError(
                f"{len(weights)} weight matrices but {len(thresholds)} "
                "threshold vectors"
            )
        for k in range(len(weights) - 1):
            if weights[k].shape[1] != weights[k + 1].shape[0]:
                raise ConfigurationError(
                    f"layer {k} output width {weights[k].shape[1]} != "
                    f"layer {k + 1} input width {weights[k + 1].shape[0]}"
                )
        config = config or HardwareConfig()
        # The descriptor records the topology actually instantiated.
        actual_sizes = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
        if config.layer_sizes != actual_sizes:
            config = config.replace(layer_sizes=actual_sizes)
        self.config = config
        self._corner = config.corner_spec
        node = config.technology
        # Shared electrical models across every macro in the system.
        self._read_port_model = ReadPortModel(ARRAY_DIM, ARRAY_DIM, node)
        self._transposed_model = TransposedPortModel(ARRAY_DIM, ARRAY_DIM, node)
        self.pipeline = PipelineModel(ARRAY_DIM, ARRAY_DIM, self._read_port_model)
        self.tiles = [
            Tile(
                w, t, config=config,
                read_port_model=self._read_port_model,
                transposed_model=self._transposed_model,
                name=f"tile{k}",
            )
            for k, (w, t) in enumerate(zip(weights, thresholds))
        ]
        if output_bias is not None:
            output_bias = np.asarray(output_bias, dtype=np.float64)
            if output_bias.shape != (self.tiles[-1].n_out,):
                raise ConfigurationError(
                    f"output bias shape {output_bias.shape} != "
                    f"({self.tiles[-1].n_out},)"
                )
        self.output_bias = output_bias
        # Per-backend engine cache: name -> (engine, weight versions).
        self._engines: dict[str, tuple[object, tuple[int, ...]]] = {}

    # -- structure ------------------------------------------------------------------

    @property
    def cell_type(self) -> CellType:
        return self.config.cell_type

    @property
    def vprech(self) -> float:
        return self.config.vprech

    @property
    def layer_sizes(self) -> list[int]:
        return [self.tiles[0].n_in] + [t.n_out for t in self.tiles]

    @property
    def neuron_count(self) -> int:
        """Neurons instantiated in hardware (post-synaptic only)."""
        return sum(t.n_out for t in self.tiles)

    @property
    def synapse_count(self) -> int:
        """Logical synapses (weight-matrix entries)."""
        return sum(t.n_in * t.n_out for t in self.tiles)

    @property
    def clock_period_ns(self) -> float:
        """Effective clock period at this config's node and corner.

        Derived from the pipeline model unless the config pins an
        explicit override; the corner's delay derate (1.0 at typical,
        so nominal results are bit-identical to the corner-unaware
        model) applies on top either way.
        """
        if self.config.clock_period_ns is not None:
            base = self.config.clock_period_ns
        else:
            base = self.pipeline.clock_period_ns(self.cell_type)
        return base * self._corner.delay_factor

    @property
    def cycle_stretch(self) -> int:
        """Clock cycles consumed per access cycle.

        When the precharge cannot complete within its pipeline window
        (low Vprech on 3-4-port cells — Figure 7), every access stalls
        for one extra clock, halving the effective spike rate.
        """
        point = self._read_port_model.operating_point(self.cell_type, self.vprech)
        return 2 if point.extended_precharge else 1

    # -- inference --------------------------------------------------------------------

    def infer(self, spikes: np.ndarray, trace: InferenceTrace | None = None,
              ) -> np.ndarray:
        """Run one input spike vector through every tile.

        Returns the output-layer membrane potentials (plus the digital
        per-class bias if configured).  Appends per-tile cycle counts to
        ``trace`` when given.
        """
        spikes = validate_spikes(spikes, self.tiles[0].n_in)
        marks = None if trace is None else trace.mark(self.tiles)
        x = spikes
        for tile in self.tiles[:-1]:
            x = tile.run_inference(x)
        vmem = self.tiles[-1].run_inference(x, readout=True).astype(np.float64)
        if self.output_bias is not None:
            vmem = vmem + self.output_bias
        if trace is not None:
            trace.record(self.tiles, 1, marks)
        return vmem

    def classify(self, spikes: np.ndarray, trace: InferenceTrace | None = None) -> int:
        """Predicted class: arg-max over output membrane potentials."""
        return int(np.argmax(self.infer(spikes, trace)))

    # -- batched inference (engine backends) ------------------------------------------

    def engine_backend(self, engine: str = "fast",
                       refresh: bool = False):
        """The (cached) engine instance of a backend.

        Engines that snapshot state at construction (weight matrices,
        packed bitplanes, memoized schedules) rebuild automatically
        when a tile reports an in-place weight mutation
        (``Tile.note_weight_update``, bumped by the online-learning and
        fault-injection paths).  Pass ``refresh=True`` after mutating
        weights through any path that bypasses the tile (e.g. poking
        ``macro.load_weights`` directly).
        """
        validate_engine(engine)
        versions = tuple(t.weight_version for t in self.tiles)
        cached = self._engines.get(engine)
        if refresh or cached is None or cached[1] != versions:
            cached = (backend_factory(engine)(self), versions)
            self._engines[engine] = cached
        return cached[0]

    def infer_batch(self, spikes: np.ndarray,
                    trace: InferenceTrace | None = None,
                    engine: str = "fast") -> np.ndarray:
        """Run a ``(B, n_in)`` spike batch through every tile.

        Returns output membrane readouts ``(B, n_classes)``.
        ``engine`` selects any backend (see
        :func:`~repro.tile.backends.backend_names`); every backend
        produces identical results, traces and count records (asserted
        per backend by the conformance suite,
        ``tests/test_backend_conformance.py``).
        """
        spikes = validate_spikes(spikes, self.tiles[0].n_in, batch=True)
        return self.engine_backend(engine).infer_batch(spikes, trace)

    def classify_batch(self, spikes: np.ndarray,
                       trace: InferenceTrace | None = None,
                       engine: str = "fast") -> np.ndarray:
        """Predicted class per batch row."""
        return np.argmax(self.infer_batch(spikes, trace, engine), axis=1)

    def run_temporal(self, spike_trains: np.ndarray, engine: str = "fast"):
        """Multi-timestep operation with persistent membranes.

        ``spike_trains`` is a binary ``(T, n_in)`` array, validated like
        a batch (:func:`validate_spikes`).  Every timestep each
        tile drains its spikes and fires with fired-only membrane reset
        (IF dynamics); output-layer spikes are counted for the rate
        readout.  Semantically identical to
        :class:`repro.snn.temporal.TemporalBinarySNN` (asserted by the
        test suite), but executed on the cycle-accurate hardware.
        ``engine`` selects any backend; all backends leave
        identical count records and membrane state, so engines are
        interchangeable mid-run in any direction.
        """
        spike_trains = validate_spikes(
            spike_trains, self.tiles[0].n_in, batch=True
        )
        return self.engine_backend(engine).run_temporal(spike_trains)

    # -- cost roll-ups -------------------------------------------------------------------

    def dynamic_energy_pj(self) -> float:
        """All dynamic energy so far: every tile's inference count
        record and learning column updates, priced."""
        return sum(t.dynamic_energy_pj() for t in self.tiles)

    def leakage_power_mw(self) -> float:
        """Macro leakage, scaled by the corner's Vt-shift factor (1.0
        at the typical corner)."""
        typical = sum(t.leakage_power_mw() for t in self.tiles)
        return typical * self._corner.leakage_factor

    def area_um2(self) -> float:
        return sum(t.area_um2() for t in self.tiles)

    def reset_stats(self) -> None:
        for tile in self.tiles:
            tile.reset_stats()

    def __repr__(self) -> str:
        sizes = ":".join(str(s) for s in self.layer_sizes)
        return f"EsamNetwork({sizes}, {self.cell_type.value})"
