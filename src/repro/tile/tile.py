"""Cycle-accurate CIM-P tile (paper Figure 2).

A Tile holds one fully-connected layer:

* one :class:`~repro.arbiter.cascaded.MultiPortArbiter` per 128-row
  block of inputs;
* a grid of :class:`~repro.sram.macro.SramMacro` arrays (row blocks x
  column blocks) storing the binary weights;
* one :class:`~repro.neuron.array.NeuronArray` segment per column block
  (a neuron's synapses span every row block, so per cycle a neuron can
  receive up to ``row_blocks x p`` valid contributions).

Each simulated clock cycle: every arbiter grants up to ``p`` pending
spikes; the granted wordlines are read in all of that row block's
column arrays; the sensed bits (with validity flags) are accumulated by
the neurons.  When every arbiter reports ``R_empty``, the neurons run
their threshold comparison and raise output spike requests (one extra
cycle).

A tile counts its inference activity in one integer record,
:class:`TileInferenceStats`; every engine adds into it, and the read,
neuron and arbiter energies are derived from it (paper section 4.1:
activity counts times per-access energies).  Only learning, through
the macros' transposed ports, keeps a ledger of its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.arbiter.analysis import arbiter_energy_per_cycle_pj
from repro.arbiter.cascaded import MultiPortArbiter
from repro.binary import is_binary
from repro.errors import ConfigurationError, SimulationError
from repro.hw.config import HardwareConfig
from repro.neuron.array import NeuronArray
from repro.sram.macro import SramMacro
from repro.sram.readport import ReadPortModel
from repro.sram.electrical import TransposedPortModel
from repro.tile.mapping import ARRAY_DIM, LayerMapping


@dataclass(eq=False)
class TileInferenceStats:
    """The inference counts of one tile: the one record engines add into.

    ``block_grants[rb]`` counts the grants of row block ``rb``'s
    arbiter, which are also the row reads of every macro in that block
    row.  ``accumulate_events`` and ``fire_checks`` are the neuron
    segments' counts (every segment sees the same ones); a static
    readout clears them (:meth:`Tile.read_out`).  Every other field
    only grows until :meth:`Tile.reset_stats`.
    """

    block_grants: np.ndarray
    cycles: int = 0
    fire_cycles: int = 0
    input_spikes: int = 0
    grants: int = 0
    array_reads: int = 0
    output_spikes: int = 0
    accumulate_events: int = 0
    fire_checks: int = 0

    @classmethod
    def zeros(cls, row_blocks: int) -> "TileInferenceStats":
        return cls(np.zeros(row_blocks, dtype=np.int64))

    @property
    def total_cycles(self) -> int:
        return self.cycles + self.fire_cycles

    def copy(self) -> "TileInferenceStats":
        return replace(self, block_grants=self.block_grants.copy())

    def _combine(self, other: "TileInferenceStats",
                 op) -> "TileInferenceStats":
        return TileInferenceStats(
            *(op(getattr(self, f), getattr(other, f)) for f in _FIELDS)
        )

    def __add__(self, other: "TileInferenceStats") -> "TileInferenceStats":
        return self._combine(other, operator.add)

    def __sub__(self, other: "TileInferenceStats") -> "TileInferenceStats":
        return self._combine(other, operator.sub)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TileInferenceStats):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in _FIELDS
        )


_FIELDS = tuple(f.name for f in fields(TileInferenceStats))


class Tile:
    """One layer of the ESAM system, simulated spike-by-spike."""

    def __init__(self, weights: np.ndarray, thresholds: np.ndarray,
                 config: HardwareConfig | None = None,
                 read_port_model: ReadPortModel | None = None,
                 transposed_model: TransposedPortModel | None = None,
                 name: str = "tile") -> None:
        weights = np.asarray(weights)
        thresholds = np.asarray(thresholds)
        if weights.ndim != 2:
            raise ConfigurationError("weights must be a 2-D matrix")
        if thresholds.shape != (weights.shape[1],):
            raise ConfigurationError(
                f"thresholds shape {thresholds.shape} != ({weights.shape[1]},)"
            )
        config = config or HardwareConfig()
        self.config = config
        node = config.technology
        self.name = name
        self.cell_type = config.cell_type
        self.vprech = config.vprech
        self.n_in, self.n_out = weights.shape
        self.mapping = LayerMapping(self.n_in, self.n_out)
        self.ports = self.cell_type.inference_ports
        # Shared electrical models (one instance across all macros).
        read_ports = read_port_model or ReadPortModel(ARRAY_DIM, ARRAY_DIM, node)
        transposed = transposed_model or TransposedPortModel(
            ARRAY_DIM, ARRAY_DIM, node
        )
        self._read_port_model = read_ports
        self._transposed_model = transposed
        # Arbiters: one per row block.
        self.arbiters = [
            MultiPortArbiter(ARRAY_DIM, self.ports)
            for _ in range(self.mapping.row_blocks)
        ]
        # Macro grid indexed [row_block][col_block].
        self.macros: list[list[SramMacro]] = [
            [
                SramMacro(
                    rows=ARRAY_DIM, cols=ARRAY_DIM, config=config,
                    read_port_model=read_ports, transposed_model=transposed,
                )
                for _ in range(self.mapping.col_blocks)
            ]
            for _ in range(self.mapping.row_blocks)
        ]
        self.load_weights(weights)
        # Neurons: one segment per column block (padded columns excluded).
        self.neurons: list[NeuronArray] = []
        for cb in range(self.mapping.col_blocks):
            cs = self.mapping.col_slice(cb)
            self.neurons.append(
                NeuronArray(
                    thresholds[cs],
                    ports=self.ports * self.mapping.row_blocks,
                    multiport=self.cell_type.is_multiport,
                )
            )
        self._arbiter_cycle_energy_pj = arbiter_energy_per_cycle_pj(
            ARRAY_DIM, self.ports, tree=True
        )
        self.stats = TileInferenceStats.zeros(self.mapping.row_blocks)
        # Bumped on every in-place weight mutation so cached weight
        # snapshots (the fast engine) know to rebuild.
        self.weight_version = 0

    # -- weight access (for online learning) --------------------------------------

    def load_weights(self, weights: np.ndarray) -> None:
        """Store a whole ``(n_in, n_out)`` binary matrix in the macro grid.

        The matrix is checked once, here; each macro then takes its
        block, zero-padded, without a check of its own.  This does not
        bump :attr:`weight_version`: a caller replacing the weights of
        a tile an engine may have snapshotted calls
        :meth:`note_weight_update` after, as fault injection does.
        """
        weights = np.asarray(weights)
        if weights.shape != (self.n_in, self.n_out):
            raise ConfigurationError(
                f"tile {self.name}: weights {weights.shape} != "
                f"({self.n_in}, {self.n_out})"
            )
        if not is_binary(weights):
            raise ConfigurationError("weights must be binary (0/1)")
        mapping = self.mapping
        for rb, row in enumerate(self.macros):
            rows = weights[mapping.row_slice(rb)]
            for cb, macro in enumerate(row):
                macro.array.load_block(rows[:, mapping.col_slice(cb)])

    def weight_matrix(self) -> np.ndarray:
        """Reassemble the logical weight matrix from the macro grid."""
        out = np.zeros((self.n_in, self.n_out), dtype=np.uint8)
        for rb in range(self.mapping.row_blocks):
            rs = self.mapping.row_slice(rb)
            for cb in range(self.mapping.col_blocks):
                cs = self.mapping.col_slice(cb)
                bits = self.macros[rb][cb].array.dump_weights()
                out[rs, cs] = bits[: rs.stop - rs.start, : cs.stop - cs.start]
        return out

    def macro_for_neuron(self, neuron: int, row_block: int) -> tuple[SramMacro, int]:
        """The macro and local column storing ``neuron``'s synapses for
        one row block (used by the online-learning engine)."""
        if not 0 <= neuron < self.n_out:
            raise ConfigurationError(f"neuron {neuron} out of range")
        cb, local_col = divmod(neuron, ARRAY_DIM)
        return self.macros[row_block][cb], local_col

    def note_weight_update(self) -> None:
        """Record that macro weights were mutated in place (learning)."""
        self.weight_version += 1

    # -- cycle-accurate inference ---------------------------------------------------

    def submit_spikes(self, spikes: np.ndarray) -> int:
        """Latch an input spike vector into the row-block arbiters."""
        spikes = np.asarray(spikes).astype(bool)
        if spikes.shape != (self.n_in,):
            raise ConfigurationError(
                f"spike vector shape {spikes.shape} != ({self.n_in},)"
            )
        for rb, arbiter in enumerate(self.arbiters):
            rs = self.mapping.row_slice(rb)
            block = np.zeros(ARRAY_DIM, dtype=bool)
            block[: rs.stop - rs.start] = spikes[rs]
            arbiter.submit(block)
        n = int(spikes.sum())
        self.stats.input_spikes += n
        return n

    @property
    def r_empty(self) -> bool:
        return all(arbiter.r_empty for arbiter in self.arbiters)

    def step(self) -> int:
        """One clock cycle across all row blocks; returns grants issued."""
        stats = self.stats
        grants_this_cycle = 0
        for rb, arbiter in enumerate(self.arbiters):
            grant = arbiter.step()
            if grant.grant_count == 0:
                continue
            grants_this_cycle += grant.grant_count
            stats.block_grants[rb] += grant.grant_count
            valid = np.ones(grant.grant_count, dtype=bool)
            for cb in range(self.mapping.col_blocks):
                bits = self.macros[rb][cb].serve_spikes(grant.granted_rows)
                cols = self.mapping.cols_in_block(cb)
                self.neurons[cb].accumulate(bits[:, :cols], valid)
        stats.cycles += 1
        stats.grants += grants_this_cycle
        stats.array_reads += grants_this_cycle * self.mapping.col_blocks
        stats.accumulate_events += grants_this_cycle
        return grants_this_cycle

    def fire(self, reset_all: bool = True) -> np.ndarray:
        """R_empty reached: run the threshold comparison (one cycle).

        Returns the output spike vector of length ``n_out``.  See
        :meth:`NeuronArray.fire_check` for ``reset_all`` semantics.
        """
        if not self.r_empty:
            raise SimulationError(
                "fire() before R_empty: spike requests are still pending"
            )
        out = np.zeros(self.n_out, dtype=bool)
        for cb, neurons in enumerate(self.neurons):
            neurons.fire_check(reset_all=reset_all)
            cs = self.mapping.col_slice(cb)
            out[cs] = neurons.take_requests()
        self.stats.fire_cycles += 1
        self.stats.fire_checks += 1
        self.stats.output_spikes += int(out.sum())
        return out

    def read_out(self, images: int = 1) -> np.ndarray:
        """Output-layer readout instead of a fire check, for ``images``
        drained images at once (one fire cycle each).

        Returns the membranes, then clears them and the neuron counts,
        so the output tile's neuron energy stays out of a static
        inference.  Zero images change nothing.
        """
        vmem = self.membrane_potentials()
        if images:
            for neurons in self.neurons:
                neurons.reset()
            self.stats.fire_cycles += images
            self.stats.accumulate_events = 0
            self.stats.fire_checks = 0
        return vmem

    def drain(self, spikes: np.ndarray) -> None:
        """Latch ``spikes`` and clock until ``R_empty``."""
        self.submit_spikes(spikes)
        while not self.r_empty:
            self.step()

    def run_timestep(self, spikes: np.ndarray) -> np.ndarray:
        """One temporal timestep: drain the spikes, fire, keep charge.

        Unlike :meth:`run_inference`, non-firing membranes persist —
        the multi-timestep IF dynamics of :mod:`repro.snn.temporal`.
        """
        self.drain(spikes)
        return self.fire(reset_all=False)

    def membrane_potentials(self) -> np.ndarray:
        """Current Vmem of every (non-padded) neuron."""
        return np.concatenate(
            [n.membrane_potentials() for n in self.neurons]
        )[: self.n_out]

    def run_inference(self, spikes: np.ndarray, readout: bool = False,
                      ) -> np.ndarray:
        """Process one full input spike vector to completion.

        With ``readout=True`` the membrane potentials are returned
        *instead* of firing (:meth:`read_out`).
        """
        self.drain(spikes)
        return self.read_out() if readout else self.fire()

    # -- cost roll-ups ---------------------------------------------------------------

    def inference_energy_pj(self,
                            counts: TileInferenceStats | None = None) -> float:
        """Read, neuron and arbiter energy of ``counts`` (default: this
        tile's record).

        Counts times per-access energies, summed per macro in grid
        order, then per neuron segment, then over the arbiters, which
        clock on every drain cycle: the order of the golden capture.
        """
        counts = self.stats if counts is None else counts
        reads = counts.block_grants.tolist()
        macro_pj = sum(
            reads[rb] * macro.read_energy_pj
            for rb, row in enumerate(self.macros) for macro in row
        )
        neuron_pj = sum(
            n.dynamic_energy_pj(counts.accumulate_events, counts.fire_checks)
            for n in self.neurons
        )
        arbiter_pj = (
            counts.cycles * len(self.arbiters) * self._arbiter_cycle_energy_pj
        )
        return macro_pj + neuron_pj + arbiter_pj

    def dynamic_energy_pj(self) -> float:
        """All dynamic energy so far: the record's inference energy plus
        the macros' learning (transposed-port) ledgers."""
        return self.inference_energy_pj() + sum(
            m.ledger.transposed_energy_pj for row in self.macros for m in row
        )

    def leakage_power_mw(self) -> float:
        """Static power of all macros in this tile."""
        return sum(m.leakage_power_mw for row in self.macros for m in row)

    def area_um2(self) -> float:
        """Tile area: macros + arbiters + neurons."""
        from repro.arbiter.analysis import arbiter_area_um2
        from repro.system.area import neuron_array_area_um2

        macro = sum(m.area_um2 for row in self.macros for m in row)
        arb = arbiter_area_um2(ARRAY_DIM, self.ports) * len(self.arbiters)
        neurons = neuron_array_area_um2(self.n_out, self.ports)
        return macro + arb + neurons

    def reset_stats(self) -> None:
        self.stats = TileInferenceStats.zeros(self.mapping.row_blocks)
        for row in self.macros:
            for macro in row:
                macro.reset_ledger()
        for neurons in self.neurons:
            neurons.reset()
        for arbiter in self.arbiters:
            arbiter.reset()

    def __repr__(self) -> str:
        return (
            f"Tile({self.name}, {self.n_in}x{self.n_out}, "
            f"{self.cell_type.value}, {self.mapping.array_count} arrays)"
        )
