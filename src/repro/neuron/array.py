"""Vectorised neuron array: one IF neuron per SRAM output column.

The per-neuron class (:class:`~repro.neuron.if_neuron.IFNeuron`) is the
bit-accurate reference; this array is the numpy-vectorised equivalent
used by the cycle-accurate tile simulator (the two are proven equal by
the test suite).  It prices its activity for the system model
(:meth:`NeuronArray.dynamic_energy_pj`); the owning tile's record
(:class:`~repro.tile.tile.TileInferenceStats`) counts that activity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.neuron.if_neuron import (
    DEFAULT_VMEM_BITS,
    neuron_timing,
)


class NeuronArray:
    """``n`` IF neurons updated in parallel.

    Parameters
    ----------
    thresholds:
        Integer Vth per neuron (from the BNN conversion).
    ports:
        Bitline inputs per neuron per array (validity-flagged).
    """

    def __init__(self, thresholds: np.ndarray, ports: int = 4,
                 vmem_bits: int = DEFAULT_VMEM_BITS, multiport: bool = True) -> None:
        thresholds = np.asarray(thresholds)
        if thresholds.ndim != 1 or thresholds.size == 0:
            raise ConfigurationError("thresholds must be a non-empty 1-D array")
        if ports < 1:
            raise ConfigurationError(f"ports must be >= 1, got {ports}")
        self.n = thresholds.size
        self.ports = ports
        self.multiport = multiport
        self.thresholds = thresholds.astype(np.int64).copy()
        self._vmem_max = 2 ** (vmem_bits - 1) - 1
        self._vmem_min = -(2 ** (vmem_bits - 1))
        self.vmem = np.zeros(self.n, dtype=np.int64)
        self.spike_requests = np.zeros(self.n, dtype=bool)
        self._timing = neuron_timing(ports)

    def accumulate(self, bits: np.ndarray, valid: np.ndarray) -> None:
        """One cycle: add the valid +-1 contributions to every Vmem.

        ``bits`` has shape ``(k, n)`` — ``k <= ports`` sensed bitline
        rows this cycle; ``valid`` has shape ``(k,)`` and flags which of
        them carried granted spikes.
        """
        bits = np.asarray(bits)
        valid = np.asarray(valid, dtype=bool)
        if bits.ndim != 2 or bits.shape[1] != self.n:
            raise SimulationError(
                f"bits shape {bits.shape} incompatible with {self.n} neurons"
            )
        if bits.shape[0] > self.ports:
            raise SimulationError(
                f"{bits.shape[0]} bitline rows exceed {self.ports} neuron ports"
            )
        if valid.shape != (bits.shape[0],):
            raise SimulationError("one validity flag per sensed row required")
        if not valid.any():
            return
        contributions = np.where(bits[valid].astype(bool), 1, -1)
        self.vmem = np.clip(
            self.vmem + contributions.sum(axis=0), self._vmem_min, self._vmem_max
        )

    def fire_check(self, reset_all: bool = True) -> np.ndarray:
        """R_empty reached: compare all Vmem to Vth, fire and reset.

        Returns the boolean fire vector; firing neurons raise their
        spike requests towards the next tile.  With ``reset_all`` (the
        paper's time-static mode) every membrane clears; in temporal
        mode (``reset_all=False``) only firing neurons reset and the
        rest keep their charge for the next timestep.
        """
        fired = self.vmem >= self.thresholds
        self.spike_requests |= fired
        if reset_all:
            self.vmem[:] = 0
        else:
            self.vmem[fired] = 0
        return fired

    def take_requests(self) -> np.ndarray:
        """Hand all pending output spikes to the next tile's arbiter
        (their ``g`` is asserted) and clear them."""
        requests = self.spike_requests.copy()
        self.spike_requests[:] = False
        return requests

    def membrane_potentials(self) -> np.ndarray:
        """Copy of the Vmem registers (output-layer readout path)."""
        return self.vmem.copy()

    # -- costs -------------------------------------------------------------------

    @property
    def add_time_ns(self) -> float:
        from repro.neuron.if_neuron import neuron_add_time_ns

        return neuron_add_time_ns(self.ports, self.multiport)

    def dynamic_energy_pj(self, accumulate_events: int,
                          fire_checks: int) -> float:
        """Energy of ``accumulate_events`` valid contributions and
        ``fire_checks`` threshold comparisons across the array."""
        acc = accumulate_events * self._timing.accumulate_energy_fj * self.n
        cmp_ = fire_checks * self._timing.compare_energy_fj * self.n
        return (acc + cmp_) * 1e-3

    def reset(self) -> None:
        self.vmem[:] = 0
        self.spike_requests[:] = False
