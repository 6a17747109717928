"""Digital Integrate-and-Fire neuron — Figure 5 of the paper.

Per clock cycle the neuron receives the sensed bits of the ``p``
multiport bitlines together with per-port *validity flags* (which ports
actually carried a granted spike this cycle).  Valid bits are decoded to
+1/-1 (binary weights map 1 -> +1, 0 -> -1 in the XNOR-free BNN scheme of
ref [15]), summed, and accumulated into the m-bit ``Vmem`` register.

When the tile's arbiter reports ``R_empty`` (all input spikes of the
current inference served), the neuron compares ``Vmem`` with its
threshold register ``Vth``: if ``Vmem >= Vth`` the output request ``r``
is set and ``Vmem`` resets to zero; ``r`` clears once the downstream
arbiter grants it (``g``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError, SimulationError

#: Default register widths: the paper's network never exceeds a few
#: hundred accumulated +-1 contributions, so a 12-bit signed Vmem and a
#: 10-bit threshold register are comfortable.
DEFAULT_VMEM_BITS = 12
DEFAULT_VTH_BITS = 10

#: Adder-stage delay per tree level (ns) and the register update floor.
_ADDER_LEVEL_NS = 0.05
_REGISTER_UPDATE_NS = 0.25
#: The 6T baseline's single-input accumulate (no decode tree).
_SINGLE_INPUT_UPDATE_NS = 0.20


@lru_cache(maxsize=None)
def neuron_add_time_ns(ports: int, multiport: bool = True) -> float:
    """Accumulation time for ``ports`` simultaneous inputs.

    Multiport neurons place a validity-gated +-1 decode and a
    ``ceil(log2(ports + 1))``-level adder tree in front of the Vmem
    register; the 6T baseline (single input, no decode tree) uses the
    shorter fixed path — this is the 0.20 ns difference visible in
    Table 2's 0.69 ns 6T stage.
    """
    if ports < 1:
        raise ConfigurationError(f"ports must be >= 1, got {ports}")
    if not multiport:
        return _SINGLE_INPUT_UPDATE_NS
    levels = math.ceil(math.log2(ports + 1))
    return _REGISTER_UPDATE_NS + _ADDER_LEVEL_NS * levels


@dataclass(frozen=True)
class NeuronTiming:
    """Latency/energy summary of one neuron instance."""

    ports: int
    add_time_ns: float
    accumulate_energy_fj: float
    compare_energy_fj: float


@lru_cache(maxsize=None)
def neuron_timing(ports: int) -> NeuronTiming:
    """Timing/energy datasheet for a ``ports``-input neuron.

    Cached: every neuron segment of every tile looks this datasheet
    up when it is built, for the same few port counts.

    Energy figures: each valid input toggles the +-1 decode and one
    adder slice of every neuron (~0.3 fJ per neuron at 3nm/0.7 V); the
    fire comparison toggles the comparator (~1 fJ per neuron).
    """
    return NeuronTiming(
        ports=ports,
        add_time_ns=neuron_add_time_ns(ports),
        accumulate_energy_fj=0.6,
        compare_energy_fj=1.0,
    )


class IFNeuron:
    """Bit-accurate IF neuron with saturating m-bit Vmem register."""

    def __init__(self, threshold: int, vmem_bits: int = DEFAULT_VMEM_BITS,
                 vth_bits: int = DEFAULT_VTH_BITS, ports: int = 4) -> None:
        limit = 2 ** (vth_bits - 1)
        if not -limit <= threshold < limit:
            raise ConfigurationError(
                f"threshold {threshold} does not fit a {vth_bits}-bit register"
            )
        if ports < 1:
            raise ConfigurationError(f"ports must be >= 1, got {ports}")
        self.threshold = int(threshold)
        self.vmem_bits = vmem_bits
        self.vth_bits = vth_bits
        self.ports = ports
        self._vmem_max = 2 ** (vmem_bits - 1) - 1
        self._vmem_min = -(2 ** (vmem_bits - 1))
        self.vmem = 0
        self.spike_request = False

    def accumulate(self, bits: np.ndarray, valid: np.ndarray) -> int:
        """One cycle of weighted-spike accumulation.

        ``bits``/``valid`` have one entry per port.  Invalid ports are
        ignored entirely — the validity flag prevents an unused port
        from being misread as a '1' (section 3.4).  Returns the delta
        applied to Vmem.
        """
        bits = np.asarray(bits, dtype=bool)
        valid = np.asarray(valid, dtype=bool)
        if bits.shape != (self.ports,) or valid.shape != (self.ports,):
            raise SimulationError(
                f"expected {self.ports} port inputs, got {bits.shape}/{valid.shape}"
            )
        contributions = np.where(bits, 1, -1)
        delta = int(contributions[valid].sum())
        self.vmem = int(np.clip(self.vmem + delta, self._vmem_min, self._vmem_max))
        return delta

    def fire_check(self) -> bool:
        """Threshold comparison, enabled by ``R_empty``.

        Sets the spike request and resets Vmem when it fires.
        """
        if self.vmem >= self.threshold:
            self.spike_request = True
            self.vmem = 0
            return True
        self.vmem = 0  # membrane resets every inference (time-static task)
        return False

    def grant(self) -> None:
        """Downstream arbiter granted our spike (g = 1): clear ``r``."""
        if not self.spike_request:
            raise SimulationError("grant received without a pending spike request")
        self.spike_request = False

    def reset(self) -> None:
        self.vmem = 0
        self.spike_request = False
