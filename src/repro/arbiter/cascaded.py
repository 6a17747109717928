"""Cascaded p-port arbiter — Figure 4(a) of the paper.

Four (in general ``p``) 1-port arbiters are cascaded: stage ``k``
receives the masked request vector ``R'`` of stage ``k-1`` and produces
one more grant, so up to ``p`` spikes are granted per clock cycle within
a single combinational pass.

This module provides:

* :class:`MultiPortArbiter` — the behavioral, cycle-accurate arbiter the
  tile simulator uses (pending-request bookkeeping, ``R_empty``);
* :func:`build_cascaded_netlist` — the full gate-level netlist of the
  ``p``-port cascade (flat or tree stages) for functional equivalence
  tests and critical-path analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.arbiter.gates import Netlist
from repro.arbiter.priority_encoder import append_flat_encoder, priority_encode
from repro.arbiter.tree import DEFAULT_BASE_WIDTH, append_tree_encoder


@dataclass(frozen=True)
class ArbiterGrant:
    """Result of one arbiter clock cycle."""

    granted_rows: np.ndarray      # indices of wordlines granted this cycle
    no_request: bool              # noR of the first stage at cycle start
    remaining_requests: int       # pending spikes left after this cycle

    @property
    def grant_count(self) -> int:
        return int(self.granted_rows.size)


def build_cascaded_netlist(width: int, ports: int, tree: bool = True,
                           base_width: int = DEFAULT_BASE_WIDTH) -> Netlist:
    """Gate netlist of ``ports`` cascaded encoders over ``width`` requests.

    Net naming: primary inputs ``r{n}``; stage ``k`` outputs
    ``st{k}_g{n}``, ``st{k}_rp{n}``, ``st{k}_noR``.
    """
    if width < 1 or ports < 1:
        raise ConfigurationError("width and ports must be >= 1")
    kind = "tree" if tree else "flat"
    net = Netlist(f"arb_{kind}{width}x{ports}")
    s0 = net.add_input("s0")
    requests = [net.add_input(f"r{n}") for n in range(width)]
    for stage in range(ports):
        prefix = f"st{stage}"
        if tree and width % base_width == 0 and width > base_width:
            _, masked, _ = append_tree_encoder(net, requests, s0, prefix, base_width)
        else:
            _, masked, _ = append_flat_encoder(net, requests, s0, prefix)
        requests = masked
    return net


class MultiPortArbiter:
    """Behavioral p-port arbiter with pending-request state.

    One instance guards one 128-row SRAM array (each array has its own
    arbiter — section 4.4.2).  Spike requests are latched into a pending
    vector; every :meth:`step` grants up to ``ports`` of them in
    fixed-priority order and clears them.
    """

    def __init__(self, width: int, ports: int) -> None:
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        if ports < 1:
            raise ConfigurationError(f"ports must be >= 1, got {ports}")
        self.width = width
        self.ports = ports
        self._pending = np.zeros(width, dtype=bool)
        # Maintained incrementally so per-cycle bookkeeping does not
        # rescan the full pending vector (hot path of the simulator).
        self._pending_count = 0

    # -- request interface ------------------------------------------------------

    def submit(self, requests: np.ndarray) -> None:
        """Latch new spike requests (OR-ed into the pending vector)."""
        r = np.asarray(requests)
        if r.shape != (self.width,):
            raise ConfigurationError(
                f"request vector shape {r.shape} != ({self.width},)"
            )
        self._pending |= r.astype(bool)
        self._pending_count = int(self._pending.sum())

    def submit_rows(self, rows: np.ndarray | list[int]) -> None:
        """Latch spike requests by wordline index."""
        idx = np.asarray(rows, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.width):
            raise SimulationError(f"request row out of range: {idx}")
        self._pending[idx] = True
        self._pending_count = int(self._pending.sum())

    @property
    def pending_count(self) -> int:
        return self._pending_count

    @property
    def r_empty(self) -> bool:
        """High when no spike requests are pending (enables the neuron
        threshold comparison — section 3.4)."""
        return self._pending_count == 0

    # -- clocked operation ---------------------------------------------------------

    def step(self) -> ArbiterGrant:
        """One clock cycle: grant up to ``ports`` pending requests.

        Equivalent to the cascaded encoder pass: the leftmost ``ports``
        pending bits win, exactly as ``ports`` cascaded priority
        encoders would select them.
        """
        no_request = self.r_empty
        pending_idx = np.flatnonzero(self._pending)
        granted = pending_idx[: self.ports]
        self._pending[granted] = False
        self._pending_count -= granted.size
        return ArbiterGrant(
            granted_rows=granted.copy(),
            no_request=no_request,
            remaining_requests=self._pending_count,
        )

    def step_reference(self) -> ArbiterGrant:
        """Same cycle semantics via ``ports`` explicit encoder passes.

        Slow path used by equivalence tests to show that :meth:`step`'s
        vectorised selection matches the cascaded-encoder definition.
        """
        no_request = self.r_empty
        r = self._pending.copy()
        grants: list[int] = []
        for _ in range(self.ports):
            grant_vec, r, no_r = priority_encode(r)
            if no_r:
                break
            grants.append(int(np.flatnonzero(grant_vec)[0]))
        granted = np.asarray(grants, dtype=np.int64)
        self._pending[granted] = False
        self._pending_count -= granted.size
        return ArbiterGrant(
            granted_rows=granted,
            no_request=no_request,
            remaining_requests=self._pending_count,
        )

    def drain(self) -> list[ArbiterGrant]:
        """Step until ``R_empty``; returns the per-cycle grant trace."""
        trace = []
        while not self.r_empty:
            trace.append(self.step())
        return trace

    def reset(self) -> None:
        self._pending[:] = False
        self._pending_count = 0

    def __repr__(self) -> str:
        return (
            f"MultiPortArbiter(width={self.width}, ports={self.ports}, "
            f"pending={self.pending_count})"
        )
