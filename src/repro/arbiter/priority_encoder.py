"""Fixed Priority Encoder — Figure 4(b/c) of the paper.

The encoder receives a request vector ``R`` and produces:

* ``G`` — one-hot grant vector selecting the leftmost pending request;
* ``R'`` — ``R`` with the granted bit masked out (forwarded to the next
  cascaded 1-port arbiter);
* ``noR`` — high when ``R`` contains no request.

The bit-slice of Figure 4(c) computes, with a select chain ``s``
(``s[0] = 1``)::

    g[n]   = r[n] AND s[n]        # grant the first pending request
    s[n+1] = s[n] AND NOT r[n]    # block everything right of it
    rp[n]  = r[n] AND NOT g[n]    # mask the granted bit out of R

``noR`` falls out for free as ``s[W]``.  The select chain is the
critical path — linear in the width (with a repeater every
:data:`REPEATER_INTERVAL` bits to hold the slew), which is what
motivates the tree structure for 128-wide arrays
(see :mod:`repro.arbiter.tree`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ConfigurationError
from repro.arbiter.gates import Netlist

#: The select chain drives three gates per bit plus wire; a repeater is
#: inserted every this-many bits to keep the stage delay at library value.
REPEATER_INTERVAL = 16


def priority_encode(requests: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Behavioral reference of the priority encoder.

    Parameters
    ----------
    requests:
        Boolean/0-1 vector ``R``.

    Returns
    -------
    (grant, remaining, no_request):
        one-hot grant vector, masked request vector, and the ``noR`` flag.
    """
    r = np.asarray(requests).astype(bool)
    if r.ndim != 1:
        raise ConfigurationError("request vector must be 1-D")
    grant = np.zeros_like(r)
    pending = np.flatnonzero(r)
    if pending.size == 0:
        return grant, r.copy(), True
    grant[pending[0]] = True
    remaining = r & ~grant
    return grant, remaining, False


def append_flat_encoder(net: Netlist, request_nets: list[str], s0_net: str,
                        prefix: str) -> tuple[list[str], list[str], str]:
    """Append one flat priority encoder to ``net``.

    ``request_nets`` may be primary inputs or outputs of a previous
    cascade stage.  Returns ``(grant_nets, masked_request_nets, noR_net)``.
    """
    if not request_nets:
        raise ConfigurationError("request_nets must be non-empty")
    grants: list[str] = []
    masked: list[str] = []
    s_prev = s0_net
    for n, r in enumerate(request_nets):
        if n > 0 and n % REPEATER_INTERVAL == 0:
            s_prev = net.add_gate("BUF", f"{prefix}_srep{n}", s_prev)
        g = net.add_gate("AND2", f"{prefix}_g{n}", r, s_prev)
        s_prev = net.add_gate("ANDNOT2", f"{prefix}_s{n + 1}", s_prev, r)
        masked.append(net.add_gate("ANDNOT2", f"{prefix}_rp{n}", r, g))
        grants.append(g)
    no_r = net.add_gate("BUF", f"{prefix}_noR", s_prev)
    return grants, masked, no_r


def build_flat_encoder_netlist(width: int, prefix: str = "pe") -> Netlist:
    """Standalone gate-level netlist of a flat ``width``-bit encoder.

    Net naming: inputs ``{prefix}_r{n}``; outputs ``{prefix}_g{n}``,
    ``{prefix}_rp{n}`` and ``{prefix}_noR``.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    net = Netlist(f"{prefix}_flat{width}")
    s0 = net.add_input(f"{prefix}_s0")  # driven high by the caller
    requests = [net.add_input(f"{prefix}_r{n}") for n in range(width)]
    append_flat_encoder(net, requests, s0, prefix)
    return net


class PriorityEncoder:
    """Flat fixed-priority encoder with a gate-level twin.

    The behavioral path (:meth:`encode`) is used by the cycle-accurate
    simulator; the netlist (:attr:`netlist`, built on first use) backs
    functional equivalence tests and timing analysis.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self.width = width

    @functools.cached_property
    def netlist(self) -> Netlist:
        """The encoder's gate-level netlist, built once on first use."""
        return build_flat_encoder_netlist(self.width)

    def encode(self, requests: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
        r = np.asarray(requests)
        if r.shape != (self.width,):
            raise ConfigurationError(
                f"request vector shape {r.shape} != ({self.width},)"
            )
        return priority_encode(r)

    def encode_gate_level(self, requests: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
        """Evaluate through the gate netlist (slow; verification only)."""
        r = np.asarray(requests).astype(bool)
        if r.shape != (self.width,):
            raise ConfigurationError(
                f"request vector shape {r.shape} != ({self.width},)"
            )
        inputs = {"pe_s0": True}
        inputs.update({f"pe_r{n}": bool(r[n]) for n in range(self.width)})
        values = self.netlist.evaluate(inputs)
        grant = np.array([values[f"pe_g{n}"] for n in range(self.width)])
        remaining = np.array([values[f"pe_rp{n}"] for n in range(self.width)])
        return grant, remaining, bool(values["pe_noR"])

    def critical_path_ps(self) -> float:
        """Longest path through the select chain (to any output)."""
        return self.netlist.critical_path_ps()
