"""Engine backends: the named simulation engines, in one table.

A *backend* is a factory ``factory(network) -> engine`` where the
engine object implements the batched inference protocol over an
:class:`~repro.tile.network.EsamNetwork`:

* ``infer_batch(spikes, trace=None) -> (B, n_classes) float64`` —
  membrane readouts for a validated boolean ``(B, n_in)`` batch,
  updating ``trace`` and every hardware ledger exactly as the
  per-cycle reference would;
* ``classify_batch(spikes, trace=None) -> (B,) int64`` — arg-max
  readout;
* ``run_temporal(spike_trains) -> TemporalResult`` — multi-timestep
  IF dynamics with persistent membranes, leaving identical membrane
  state behind.

Every backend is held to the same contract: bit-identical predictions,
traces, stats counters and energy ledgers versus the ``"cycle"``
reference.  The cross-backend conformance suite
(``tests/test_backend_conformance.py``) parametrizes over
:func:`backend_names`, so a backend added to the table runs through the
full equivalence matrix (cells x Vprech regimes x temporal x mid-run
switching x faulted weights).

The backends:

* ``"fast"`` — schedule-based batched engine
  (:class:`~repro.tile.engine.FastEngine`), the default;
* ``"cycle"`` — the per-cycle bit-true reference
  (:class:`~repro.tile.backends.cycle.CycleEngine`);
* ``"bitpacked"`` — uint64 bit-plane popcount engine with memoized
  drain schedules (:class:`~repro.tile.backends.bitpacked.
  BitpackedEngine`).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.tile.backends.bitpacked import BitpackedEngine
from repro.tile.backends.cycle import CycleEngine
from repro.tile.engine import FastEngine

#: Backend name -> ``factory(network) -> engine``, in listing order.
_BACKENDS: dict[str, Callable] = {
    "fast": FastEngine,
    "cycle": CycleEngine,
    "bitpacked": BitpackedEngine,
}


def backend_factory(name: str) -> Callable:
    """The factory of backend ``name``.

    Raises :class:`ConfigurationError` for unknown names — this is the
    single point every ``validate_engine`` call delegates to, so a typo
    like ``engine="fats"`` fails with the full list of known backends.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"engine must be one of {tuple(_BACKENDS)}, got {name!r}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """All backend names, in table order."""
    return tuple(_BACKENDS)


__all__ = ["backend_factory", "backend_names"]
