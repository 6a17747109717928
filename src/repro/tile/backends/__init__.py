"""Engine-backend registry: named, pluggable simulation engines.

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

Every registered backend is held to the same contract: bit-identical
predictions, traces, stats counters and energy ledgers versus the
``"cycle"`` reference.  The contract is enforced structurally — the
cross-backend conformance suite (``tests/test_backend_conformance.py``)
parametrizes over :func:`backend_names`, so registering a new backend
automatically runs it through the full equivalence matrix (cells x
Vprech regimes x temporal x mid-run switching x faulted weights).

Built-in backends (registered at import):

* ``"fast"`` — schedule-based batched engine
  (:class:`~repro.tile.engine.FastEngine`), the default;
* ``"bitpacked"`` — uint64 bit-plane popcount engine with memoized
  drain schedules (:class:`~repro.tile.backends.bitpacked.
  BitpackedEngine`);
* ``"cycle"`` — the per-cycle bit-true reference
  (:class:`~repro.tile.backends.cycle.CycleEngine`).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError

#: Registration table: backend name -> ``factory(network) -> engine``.
_REGISTRY: dict[str, Callable] = {}


def register_backend(name: str, factory: Callable) -> None:
    """Register an engine backend under ``name``.

    ``factory`` is called as ``factory(network)`` and must return an
    engine object implementing the protocol in the module docstring.
    Duplicate names are rejected — a backend is registered exactly
    once, so two implementations can never silently shadow each other.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"backend name must be a non-empty string, got {name!r}"
        )
    if name in _REGISTRY:
        raise ConfigurationError(
            f"engine backend {name!r} is already registered "
            f"(registered: {tuple(_REGISTRY)})"
        )
    if not callable(factory):
        raise ConfigurationError(
            f"backend factory for {name!r} must be callable, got {factory!r}"
        )
    _REGISTRY[name] = factory


def backend_factory(name: str) -> Callable:
    """The factory registered under ``name``.

    Raises :class:`ConfigurationError` for unknown names — this is the
    single point every ``validate_engine`` call delegates to, so a typo
    like ``engine="fats"`` fails with the full list of known backends.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"engine must be one of {tuple(_REGISTRY)}, got {name!r}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_REGISTRY)


def engines_doc() -> str:
    """One line per registered backend, derived from its factory doc.

    This is the *only* authority for user-facing engine enumerations
    (module docs, CLI help): it is generated from the registry, so it
    cannot drift when a backend is added or renamed.
    """
    lines = []
    for name, factory in _REGISTRY.items():
        summary = (factory.__doc__ or "").strip().splitlines()
        first = summary[0] if summary else "(undocumented)"
        lines.append(f'* ``engine="{name}"`` -- {first}')
    return "\n".join(lines)


def _register_builtin_backends() -> None:
    # Imported here, not at module top: the engine modules import
    # repro.tile internals that in turn import this registry.
    from repro.tile.backends.bitpacked import BitpackedEngine
    from repro.tile.backends.cycle import CycleEngine
    from repro.tile.engine import FastEngine

    register_backend("fast", FastEngine)
    register_backend("cycle", CycleEngine)
    register_backend("bitpacked", BitpackedEngine)


_register_builtin_backends()

__all__ = [
    "backend_factory",
    "backend_names",
    "engines_doc",
    "register_backend",
]
