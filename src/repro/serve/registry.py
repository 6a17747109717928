"""Model registry: named, hot-swappable ``EsamNetwork`` instances.

Clients address the server by model *name*; the registry maps each name
to a network built from a sweep :class:`~repro.sweep.spec.DesignPoint`
(any cell option / Vprech / engine-agnostic configuration the design
space knows) or registered directly.  Reusing ``DesignPoint`` keeps the
serving layer on the same validated configuration vocabulary as the
sweep engine — a served model *is* a design point with traffic.

Hot swap comes in two flavours:

* **in-place weight updates** (online learning, fault injection)
  need no registry call at all: mutating a tile bumps
  ``Tile.weight_version`` and the network's cached engine backends
  (signed matrices, packed bitplanes, memoized schedules) rebuild on
  the next batch, so requests after the update are served by the new
  weights;
* **whole-network replacement** via :meth:`ModelRegistry.swap`, which
  atomically rebinds a name to a new network with the same interface
  (input width / class count), for staged rollouts of retrained models.

When constructed with a :class:`~repro.resilience.policy.BreakerPolicy`
the registry also keeps one :class:`~repro.resilience.policy.
CircuitBreaker` per model: the server reports every flush outcome
(:meth:`ModelRegistry.record_flush_success` /
:meth:`~ModelRegistry.record_flush_failure`) and gates admission
through :meth:`ModelRegistry.check`, which raises
:class:`~repro.errors.ModelUnavailableError` while a model's circuit
is open.  After the cooldown one probe request is admitted half-open;
its flush outcome closes or reopens the circuit.  Swapping a model
resets its breaker — a fresh network starts with a clean record.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    ModelUnavailableError,
    ServingError,
)
from repro.resilience.policy import BreakerPolicy, CircuitBreaker
from repro.learning.convert import ConvertedSNN
from repro.learning.pretrained import get_reference_model
from repro.sweep.spec import DesignPoint
from repro.tile.network import EsamNetwork


@dataclass(frozen=True)
class RegisteredModel:
    """One registry entry: the live network and its provenance."""

    name: str
    network: EsamNetwork
    point: DesignPoint | None = None
    #: Measured accuracy-floor BER from a reliability campaign
    #: (:meth:`ModelRegistry.attach_reliability`); ``None`` until a
    #: campaign result is attached.
    accuracy_floor_ber: float | None = None
    #: The per-tile weight versions the floor was measured at; an
    #: in-place hot-swap (online learning, fault injection) bumps the
    #: live versions past these and retires the measurement.
    reliability_weight_versions: tuple[int, ...] | None = None

    def describe(self) -> dict:
        """JSON-ready summary; :meth:`ModelRegistry.describe` lists one
        per model."""
        out = {
            "name": self.name,
            "layers": self.network.layer_sizes,
            "cell_type": self.network.cell_type.value,
            "vprech": self.network.vprech,
            "node": self.network.config.node,
            "corner": self.network.config.corner,
            "weight_versions": list(self.weight_versions),
        }
        if self.point is not None:
            out["point"] = self.point.label
        if (self.accuracy_floor_ber is not None
                and self.weight_versions == self.reliability_weight_versions):
            out["accuracy_floor_ber"] = self.accuracy_floor_ber
        return out

    @property
    def weight_versions(self) -> tuple[int, ...]:
        """Per-tile weight versions (bumped by in-place updates)."""
        return tuple(t.weight_version for t in self.network.tiles)


def build_network(point: DesignPoint,
                  snn: ConvertedSNN | None = None) -> EsamNetwork:
    """Materialize the network a design point describes.

    With ``snn=None`` the reference model for the point's
    ``quality``/``seed`` is used (same resolution rule as the sweep
    runner), so a registry entry and a sweep row built from the same
    point simulate the same hardware.
    """
    if snn is None:
        snn = get_reference_model(point.quality, point.seed).snn
    return EsamNetwork(
        snn.weights, snn.thresholds, output_bias=snn.output_bias,
        config=point.hardware,
    )


class ModelRegistry:
    """Thread-safe name -> network mapping used by the server.

    Parameters
    ----------
    breaker:
        Optional :class:`BreakerPolicy`; when given, every registered
        model gets its own :class:`CircuitBreaker` and the serving
        layer's :meth:`check`/:meth:`record_flush_success`/
        :meth:`record_flush_failure` hooks become live.  Without it
        they are no-ops and admission is never gated.
    clock:
        Monotonic clock the breakers measure cooldowns against
        (injectable for tests).
    """

    def __init__(self, breaker: BreakerPolicy | None = None,
                 clock=time.monotonic) -> None:
        self._lock = threading.RLock()
        self._models: dict[str, RegisteredModel] = {}
        self._breaker_policy = breaker
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}

    # -- registration ---------------------------------------------------------------

    def register(self, name: str, point: DesignPoint,
                 snn: ConvertedSNN | None = None) -> EsamNetwork:
        """Build and register the network of a design point."""
        return self.register_network(name, build_network(point, snn),
                                     point=point)

    def register_network(self, name: str, network: EsamNetwork,
                         point: DesignPoint | None = None) -> EsamNetwork:
        """Register an existing network under ``name``."""
        if not name:
            raise ConfigurationError("model name must be non-empty")
        with self._lock:
            if name in self._models:
                raise ConfigurationError(
                    f"model {name!r} is already registered; use swap() to "
                    "replace it"
                )
            self._models[name] = RegisteredModel(
                name=name, network=network, point=point
            )
            if self._breaker_policy is not None:
                self._breakers[name] = CircuitBreaker(
                    self._breaker_policy, clock=self._clock
                )
        return network

    def swap(self, name: str, network: EsamNetwork,
             point: DesignPoint | None = None) -> EsamNetwork:
        """Atomically replace ``name``'s network; returns the old one.

        The replacement must present the same interface (input width
        and class count) so in-flight clients keep working.  Provenance
        is not inherited: pass the new network's ``point`` if it has
        one, otherwise the entry reports none (the old point would
        describe a network no longer serving traffic).
        """
        with self._lock:
            old = self.entry(name).network
            if (network.tiles[0].n_in != old.tiles[0].n_in
                    or network.tiles[-1].n_out != old.tiles[-1].n_out):
                raise ConfigurationError(
                    f"cannot swap model {name!r}: interface "
                    f"{network.tiles[0].n_in}->{network.tiles[-1].n_out} != "
                    f"{old.tiles[0].n_in}->{old.tiles[-1].n_out}"
                )
            self._models[name] = RegisteredModel(
                name=name, network=network, point=point
            )
            if self._breaker_policy is not None:
                # A fresh network starts with a clean failure record.
                self._breakers[name] = CircuitBreaker(
                    self._breaker_policy, clock=self._clock
                )
            return old

    def attach_reliability(self, name: str, campaign,
                           max_drop: float = 0.05) -> float:
        """Record a model's measured accuracy floor from a campaign.

        ``campaign`` is a :class:`~repro.reliability.results.
        CampaignResult` (duck-typed on ``accuracy_floor_for`` to keep
        the serving layer import-free of the reliability package): the
        floor of the model's own hardware group — cell option, node,
        corner — is looked up and reported by :meth:`RegisteredModel.
        describe` from then on.  Raises ``ConfigurationError`` when the
        campaign never measured that group.  Either hot-swap flavour
        retires the floor: ``swap()`` replaces the entry outright, and
        an in-place weight update bumps ``Tile.weight_version`` past
        the versions recorded here, after which ``describe()`` stops
        reporting a measurement taken on weights the model no longer
        serves.
        """
        with self._lock:
            entry = self.entry(name)
            floor = campaign.accuracy_floor_for(
                entry.network.config, max_drop=max_drop
            )
            self._models[name] = dataclasses.replace(
                entry, accuracy_floor_ber=floor,
                reliability_weight_versions=entry.weight_versions,
            )
        return floor

    # -- lookup ---------------------------------------------------------------------

    def entry(self, name: str) -> RegisteredModel:
        with self._lock:
            try:
                return self._models[name]
            except KeyError:
                known = ", ".join(sorted(self._models)) or "<none>"
                raise ServingError(
                    f"no model named {name!r} is registered "
                    f"(registered: {known})"
                ) from None

    def get(self, name: str) -> EsamNetwork:
        """The live network for ``name`` (raises :class:`ServingError`).

        Deliberately *not* gated by the circuit breaker: in-flight
        batches, retries and half-open probes must still be able to
        fetch the network after the circuit opened.  Admission-time
        gating is :meth:`check`.
        """
        return self.entry(name).network

    # -- circuit breaking -----------------------------------------------------------

    def check(self, name: str) -> EsamNetwork:
        """Admission gate: the network, if ``name``'s circuit admits it.

        Raises :class:`ServingError` for unknown names and
        :class:`ModelUnavailableError` while the model's circuit is
        open.  In half-open state exactly one call is admitted as the
        probe; concurrent callers fail fast until its flush outcome is
        reported.  Without a breaker policy this is just :meth:`get`.
        """
        with self._lock:
            network = self.get(name)
            breaker = self._breakers.get(name)
            if breaker is not None and not breaker.allow():
                raise ModelUnavailableError(
                    f"model {name!r} is unavailable: circuit "
                    f"{breaker.state} after {breaker.consecutive_failures} "
                    f"consecutive flush failures; retry after the "
                    f"{breaker.policy.cooldown_s:g}s cooldown"
                )
            return network

    def record_flush_success(self, name: str) -> None:
        """Close ``name``'s circuit (no-op without a breaker policy)."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is not None:
                breaker.record_success()

    def record_flush_failure(self, name: str) -> None:
        """Count one flush failure against ``name``'s circuit."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is not None:
                breaker.record_failure()

    def circuit_state(self, name: str) -> str | None:
        """``"closed"``/``"open"``/``"half-open"``, or ``None`` if ungated."""
        with self._lock:
            self.entry(name)  # raise ServingError for unknown names
            breaker = self._breakers.get(name)
            return None if breaker is None else breaker.state

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def describe(self) -> list[dict]:
        with self._lock:
            entries = list(self._models.values())
            states = {
                name: breaker.state
                for name, breaker in self._breakers.items()
            }
        out = []
        for entry in entries:
            described = entry.describe()
            if entry.name in states:
                described["circuit"] = states[entry.name]
            out.append(described)
        return out

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)
