"""Metric registry: counters, gauges and histograms with label sets.

One :class:`MetricRegistry` holds every metric of a scope (a serving
run, a campaign, the process default) as named families of labeled
instruments:

* :class:`Counter` — monotonically increasing totals (requests
  submitted, cache hits, retries absorbed);
* :class:`Gauge` — last-written values (memo hit rate, queue depth);
* :class:`Histogram` — either *exact* value counts (flushed batch
  sizes — small bounded integer domains) or cumulative ``le`` buckets
  (latencies — unbounded float domains).

``registry.counter(name, **labels)`` is get-or-create: the same
``(name, labels)`` always resolves to the same instrument, so two
subsystems incrementing ``repro_cache_hits_total{kind="sweep"}`` share
one total.  All instruments are thread-safe.

The text exporter (:meth:`MetricRegistry.to_text`) writes the familiar
Prometheus exposition style — ``# TYPE`` comments, ``name{label="v"}
value`` samples — and :func:`parse_prometheus_text` parses it back to
the same values (JSON-float shortest-repr, so the round-trip is
exact; the exporter test pins this).  Every export is stamped with a
``repro_environment_info`` metric carrying
:func:`~repro.envinfo.environment_info`, the same self-description
contract every BENCH JSON follows.
"""

from __future__ import annotations

import json
import pathlib
import re
import threading

from repro.envinfo import environment_info
from repro.errors import ConfigurationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _format_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _format_value(value) -> str:
    # json.dumps gives shortest round-trip floats and plain ints, so
    # parse_prometheus_text recovers the exact value.
    return json.dumps(value)


class _Instrument:
    """Base: one named, labeled instrument inside a registry."""

    kind = "untyped"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple) -> None:
        super().__init__(name, labels)
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """Last-written value."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self):
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Value distribution: exact counts or cumulative ``le`` buckets.

    ``buckets=None`` (exact mode) keeps one count per distinct
    observed value — right for small bounded integer domains like
    flushed batch sizes, where the exact histogram *is* the serving
    contract.  With ``buckets`` (ascending upper bounds) observations
    land in cumulative ``le`` buckets plus the implicit ``+Inf``, the
    Prometheus shape — right for unbounded float domains like
    latencies.  Both modes track ``count`` and ``sum``.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: tuple,
                 buckets: tuple | None = None) -> None:
        super().__init__(name, labels)
        if buckets is not None:
            buckets = tuple(float(b) for b in buckets)
            if list(buckets) != sorted(set(buckets)):
                raise ConfigurationError(
                    f"histogram {name} buckets must be strictly "
                    f"ascending, got {buckets}"
                )
        self.buckets = buckets
        self._counts: dict = {}
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if self.buckets is None:
                key = value
                self._counts[key] = self._counts.get(key, 0) + 1
            else:
                for bound in self.buckets:
                    if value <= bound:
                        self._counts[bound] = self._counts.get(bound, 0) + 1
                        break  # stored per-bucket; the exporter cumulates

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def counts(self) -> dict:
        """Exact mode: ``{value: occurrences}``; bucketed: per-``le``
        (non-cumulative in storage, cumulative in the text export)."""
        with self._lock:
            return dict(sorted(self._counts.items()))


class MetricRegistry:
    """Named families of labeled instruments, with a text exporter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> (kind, {label_key: instrument})
        self._families: dict[str, tuple[str, dict]] = {}

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        if not _NAME_RE.match(name):
            raise ConfigurationError(
                f"metric name {name!r} is not a valid identifier "
                "([a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (cls.kind, {})
                self._families[name] = family
            kind, instruments = family
            if kind != cls.kind:
                raise ConfigurationError(
                    f"metric {name!r} is already registered as a {kind}, "
                    f"cannot re-register as a {cls.kind}"
                )
            instrument = instruments.get(key)
            if instrument is None:
                instrument = cls(name, key, **kwargs)
                instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, buckets: tuple | None = None,
                  **labels) -> Histogram:
        instrument = self._get_or_create(
            Histogram, name, labels, buckets=buckets
        )
        if instrument.buckets != (None if buckets is None
                                  else tuple(float(b) for b in buckets)):
            raise ConfigurationError(
                f"histogram {name!r} already exists with buckets "
                f"{instrument.buckets}, cannot re-register with {buckets}"
            )
        return instrument

    def collect(self) -> list[_Instrument]:
        """Every instrument, ordered by (name, labels)."""
        with self._lock:
            out = []
            for name in sorted(self._families):
                _, instruments = self._families[name]
                out.extend(
                    instruments[key] for key in sorted(instruments)
                )
            return out

    # -- exporters -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument's current state."""
        out: dict = {}
        for instrument in self.collect():
            entry = out.setdefault(
                instrument.name, {"kind": instrument.kind, "series": []}
            )
            series: dict = {"labels": dict(instrument.labels)}
            if isinstance(instrument, Histogram):
                series["count"] = instrument.count
                series["sum"] = instrument.sum
                series["counts"] = {
                    str(k): v for k, v in instrument.counts().items()
                }
            else:
                series["value"] = instrument.value
            entry["series"].append(series)
        return out

    def to_text(self, environment: bool = True) -> str:
        """Prometheus-style exposition text of every instrument.

        ``environment=True`` (default) appends a
        ``repro_environment_info`` gauge whose labels carry
        :func:`~repro.envinfo.environment_info` minus the timestamp —
        the export is self-describing without two exports of an
        unchanged registry ever differing.
        """
        lines: list[str] = []
        last_name = None
        for instrument in self.collect():
            if instrument.name != last_name:
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
                last_name = instrument.name
            if isinstance(instrument, Histogram):
                base = dict(instrument.labels)
                if instrument.buckets is None:
                    for value, count in instrument.counts().items():
                        labels = _label_key(
                            {**base, "value": _format_value(value)}
                        )
                        lines.append(
                            f"{instrument.name}_bucket"
                            f"{_format_labels(labels)} {count}"
                        )
                else:
                    cumulative = 0
                    counts = instrument.counts()
                    for bound in instrument.buckets:
                        cumulative += counts.get(bound, 0)
                        labels = _label_key(
                            {**base, "le": _format_value(bound)}
                        )
                        lines.append(
                            f"{instrument.name}_bucket"
                            f"{_format_labels(labels)} {cumulative}"
                        )
                    labels = _label_key({**base, "le": "+Inf"})
                    lines.append(
                        f"{instrument.name}_bucket"
                        f"{_format_labels(labels)} {instrument.count}"
                    )
                suffix = _format_labels(instrument.labels)
                lines.append(
                    f"{instrument.name}_count{suffix} {instrument.count}"
                )
                lines.append(
                    f"{instrument.name}_sum{suffix} "
                    f"{_format_value(instrument.sum)}"
                )
            else:
                lines.append(
                    f"{instrument.name}{_format_labels(instrument.labels)} "
                    f"{_format_value(instrument.value)}"
                )
        if environment:
            info = {
                k: str(v) for k, v in environment_info().items()
                if k != "timestamp_utc" and v is not None
            }
            lines.append("# TYPE repro_environment_info gauge")
            lines.append(
                f"repro_environment_info{_format_labels(_label_key(info))} 1"
            )
        return "\n".join(lines) + "\n"

    def write_text(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.to_text())
        return path


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$'
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>'
                       r'(?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict:
    """Parse exposition text back to ``{(name, labels): value}``.

    The inverse of :meth:`MetricRegistry.to_text` at the sample level:
    every non-comment line becomes one entry keyed by the metric name
    and its sorted label tuple.  Values parse through :func:`json.
    loads` (plus ``+Inf`` handling), so anything the exporter wrote
    re-parses to the identical Python value — the round-trip the
    exporter test pins.
    """
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ConfigurationError(
                f"unparseable metrics line: {line!r}"
            )
        labels = tuple(
            (m.group("key"), _unescape(m.group("value")))
            for m in _LABEL_RE.finditer(match.group("labels") or "")
        )
        raw = match.group("value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = float(raw)  # +Inf / -Inf / NaN spellings
        out[(match.group("name"), tuple(sorted(labels)))] = value
    return out


# -- process-global default ----------------------------------------------------------

_default_registry = MetricRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricRegistry:
    """The process-global registry (always present, starts empty)."""
    return _default_registry


def set_registry(registry: MetricRegistry | None) -> MetricRegistry:
    """Install ``registry`` as the process default; returns the previous.

    ``None`` installs a fresh empty registry.  Callers installing one
    for a scope (CLIs, tests) must restore the returned previous
    registry when done.
    """
    global _default_registry
    if registry is not None and not isinstance(registry, MetricRegistry):
        raise ConfigurationError(
            f"registry must be a MetricRegistry (or None), got {registry!r}"
        )
    with _default_lock:
        previous = _default_registry
        _default_registry = (registry if registry is not None
                             else MetricRegistry())
    return previous
