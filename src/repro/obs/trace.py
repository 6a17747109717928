"""Deterministic tracing: spans, exporters, and the no-op default.

A :class:`Span` is one named, timed region of work — a flush inside the
serving dispatch loop, a tile kernel inside an engine batch, a design
point inside a campaign.  A :class:`Tracer` collects spans with
parent/child nesting (per thread), an injectable clock so tests pin
exact durations, and exports the run as either JSONL (one span per
line, loss-free round-trip via :func:`spans_from_jsonl`) or the Chrome
``trace_event`` format (load ``chrome://tracing`` / Perfetto on the
file :meth:`Tracer.write_chrome_trace` writes).

Tracing is opt-in by construction: the process-global default tracer
(:func:`get_tracer`) is a :class:`NullTracer` whose :meth:`~Tracer.
span` returns one shared no-op context manager — the instrumented hot
paths (engine batches, serving flushes, campaign points) pay a single
attribute check when tracing is off, which the serving benchmark's
overhead gate measures.  Install a real tracer with
:func:`set_tracer` (restoring the previous one when done): the
instrumented paths read the global tracer at each batch or point, so
that is the one way in.

Two recording styles:

* ``with tracer.span("serve.flush", model="esam"):`` — the context
  manager reads the tracer's clock around the block and nests under
  the innermost open span of the calling thread;
* ``tracer.record("serve.queue_wait", start_s, end_s, ...)`` — for
  durations measured by *someone else's* clock (the server times
  queue waits with its own injectable clock); the caller supplies both
  timestamps and the span nests like any other.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
import time
from dataclasses import dataclass, field

from repro.envinfo import environment_info
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Span:
    """One finished, named, timed region."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float
    thread: str = "main"
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ConfigurationError(
                f"span {self.name!r} ends ({self.end_s}) before it "
                f"starts ({self.start_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """JSON-ready form; :func:`spans_from_jsonl` is the inverse."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            span_id=int(data["span_id"]),
            parent_id=(None if data.get("parent_id") is None
                       else int(data["parent_id"])),
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            thread=data.get("thread", "main"),
            attrs=dict(data.get("attrs", {})),
        )


class _SpanContext:
    """Context manager for one open span (returned by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_span_id",
                 "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        self._span_id = next(tracer._ids)
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        stack.append(self._span_id)
        self._start = tracer._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        end = tracer._clock()
        tracer._stack().pop()
        tracer._append(Span(
            name=self._name,
            span_id=self._span_id,
            parent_id=self._parent_id,
            start_s=self._start,
            end_s=end,
            thread=threading.current_thread().name,
            attrs=self._attrs,
        ))
        tracer._overhead_s += tracer._clock() - end


class _NullSpanContext:
    """The shared do-nothing context manager the null tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Collects spans; thread-safe; injectable clock.

    Every recording thread keeps its own open-span stack, so spans
    nest correctly when serving clients and the dispatch thread trace
    concurrently.  Span ids are sequential integers, so a run with an
    injected clock is deterministic byte for byte.
    """

    #: Hot paths check this before doing any per-item recording work.
    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans: list[Span] = []
        self._overhead_s = 0.0

    # -- recording -------------------------------------------------------------------

    def span(self, name: str, **attrs) -> _SpanContext:
        """Context manager timing the enclosed block as one span."""
        return _SpanContext(self, name, attrs)

    def record(self, name: str, start_s: float, end_s: float,
               **attrs) -> None:
        """One span with caller-supplied timestamps.

        For durations the caller already measured with its own
        (injectable) clock — e.g. the serving queue wait, whose start
        predates the dispatch thread seeing the request.  Timestamps
        must come from one monotonic clock per trace or the Chrome
        export's ordering becomes meaningless.
        """
        stack = self._stack()
        self._append(Span(
            name=name,
            span_id=next(self._ids),
            parent_id=stack[-1] if stack else None,
            start_s=start_s,
            end_s=end_s,
            thread=threading.current_thread().name,
            attrs=attrs,
        ))

    def now(self) -> float:
        """The tracer's clock (for callers composing :meth:`record`)."""
        return self._clock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- inspection ------------------------------------------------------------------

    def spans(self) -> tuple[Span, ...]:
        """Finished spans, in completion order."""
        with self._lock:
            return tuple(self._spans)

    def stats(self) -> dict:
        """Counters for overhead accounting (stamped into BENCH JSONs)."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "spans_recorded": len(self._spans),
                "overhead_s": round(self._overhead_s, 6),
            }

    # -- exporters -------------------------------------------------------------------

    def jsonl_lines(self) -> list[str]:
        """JSONL export: a meta line, then one span per line.

        The meta line stamps :func:`~repro.envinfo.environment_info`
        so a trace file is self-describing the way every BENCH JSON
        is.  Spans round-trip bit-identically through
        :func:`spans_from_jsonl` (JSON floats use shortest-repr).
        """
        lines = [json.dumps({
            "meta": {"format": "repro-trace-v1",
                     "environment": environment_info()},
        }, sort_keys=True)]
        lines.extend(
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self.spans()
        )
        return lines

    def write_jsonl(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text("\n".join(self.jsonl_lines()) + "\n")
        return path

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (complete ``"X"`` events).

        Timestamps are microseconds relative to the earliest span
        start, so ``ts`` is non-negative and monotonic within a thread
        regardless of the clock's epoch.  Thread ids are assigned in
        first-appearance order.
        """
        spans = sorted(self.spans(), key=lambda s: (s.start_s, s.span_id))
        t0 = spans[0].start_s if spans else 0.0
        tids: dict[str, int] = {}
        events = []
        for span in spans:
            tid = tids.setdefault(span.thread, len(tids) + 1)
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round((span.start_s - t0) * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {**span.attrs, "span_id": span.span_id},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"environment": environment_info()},
        }

    def write_chrome_trace(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.chrome_trace(), indent=1) + "\n")
        return path


class NullTracer(Tracer):
    """The default: records nothing, costs (almost) nothing.

    ``span()`` returns one shared no-op context manager and
    ``record()`` is a no-op, so instrumentation left in hot paths is
    safe by default — the serving benchmark gates the measured
    overhead of exactly this configuration.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpanContext:  # noqa: ARG002
        return _NULL_SPAN

    def record(self, name: str, start_s: float, end_s: float,
               **attrs) -> None:
        return None


def spans_from_jsonl(path) -> tuple[Span, ...]:
    """Parse a :meth:`Tracer.write_jsonl` file back into spans.

    The inverse of the JSONL exporter: ``spans_from_jsonl(tracer.
    write_jsonl(p)) == tracer.spans()`` bit for bit (the round-trip
    test pins this).  Meta lines are skipped, and so is a torn
    trailing line (killed process mid-write).
    """
    spans = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn final line
        if "meta" in data:
            continue
        spans.append(Span.from_dict(data))
    return tuple(spans)


def load_trace(path) -> tuple[Span, ...]:
    """Load spans from either export format (JSONL or Chrome JSON).

    A Chrome export is one JSON document with a ``traceEvents`` list;
    anything else (including a single-line JSONL file, whose lines are
    also JSON objects) is parsed as the JSONL span log.
    """
    path = pathlib.Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "traceEvents" in data:
        spans = []
        for i, event in enumerate(data.get("traceEvents", [])):
            if event.get("ph") != "X":
                continue
            start = float(event["ts"]) / 1e6
            args = dict(event.get("args", {}))
            span_id = int(args.pop("span_id", i + 1))
            spans.append(Span(
                name=event["name"],
                span_id=span_id,
                parent_id=None,
                start_s=start,
                end_s=start + float(event.get("dur", 0.0)) / 1e6,
                thread=str(event.get("tid", 1)),
                attrs=args,
            ))
        return tuple(spans)
    return spans_from_jsonl(path)


# -- process-global default ----------------------------------------------------------

_default_tracer: Tracer = NullTracer()
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer (a :class:`NullTracer` by default)."""
    return _default_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the process default; returns the previous.

    ``None`` restores the no-op default.  Callers that install a
    tracer for a scope (CLIs, tests) must restore the returned
    previous tracer when done.
    """
    global _default_tracer
    if tracer is not None and not isinstance(tracer, Tracer):
        raise ConfigurationError(
            f"tracer must be a Tracer (or None), got {tracer!r}"
        )
    with _default_lock:
        previous = _default_tracer
        _default_tracer = tracer if tracer is not None else NullTracer()
    return previous
