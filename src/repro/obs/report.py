"""One self-contained HTML dashboard over the repo's benchmark artifacts.

Every benchmark writes a ``BENCH_*.json`` next to the repo root (the
``bench_report`` fixture stamps hardware + environment into each), and
a traced run can leave a span file behind (``--trace-out``).  This
module folds all of them into a single static HTML page — no external
assets, no JavaScript, charts as inline SVG — so the state of the
reproduction is reviewable from one file::

    python -m repro.obs report --out report.html
    python -m repro.obs report --out report.html --trace serve.trace.jsonl
    python -m repro.obs report --out report.html \\
        --store .artifacts/sweep_cache/store.sqlite

The renderer is deliberately dumb about schemas: scalar fields become
key/value rows, numeric leaves become bars, nested objects become
nested tables.  A new benchmark shows up in the dashboard without a
report edit, the same way a new engine backend shows up in ``--engine``
choices without a CLI edit.
"""

from __future__ import annotations

import datetime
import html
import json
import pathlib

from repro.envinfo import environment_info
from repro.errors import ConfigurationError, writing
from repro.obs.trace import Span, load_trace

#: Spans drawn in the timeline SVG before it cuts off (a serving trace
#: holds one span per request; the aggregate table still covers all).
TIMELINE_MAX_SPANS = 400

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 70em; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3em; }
h2 { margin-top: 2em; color: #16425b; }
table { border-collapse: collapse; margin: .5em 0; }
td, th { border: 1px solid #cbd5e1; padding: .25em .6em;
         text-align: left; font-size: .9em; }
th { background: #f1f5f9; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
details { margin: .5em 0; }
summary { cursor: pointer; color: #16425b; }
pre { background: #f8fafc; border: 1px solid #cbd5e1; padding: .8em;
      overflow-x: auto; font-size: .85em; }
.env { color: #64748b; font-size: .85em; }
svg { margin: .5em 0; }
"""


def default_bench_dir() -> pathlib.Path:
    """The repo root — where benchmarks write their ``BENCH_*.json``."""
    return pathlib.Path(__file__).resolve().parents[3]


def collect_bench_files(bench_dir) -> dict[str, dict]:
    """``{artifact name: parsed payload}`` for every ``BENCH_*.json``.

    Sorted by name so the report is deterministic; an unparseable file
    is reported in place (its section shows the error) rather than
    sinking the whole report.
    """
    out: dict[str, dict] = {}
    for path in sorted(pathlib.Path(bench_dir).glob("BENCH_*.json")):
        try:
            out[path.name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            out[path.name] = {"error": f"unreadable: {error}"}
    return out


def trace_aggregate(spans) -> list[dict]:
    """Per-name span roll-up: count, total / mean / max duration (ms)."""
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration_s)
    rows = []
    for name in sorted(by_name):
        durations = by_name[name]
        total = sum(durations)
        rows.append({
            "name": name,
            "count": len(durations),
            "total_ms": total * 1e3,
            "mean_ms": total / len(durations) * 1e3,
            "max_ms": max(durations) * 1e3,
        })
    return sorted(rows, key=lambda r: -r["total_ms"])


def _bar_chart(items: list[tuple[str, float]], *, unit: str,
               width: int = 640) -> str:
    """Horizontal SVG bar chart of non-negative values."""
    if not items:
        return ""
    peak = max(value for _, value in items) or 1.0
    row_h, label_w = 22, 220
    chart_w = width - label_w - 90
    parts = [
        f'<svg width="{width}" height="{row_h * len(items) + 6}" '
        f'role="img" xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, (label, value) in enumerate(items):
        y = i * row_h + 3
        bar = max(1.0, chart_w * max(value, 0.0) / peak)
        parts.append(
            f'<text x="{label_w - 6}" y="{y + 14}" text-anchor="end" '
            f'font-size="12">{html.escape(str(label)[:34])}</text>'
            f'<rect x="{label_w}" y="{y + 2}" width="{bar:.1f}" '
            f'height="{row_h - 8}" fill="#16425b" />'
            f'<text x="{label_w + bar + 5}" y="{y + 14}" '
            f'font-size="12">{value:,.3g}{unit}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _timeline(spans: list[Span], *, width: int = 820) -> str:
    """SVG span timeline (one lane per thread), earliest-start origin."""
    drawn = sorted(spans, key=lambda s: (s.start_s, s.span_id))
    truncated = len(drawn) > TIMELINE_MAX_SPANS
    drawn = drawn[:TIMELINE_MAX_SPANS]
    if not drawn:
        return ""
    t0 = min(s.start_s for s in drawn)
    t1 = max(s.end_s for s in drawn)
    scale = (width - 140) / max(t1 - t0, 1e-9)
    lanes: dict[str, int] = {}
    palette = ("#16425b", "#3a7ca5", "#d9643a", "#81a684", "#a167a5")
    colors: dict[str, str] = {}
    parts = []
    for span in drawn:
        lane = lanes.setdefault(span.thread, len(lanes))
        color = colors.setdefault(
            span.name, palette[len(colors) % len(palette)]
        )
        x = 130 + (span.start_s - t0) * scale
        w = max(1.0, span.duration_s * scale)
        y = lane * 18 + 4
        title = (f"{span.name} {span.duration_s * 1e3:.3f} ms "
                 f"[{span.thread}]")
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="12" '
            f'fill="{color}"><title>{html.escape(title)}</title></rect>'
        )
    for thread, lane in lanes.items():
        parts.append(
            f'<text x="124" y="{lane * 18 + 14}" text-anchor="end" '
            f'font-size="11">{html.escape(thread[:18])}</text>'
        )
    note = (f" (first {TIMELINE_MAX_SPANS} of {len(spans)} spans)"
            if truncated else "")
    return (
        f'<p class="env">span timeline, {(t1 - t0) * 1e3:.1f} ms total'
        f'{note} — hover for details</p>'
        f'<svg width="{width}" height="{len(lanes) * 18 + 8}" role="img" '
        f'xmlns="http://www.w3.org/2000/svg">{"".join(parts)}</svg>'
    )


def _scalar_rows(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    """Flatten a payload's scalar leaves into ``(dotted.key, value)``."""
    rows: list[tuple[str, object]] = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_scalar_rows(value, prefix=f"{name}."))
        elif isinstance(value, (str, int, float, bool)) or value is None:
            rows.append((name, value))
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.6g}"
    return html.escape(str(value))


def _bench_section(name: str, payload: dict) -> str:
    """One benchmark artifact: scalar table, numeric bars, raw JSON."""
    rows = [
        (key, value) for key, value in _scalar_rows(payload)
        if not key.startswith(("hardware.", "environment."))
    ]
    numeric = [
        (key, float(value)) for key, value in rows
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        and float(value) >= 0.0
    ]
    table = "".join(
        f'<tr><td>{html.escape(key)}</td>'
        f'<td class="num">{_fmt(value)}</td></tr>'
        for key, value in rows
    )
    env = payload.get("environment") or {}
    stamp = ", ".join(
        f"{k} {v}" for k, v in env.items()
        if k in ("python", "numpy", "git_sha") and v
    )
    return (
        f"<h2>{html.escape(name)}</h2>"
        + (f'<p class="env">{html.escape(stamp)}</p>' if stamp else "")
        + f"<table><tr><th>metric</th><th>value</th></tr>{table}</table>"
        + _bar_chart(numeric[:12], unit="")
        + "<details><summary>raw JSON</summary><pre>"
        + html.escape(json.dumps(payload, indent=2, sort_keys=True))
        + "</pre></details>"
    )


def _trace_section(trace_path, spans) -> str:
    aggregate = trace_aggregate(spans)
    table = "".join(
        f'<tr><td>{html.escape(row["name"])}</td>'
        f'<td class="num">{row["count"]}</td>'
        f'<td class="num">{row["total_ms"]:,.3f}</td>'
        f'<td class="num">{row["mean_ms"]:,.4f}</td>'
        f'<td class="num">{row["max_ms"]:,.4f}</td></tr>'
        for row in aggregate
    )
    bars = _bar_chart(
        [(row["name"], row["total_ms"]) for row in aggregate[:12]],
        unit=" ms",
    )
    return (
        f"<h2>Trace — {html.escape(pathlib.Path(trace_path).name)}</h2>"
        f'<p class="env">{len(spans)} spans</p>'
        "<table><tr><th>span</th><th>count</th><th>total ms</th>"
        f"<th>mean ms</th><th>max ms</th></tr>{table}</table>"
        + bars + _timeline(list(spans))
    )


def _when(epoch_s: float) -> str:
    stamp = datetime.datetime.fromtimestamp(epoch_s)
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def _store_section(store_path, summary: dict) -> str:
    """Campaign history out of the result store's roll-up."""
    kind_rows = "".join(
        f'<tr><td>{html.escape(kind)}</td>'
        f'<td class="num">{bucket["entries"]}</td>'
        f'<td>{html.escape(", ".join(bucket["cells"]) or "—")}</td>'
        f'<td>{html.escape(", ".join(bucket["nodes"]) or "—")}</td>'
        f'<td>{html.escape(", ".join(bucket["corners"]) or "—")}</td>'
        f'<td>{html.escape(_when(bucket["newest_s"]))}</td></tr>'
        for kind, bucket in summary["kinds"].items()
    )
    bars = _bar_chart(
        [(kind, float(bucket["entries"]))
         for kind, bucket in summary["kinds"].items()],
        unit=" entries",
    )
    recent_rows = "".join(
        f'<tr><td>{html.escape(entry["kind"])}</td>'
        f'<td>{html.escape(entry["label"])}</td>'
        f'<td class="num">{entry["scalars"]}</td>'
        f'<td>{html.escape(_when(entry["created_s"]))}</td></tr>'
        for entry in summary["recent"]
    )
    name = html.escape(pathlib.Path(store_path).name)
    if not summary["total"]:
        return (f"<h2>Campaign history — {name}</h2>"
                "<p>The result store is empty — run a cached sweep or "
                "reliability campaign first.</p>")
    return (
        f"<h2>Campaign history — {name}</h2>"
        f'<p class="env">{summary["total"]} indexed campaign points</p>'
        "<table><tr><th>kind</th><th>entries</th><th>cells</th>"
        f"<th>nodes</th><th>corners</th><th>newest</th></tr>{kind_rows}"
        "</table>" + bars
        + "<table><tr><th>kind</th><th>point</th><th>scalars</th>"
        f"<th>indexed</th></tr>{recent_rows}</table>"
    )


def render_report(benches: dict[str, dict], *, trace_path=None,
                  spans=None, store_path=None,
                  store_summary=None) -> str:
    """The full dashboard page as one HTML string."""
    env = environment_info()
    stamp = ", ".join(f"{k}={v}" for k, v in env.items() if v is not None)
    body = [
        "<h1>repro dashboard</h1>",
        f'<p class="env">generated {html.escape(stamp)}</p>',
    ]
    if not benches:
        body.append("<p>No <code>BENCH_*.json</code> artifacts found — "
                    "run the benchmarks first "
                    "(<code>python -m pytest benchmarks/</code>).</p>")
    for name, payload in benches.items():
        body.append(_bench_section(name, payload))
    if spans is not None:
        body.append(_trace_section(trace_path or "trace", spans))
    if store_summary is not None:
        body.append(_store_section(store_path or "store", store_summary))
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\"><title>repro dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(body) + "</body></html>\n"
    )


def write_report(out_path, *, bench_dir=None, trace_path=None,
                 store_path=None) -> pathlib.Path:
    """Collect artifacts, render, write; returns the output path."""
    bench_dir = pathlib.Path(
        bench_dir if bench_dir is not None else default_bench_dir()
    )
    if not bench_dir.is_dir():
        raise ConfigurationError(f"bench dir {bench_dir} does not exist")
    spans = None
    if trace_path is not None:
        if not pathlib.Path(trace_path).is_file():
            raise ConfigurationError(
                f"trace file {trace_path} does not exist"
            )
        spans = load_trace(trace_path)
    store_summary = None
    if store_path is not None:
        from repro.store import ResultStore
        with ResultStore.for_reading(store_path) as store:
            store_summary = store.summary()
    html = render_report(
        collect_bench_files(bench_dir), trace_path=trace_path, spans=spans,
        store_path=store_path, store_summary=store_summary,
    )
    out_path = pathlib.Path(out_path)
    with writing(out_path):
        out_path.write_text(html)
    return out_path
