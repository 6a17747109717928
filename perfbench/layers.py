"""Per-layer numbers from the spans and registry series a run collected.

The program already emits spans at its layer boundaries (``engine.kernel``
and ``engine.replay`` per tile, ``serve.queue_wait`` / ``batch_assembly``
/ ``flush``, ``fleet.flush``, ``campaign.cache_scan`` / ``evaluate`` /
``point``); the benchmark adds its own spans around calls into public
functions (``bench.*``, ``sram.fault_inject``, ``campaign.classify``,
``store.commit``).  This module turns a span list into self times: a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


def self_times(spans) -> dict[int, float]:
    """``span_id -> self time (s)`` for every span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_s, span.end_s))
    out = {}
    for span in spans:
        inner = [
            (max(lo, span.start_s), min(hi, span.end_s))
            for lo, hi in children.get(span.span_id, ())
            if hi > span.start_s and lo < span.end_s
        ]
        out[span.span_id] = max(0.0, span.duration_s - _covered(inner))
    return out


def self_time_table(spans) -> dict[str, dict]:
    """Per span name: count, total/median self time and total duration."""
    selfs = self_times(spans)
    groups: dict[str, list] = defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    table = {}
    for name in sorted(groups):
        members = groups[name]
        own = np.array([selfs[s.span_id] for s in members])
        table[name] = {
            "count": len(members),
            "self_total_ms": float(own.sum() * 1e3),
            "self_median_ms": float(np.median(own) * 1e3),
            "duration_total_ms": float(
                sum(s.duration_s for s in members) * 1e3
            ),
        }
    return table


def select(spans, name: str, *, windows=None, **attrs) -> list:
    """Spans named ``name`` that match ``attrs`` and start in a window.

    ``windows`` is a list of ``(start, end)`` clock intervals, one per
    slice of the phase the spans belong to; ``None`` accepts any start.
    """
    out = []
    for span in spans:
        if span.name != name:
            continue
        if windows is not None and not any(
                lo <= span.start_s < hi for lo, hi in windows):
            continue
        if any(span.attrs.get(k) != v for k, v in attrs.items()):
            continue
        out.append(span)
    return out


def median_self_ms(selfs: dict[int, float], selected) -> float | None:
    """Median self time (ms) of ``selected``; ``selfs`` from :func:`self_times`."""
    if not selected:
        return None
    return float(np.median([selfs[s.span_id] for s in selected]) * 1e3)


def durations_ms(selected) -> list[float]:
    return [s.duration_s * 1e3 for s in selected]
