"""Observability layer: tracer, exporters, metric registry, dashboard.

Covers the subsystem contracts end to end: span nesting and the
injectable clock, loss-free JSONL round-trips, valid Chrome
``trace_event`` exports, Prometheus-text round-trips through
:func:`parse_prometheus_text`, the engine / server / campaign span
sites (instrumentation must never change results), and the HTML
dashboard — including the full ``repro-serve --trace-out`` →
``python -m repro.obs report`` pipeline.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.obs import (
    MetricRegistry,
    NullTracer,
    Span,
    Tracer,
    get_registry,
    get_tracer,
    load_trace,
    parse_prometheus_text,
    set_tracer,
    spans_from_jsonl,
)
from repro.obs.report import (
    collect_bench_files,
    render_report,
    trace_aggregate,
    write_report,
)
from repro.obs.trace import _NULL_SPAN
from repro.serve import BatchPolicy, InferenceServer, ModelRegistry
from repro.sram.bitcell import CellType
from repro.tile.network import EsamNetwork


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def random_network(layers=(64, 32, 10), seed=0,
                   cell_type=CellType.C1RW4R) -> EsamNetwork:
    rng = np.random.default_rng(seed)
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    thresholds = [
        np.full(b, max(1, a // 16), dtype=np.int64)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    return EsamNetwork(weights, thresholds,
                       config=HardwareConfig(cell_type=cell_type))


def random_spikes(n, width=64, seed=3, density=0.2) -> np.ndarray:
    return np.random.default_rng(seed).random((n, width)) < density


@pytest.fixture
def installed_tracer():
    """A real tracer installed as the process default, restored after."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# -- spans and the tracer ------------------------------------------------------------


class TestSpan:
    def test_rejects_negative_duration(self):
        with pytest.raises(ConfigurationError):
            Span(name="x", span_id=1, parent_id=None,
                 start_s=2.0, end_s=1.0)

    def test_dict_round_trip(self):
        span = Span(name="engine.kernel", span_id=7, parent_id=3,
                    start_s=1.25, end_s=2.5, thread="worker",
                    attrs={"tile": 0})
        assert Span.from_dict(span.to_dict()) == span
        assert span.duration_s == pytest.approx(1.25)


class TestTracer:
    def test_nesting_and_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", kind="test"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.5)
            clock.advance(0.25)
        inner, outer = tracer.spans()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.duration_s == pytest.approx(0.5)
        assert outer.duration_s == pytest.approx(1.75)
        assert outer.attrs == {"kind": "test"}

    def test_record_with_caller_timestamps_nests(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            tracer.record("measured", 10.0, 12.5, source="server")
        measured = tracer.spans()[0]
        assert measured.parent_id == tracer.spans()[1].span_id
        assert measured.duration_s == pytest.approx(2.5)
        assert measured.attrs == {"source": "server"}

    def test_sibling_spans_in_threads_do_not_nest(self):
        tracer = Tracer()
        seen = []

        def worker():
            with tracer.span("threaded"):
                pass
            seen.append(True)

        with tracer.span("main-side"):
            thread = threading.Thread(target=worker, name="obs-worker")
            thread.start()
            thread.join()
        threaded = next(s for s in tracer.spans() if s.name == "threaded")
        assert threaded.parent_id is None  # other thread, other stack
        assert threaded.thread == "obs-worker"

    def test_stats_shape(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        stats = tracer.stats()
        assert stats["enabled"] is True
        assert stats["spans_recorded"] == 1
        assert stats["overhead_s"] >= 0.0


class TestNullTracer:
    def test_is_the_process_default(self):
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer().enabled is False

    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("ignored", attr=1):
            tracer.record("also-ignored", 0.0, 1.0)
        assert tracer.spans() == ()
        assert tracer.span("x") is _NULL_SPAN  # one shared no-op object

    def test_set_tracer_restores_and_type_checks(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            assert set_tracer(previous) is tracer
        assert isinstance(get_tracer(), NullTracer)
        with pytest.raises(ConfigurationError):
            set_tracer("not a tracer")


# -- exporters -----------------------------------------------------------------------


class TestExporters:
    def _traced(self) -> Tracer:
        clock = FakeClock(100.0)
        tracer = Tracer(clock=clock)
        with tracer.span("outer", model="esam"):
            clock.advance(0.123456789)
            with tracer.span("inner", tile=0):
                clock.advance(0.001)
        tracer.record("measured", 100.05, 100.075, n=3)
        return tracer

    def test_jsonl_round_trip_is_bit_identical(self, tmp_path):
        tracer = self._traced()
        path = tracer.write_jsonl(tmp_path / "run.trace.jsonl")
        assert spans_from_jsonl(path) == tracer.spans()

    def test_jsonl_meta_line_carries_environment(self, tmp_path):
        path = self._traced().write_jsonl(tmp_path / "t.jsonl")
        meta = json.loads(path.read_text().splitlines()[0])["meta"]
        assert meta["format"] == "repro-trace-v1"
        assert "python" in meta["environment"]

    def test_jsonl_tolerates_torn_final_line(self, tmp_path):
        tracer = self._traced()
        path = tracer.write_jsonl(tmp_path / "t.jsonl")
        torn = path.read_text().rstrip("\n")[:-7]
        path.write_text(torn)
        spans = spans_from_jsonl(path)
        assert spans == tracer.spans()[:-1]

    def test_chrome_trace_is_valid_and_monotonic(self, tmp_path):
        tracer = self._traced()
        path = tracer.write_chrome_trace(tmp_path / "t.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert len(events) == 3
        assert all(e["ph"] == "X" for e in events)
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] == 0.0  # relative to earliest start
        assert all(e["dur"] >= 0.0 for e in events)
        assert "environment" in data["otherData"]
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["args"]["tile"] == 0

    def test_load_trace_reads_both_formats(self, tmp_path):
        tracer = self._traced()
        jsonl = tracer.write_jsonl(tmp_path / "t.jsonl")
        chrome = tracer.write_chrome_trace(tmp_path / "t.json")
        assert load_trace(jsonl) == tracer.spans()
        chrome_spans = load_trace(chrome)
        assert {s.name for s in chrome_spans} == {
            s.name for s in tracer.spans()
        }
        by_name = {s.name: s for s in chrome_spans}
        original = {s.name: s for s in tracer.spans()}
        for name, span in by_name.items():
            assert span.duration_s == pytest.approx(
                original[name].duration_s, abs=1e-6
            )


# -- metric registry -----------------------------------------------------------------


class TestMetricRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricRegistry()
        counter = registry.counter("repro_x_total", kind="a")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)
        registry.gauge("repro_g").set(2.5)
        hist = registry.histogram("repro_h")
        for value in (2, 2, 8):
            hist.observe(value)
        assert hist.counts() == {2: 2, 8: 1}
        assert hist.count == 3 and hist.sum == 12

    def test_get_or_create_and_kind_collisions(self):
        registry = MetricRegistry()
        assert registry.counter("repro_x_total") is registry.counter(
            "repro_x_total"
        )
        assert registry.counter("repro_x_total", kind="a") is not (
            registry.counter("repro_x_total", kind="b")
        )
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total")
        registry.histogram("repro_hb", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("repro_hb", buckets=(5.0,))

    def test_bucketed_histogram_cumulative_export(self):
        registry = MetricRegistry()
        hist = registry.histogram("repro_lat_ms", buckets=(1.0, 10.0, 100.0))
        for value in (0.7, 55.0, 1000.0, 5.0):
            hist.observe(value)
        samples = parse_prometheus_text(registry.to_text())
        assert samples[("repro_lat_ms_bucket", (("le", "1.0"),))] == 1
        assert samples[("repro_lat_ms_bucket", (("le", "10.0"),))] == 2
        assert samples[("repro_lat_ms_bucket", (("le", "100.0"),))] == 3
        assert samples[("repro_lat_ms_bucket", (("le", "+Inf"),))] == 4
        assert samples[("repro_lat_ms_count", ())] == 4
        assert samples[("repro_lat_ms_sum", ())] == pytest.approx(1060.7)

    def test_text_round_trip_is_exact(self):
        registry = MetricRegistry()
        registry.counter("repro_a_total", engine="fast").inc(12345)
        registry.gauge("repro_rate").set(0.1 + 0.2)  # non-representable
        registry.histogram("repro_sizes").observe(64)
        samples = parse_prometheus_text(registry.to_text())
        assert samples[("repro_a_total", (("engine", "fast"),))] == 12345
        assert samples[("repro_rate", ())] == 0.1 + 0.2  # bit-exact
        assert samples[("repro_sizes_bucket", (("value", "64"),))] == 1

    def test_environment_stamp_and_stable_exports(self):
        registry = MetricRegistry()
        registry.counter("repro_a_total").inc()
        text = registry.to_text()
        assert "repro_environment_info{" in text
        assert 'python="' in text
        assert "timestamp" not in text  # stamp excluded for stability
        assert registry.to_text() == text  # unchanged registry, same bytes
        assert "repro_environment_info" not in registry.to_text(
            environment=False
        )

    def test_snapshot_is_json_ready(self):
        registry = MetricRegistry()
        registry.counter("repro_a_total", kind="x").inc(2)
        registry.histogram("repro_h").observe(3)
        assert json.loads(json.dumps(registry.snapshot()))

    def test_bulk_observations_equal_repeated_ones(self):
        """``observe(value, count)`` and ``observe_all(values)`` leave a
        histogram exactly as one ``observe`` per value would, its float
        sum included (the values are added in order)."""
        values = [0.1, 0.7, 3.3, 55.0, float("nan"), 1000.0, 0.2, 7.9]
        for buckets in (None, (1.0, 10.0, 100.0)):
            one, bulk, weighted = (MetricRegistry().histogram(
                "repro_h", buckets=buckets) for _ in range(3))
            for value in values:
                one.observe(value)
            bulk.observe(0.3)
            bulk.observe_all(values[:3])
            bulk.observe_all(values[3:])
            one.observe(0.3)
            assert bulk.count == one.count == len(values) + 1
            assert repr(bulk.sum) == repr(one.sum)
            if buckets is None:
                continue  # NaN keys never compare equal
            assert bulk.counts() == one.counts()
            for value in (2, 2, 2, 9):
                one.observe(value)
            weighted.observe(2, 3)
            weighted.observe(9)
            assert weighted.counts() == {10.0: 4}
            assert weighted.count == 4 and weighted.sum == 15.0

    def test_collectors_run_before_every_export(self):
        """A collector hands its plain counts to the instruments when
        the registry is read."""
        registry = MetricRegistry()
        counter = registry.counter("repro_src_total")
        pending = [0]

        def publish() -> None:
            counter.inc(pending[0])
            pending[0] = 0

        registry.add_collector(publish)
        pending[0] = 5
        assert counter.value == 0  # not handed over yet
        samples = parse_prometheus_text(registry.to_text())
        assert samples[("repro_src_total", ())] == 5
        pending[0] = 2
        assert registry.snapshot()["repro_src_total"]["series"][0][
            "value"] == 7
        assert [i.name for i in registry.collect()] == ["repro_src_total"]
        assert counter.value == 7


# -- instrumentation sites -----------------------------------------------------------


class TestEngineInstrumentation:
    def test_fast_engine_emits_kernel_and_replay_spans(self, installed_tracer):
        network = random_network()
        spikes = random_spikes(4)
        network.classify_batch(spikes, engine="fast")
        names = [s.name for s in installed_tracer.spans()]
        n_tiles = len(network.tiles)
        assert names.count("engine.kernel") == n_tiles
        assert names.count("engine.replay") == n_tiles

    def test_bitpacked_adds_pack_spans_and_memo_gauges(self, installed_tracer):
        network = random_network()
        spikes = random_spikes(4)
        network.classify_batch(spikes, engine="bitpacked")
        names = [s.name for s in installed_tracer.spans()]
        assert names.count("engine.pack") == len(network.tiles)
        registry = get_registry()
        patterns = registry.gauge("repro_bitpacked_memo_patterns").value
        assert patterns > 0
        rate = registry.gauge("repro_bitpacked_memo_hit_rate").value
        assert 0.0 <= rate <= 1.0

    def test_tracing_does_not_change_predictions(self):
        network = random_network(seed=5)
        spikes = random_spikes(8, seed=9)
        baseline = network.classify_batch(spikes, engine="fast")
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            traced = network.classify_batch(spikes, engine="fast")
        finally:
            set_tracer(previous)
        assert np.array_equal(baseline, traced)
        assert tracer.stats()["spans_recorded"] > 0


class TestServerInstrumentation:
    def test_serving_emits_request_and_flush_spans(self, installed_tracer):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        spikes = random_spikes(6)
        server = InferenceServer(
            registry, policy=BatchPolicy(max_batch_size=4, max_wait_ms=1.0),
        )
        with server:
            futures = [server.submit("demo", row) for row in spikes]
            results = [f.result(timeout=10.0) for f in futures]
        assert all(isinstance(r, int) for r in results)
        spans = installed_tracer.spans()
        names = [s.name for s in spans]
        assert names.count("serve.queue_wait") == len(spikes)
        assert "serve.batch_assembly" in names
        assert "serve.flush" in names
        flush = next(s for s in spans if s.name == "serve.flush")
        assert flush.attrs["model"] == "demo"
        assert flush.attrs["outcome"] == "completed"
        # The engine reads the same installed tracer, so its spans
        # land in the same trace as the flush that ran them.
        assert "engine.kernel" in names


class TestCampaignInstrumentation:
    def test_runner_counts_and_traces(self, tmp_path, installed_tracer):
        from repro.sweep import ResultCache, SweepRunner, SweepSpec

        registry = get_registry()
        hits_before = registry.counter(
            "repro_cache_hits_total", kind="sweep"
        ).value
        misses_before = registry.counter(
            "repro_cache_misses_total", kind="sweep"
        ).value

        spec = SweepSpec(name="obs", cell_types=(CellType.C1RW4R,),
                         vprechs=(0.5, 0.6, 0.7), sample_images=(2,),
                         quality="fast")
        cache = ResultCache(tmp_path / "cache")
        cold = SweepRunner(spec, cache=cache).run()
        assert (cold.stats.cache_hits, cold.stats.evaluated) == (0, 3)
        warm = SweepRunner(spec, cache=cache).run()
        assert (warm.stats.cache_hits, warm.stats.evaluated) == (3, 0)
        assert [r.metrics for r in warm.rows] == \
            [r.metrics for r in cold.rows]

        hits = registry.counter(
            "repro_cache_hits_total", kind="sweep"
        ).value
        misses = registry.counter(
            "repro_cache_misses_total", kind="sweep"
        ).value
        assert hits - hits_before == 3
        assert misses - misses_before == 3
        spans = installed_tracer.spans()
        names = [s.name for s in spans]
        assert names.count("campaign.cache_scan") == 2
        assert names.count("campaign.evaluate") == 2
        scans = [s.attrs for s in spans if s.name == "campaign.cache_scan"]
        assert scans == [
            {"kind": "sweep", "points": 3, "hits": 0, "misses": 3},
            {"kind": "sweep", "points": 3, "hits": 3, "misses": 0},
        ]
        points = [s.attrs for s in spans if s.name == "campaign.point"]
        assert points == [{"kind": "sweep", "index": i} for i in range(3)]


# -- the dashboard -------------------------------------------------------------------


class TestReport:
    def _bench_dir(self, tmp_path):
        bench = tmp_path / "benches"
        bench.mkdir()
        (bench / "BENCH_demo.json").write_text(json.dumps({
            "speedup": 21.5,
            "nested": {"inf_per_s": 125000.0},
            "environment": {"python": "3.11.7", "git_sha": "abc123"},
        }))
        (bench / "BENCH_broken.json").write_text("{not json")
        (bench / "ignored.json").write_text("{}")
        return bench

    def test_collect_is_sorted_and_fault_tolerant(self, tmp_path):
        benches = collect_bench_files(self._bench_dir(tmp_path))
        assert list(benches) == ["BENCH_broken.json", "BENCH_demo.json"]
        assert "unreadable" in benches["BENCH_broken.json"]["error"]

    def test_trace_aggregate_rolls_up_per_name(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for duration in (0.010, 0.030):
            with tracer.span("serve.flush"):
                clock.advance(duration)
        rows = trace_aggregate(tracer.spans())
        assert rows[0]["name"] == "serve.flush"
        assert rows[0]["count"] == 2
        assert rows[0]["total_ms"] == pytest.approx(40.0)
        assert rows[0]["max_ms"] == pytest.approx(30.0)

    def test_render_contains_benches_trace_and_charts(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("engine.kernel", tile=0):
            clock.advance(0.002)
        html_text = render_report(
            collect_bench_files(self._bench_dir(tmp_path)),
            trace_path="t.jsonl", spans=tracer.spans(),
        )
        for needle in ("BENCH_demo.json", "nested.inf_per_s",
                       "engine.kernel", "<svg", "repro dashboard",
                       "BENCH_broken.json"):
            assert needle in html_text
        assert "ignored.json" not in html_text

    def test_write_report_requires_real_inputs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_report(tmp_path / "out.html",
                         bench_dir=tmp_path / "missing")
        with pytest.raises(ConfigurationError):
            write_report(tmp_path / "out.html", bench_dir=tmp_path,
                         trace_path=tmp_path / "missing.jsonl")

    def test_empty_bench_dir_still_renders(self, tmp_path):
        out = write_report(tmp_path / "out.html", bench_dir=tmp_path)
        assert "No <code>BENCH_*.json</code>" in out.read_text()


class TestCliEndToEnd:
    def test_serve_trace_to_report(self, tmp_path, capsys):
        """The acceptance pipeline: traced serve run -> HTML dashboard."""
        from repro.obs.__main__ import main as obs_main
        from repro.serve.__main__ import main as serve_main

        trace = tmp_path / "serve.trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = serve_main([
            "--rate", "400", "--duration", "0.25", "--clients", "2",
            "--quality", "fast",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 0
        assert isinstance(get_tracer(), NullTracer)  # scope restored

        spans = spans_from_jsonl(trace)
        names = {s.name for s in spans}
        assert {"serve.queue_wait", "serve.flush",
                "engine.kernel"} <= names
        samples = parse_prometheus_text(metrics.read_text())
        assert samples[("repro_serving_completed_total", ())] == 100
        # The run's metrics lived in the scope's own registry: the
        # process-global registry must not have absorbed them, so two
        # CLI runs in one process can never accumulate.
        assert get_registry().counter(
            "repro_serving_completed_total"
        ).value == 0

        bench = tmp_path / "benches"
        bench.mkdir()
        (bench / "BENCH_demo.json").write_text(json.dumps({
            "speedup": 14.9, "environment": {"python": "3.11.7"},
        }))
        out = tmp_path / "report.html"
        code = obs_main([
            "report", "--out", str(out),
            "--bench-dir", str(bench), "--trace", str(trace),
        ])
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        html_text = out.read_text()
        for needle in ("BENCH_demo.json", "serve.flush", "<svg",
                       "repro dashboard"):
            assert needle in html_text

    def test_report_cli_rejects_missing_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        code = obs_main([
            "report", "--out", str(tmp_path / "r.html"),
            "--bench-dir", str(tmp_path),
            "--trace", str(tmp_path / "nope.jsonl"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
