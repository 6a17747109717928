"""Campaign phase: the default reliability grid, cold and then warm.

Each repetition runs ``reliability_spec()`` (18 fault points: six bit-error
rates x three corners, :data:`TRIALS` Monte-Carlo trials each) cold into a
fresh ``ResultCache`` with the result store attached, then re-runs it warm
from that cache.  Every trial rewrites every macro's weights and forces an
engine rebuild, so this is the phase with writes beside reads.  The seed
offsets the Monte-Carlo trial stream, so each seed draws other fault masks.
The warm rows must equal the cold rows.

In a traced run the phase also replays every point's trials from outside
through the public ``FaultInjector.apply_trial`` and ``classify_batch``, to
time fault injection and the post-write classify apart; the replayed
accuracies must equal the campaign's.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import tempfile
import time
from dataclasses import dataclass

from repro.obs import MetricRegistry, set_registry
from repro.reliability.runner import ReliabilityRunner
from repro.reliability.spec import FaultCampaignSpec, reliability_spec
from repro.snn.encode import encode_images
from repro.sram.faults import FaultInjector
from repro.store.index import STORE_FILENAME, ResultStore
from repro.sweep.cache import ResultCache
from repro.tile.network import EsamNetwork

from perfbench.layers import durations_ms, select
from perfbench.stats import median, summarize

#: Monte-Carlo trials per fault point.
TRIALS = 4
#: Warm re-runs timed after each cold run.
WARM_RERUNS = 3


@dataclass(frozen=True)
class SeededCampaign(FaultCampaignSpec):
    """A campaign grid whose trial stream starts at ``trial_start``."""

    trial_start: int = 0

    def expand(self):
        return [
            dataclasses.replace(point, trial_start=self.trial_start)
            for point in super().expand()
        ]


def campaign_spec(seed: int) -> SeededCampaign:
    base = reliability_spec(trials=TRIALS)
    fields = {f.name: getattr(base, f.name)
              for f in dataclasses.fields(FaultCampaignSpec)}
    return SeededCampaign(**fields, trial_start=seed * TRIALS)


class TracedCache(ResultCache):
    """A result cache whose commits are spans of the benchmark's tracer."""

    def __init__(self, root, *, tracer, **kwargs) -> None:
        super().__init__(root, **kwargs)
        self._tracer = tracer

    def put(self, key: str, row: dict):
        with self._tracer.span("store.commit"):
            return super().put(key, row)


def _row_identity(row) -> tuple:
    return (row.point, row.accuracies, row.flipped_bits)


def _cache_counts(registry) -> tuple[int, int]:
    return tuple(
        int(registry.counter(name, kind="reliability").value)
        for name in ("repro_cache_hits_total", "repro_cache_misses_total")
    )


def _one_repetition(ctx, spec, scratch_dir: str, registry) -> dict:
    """Cold run into a fresh cache + store, then the warm re-run."""
    root = tempfile.mkdtemp(prefix="campaign-", dir=scratch_dir)
    try:
        with ResultStore(f"{root}/{STORE_FILENAME}") as store:
            if ctx.tracer is None:
                cache = ResultCache(root, store=store)
            else:
                cache = TracedCache(root, store=store, tracer=ctx.tracer)
            # Garbage left by earlier phases is collected before each
            # timed run, so no run pays for another's allocations.
            gc.collect()
            cold_start = ctx.now()
            cold = ReliabilityRunner(spec, n_workers=1, cache=cache).run()
            cold_s = ctx.now() - cold_start
            before = _cache_counts(registry)
            warm_s = []
            warm_start = ctx.now()
            for _ in range(WARM_RERUNS):
                gc.collect()
                started = ctx.now()
                warm = ReliabilityRunner(spec, n_workers=1, cache=cache).run()
                warm_s.append(ctx.now() - started)
            warm_end = ctx.now()
            hits, misses = (a - b for a, b in
                            zip(_cache_counts(registry), before))
            entries = len(store)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"cold": cold, "warm": warm, "entries": entries,
            "cold_s": cold_s, "warm_s": warm_s,
            "warm_hits": hits, "warm_misses": misses,
            "window": (cold_start, warm_start, warm_end)}


class CampaignPhase:
    """Cold-then-warm campaign repetitions, run in slices over the run."""

    def __init__(self, ctx, scratch_dir: str) -> None:
        self.ctx = ctx
        self.scratch_dir = scratch_dir
        self.spec = campaign_spec(ctx.seed)
        self.n_points = len(self.spec)
        #: A registry of the phase's own, installed only while it runs,
        #: holds the program's cache hit/miss counters.
        self.registry = MetricRegistry()
        self.reps: list[dict] = []

    def run_slice(self, budget_s: float) -> None:
        deadline = time.perf_counter() + budget_s
        previous = set_registry(self.registry)
        try:
            while True:
                self._repetition()
                if time.perf_counter() >= deadline:
                    break
        finally:
            set_registry(previous)

    def _repetition(self) -> None:
        ctx, n_points = self.ctx, self.n_points
        rep = _one_repetition(ctx, self.spec, self.scratch_dir,
                              self.registry)
        cold_rows = [_row_identity(r) for r in rep["cold"].rows]
        warm_rows = [_row_identity(r) for r in rep["warm"].rows]
        first_rows = [_row_identity(r) for r in
                      (self.reps[0] if self.reps else rep)["cold"].rows]
        cold, warm = rep["cold"].stats, rep["warm"].stats
        ok = (cold.evaluated == n_points
              and warm.cache_hits == n_points and warm.evaluated == 0
              and warm_rows == cold_rows == first_rows
              and rep["entries"] == n_points)
        ctx.check("campaign_warm_equals_cold", ok,
                  f"cold {cold} warm {warm}, {rep['entries']} store "
                  f"entries, warm rows equal cold rows: "
                  f"{warm_rows == cold_rows}")
        ctx.count((1 + WARM_RERUNS) * n_points, 0 if ok else n_points)
        self.reps.append(rep)

    def finish(self, reference) -> None:
        ctx, reps, n_points = self.ctx, self.reps, self.n_points
        rows = reps[0]["cold"].rows
        cold_s = [rep["cold_s"] for rep in reps]
        warm_s = [s for rep in reps for s in rep["warm_s"]]
        mean_accuracy = sum(r.mean_accuracy for r in rows) / n_points
        ctx.metric("points_s", n_points / median(cold_s), "points/s")
        ctx.metric("campaign.warm_rerun_s", median(warm_s), "s")
        ctx.metric("fault_accuracy", mean_accuracy, "ratio")
        ctx.report["campaign"] = {
            "points": n_points,
            "trials": TRIALS,
            "trial_start": self.spec.trial_start,
            "repetitions": len(reps),
            "cold_s": summarize(cold_s, "s"),
            "warm_s": summarize(warm_s, "s"),
            "mean_accuracy": mean_accuracy,
        }
        if ctx.tracer is None:
            return
        hits = sum(rep["warm_hits"] for rep in reps)
        misses = sum(rep["warm_misses"] for rep in reps)
        ctx.metric("campaign.hit_ratio", hits / max(1, hits + misses),
                   "ratio")
        _campaign_layers(ctx, reference, self.spec, rows,
                         [rep["window"] for rep in reps])


def _campaign_layers(ctx, reference, spec, rows, windows) -> None:
    spans = ctx.tracer.spans()
    cold = [(start, warm_start) for start, warm_start, _ in windows]
    warm = [(warm_start, end) for _, warm_start, end in windows]
    points = select(spans, "campaign.point", windows=cold)
    commits = select(spans, "store.commit", windows=cold)
    scans = select(spans, "campaign.cache_scan", windows=warm)
    ctx.metric("campaign.point_ms", median(durations_ms(points)), "ms")
    ctx.metric("store.commit_ms", median(durations_ms(commits)), "ms")
    ctx.metric("campaign.cache_scan_ms", median(durations_ms(scans)), "ms")

    snn = reference.snn
    inject_ms, classify_ms = [], []
    mismatched = 0
    for point, row in zip(spec.expand(), rows):
        spikes = encode_images(
            reference.dataset.test_images[:point.sample_images])
        labels = reference.dataset.test_labels[:point.sample_images]
        injector = FaultInjector(snn.weights, snn.thresholds,
                                 snn.output_bias, config=point.hardware)
        network = EsamNetwork(snn.weights, snn.thresholds,
                              output_bias=snn.output_bias,
                              config=point.hardware)
        accuracies = []
        for trial in point.trial_indices:
            with ctx.span("sram.fault_inject"):
                started = time.perf_counter()
                injector.apply_trial(network, point.bit_error_rate, trial)
                inject_ms.append((time.perf_counter() - started) * 1e3)
            with ctx.span("campaign.classify"):
                started = time.perf_counter()
                predictions = network.classify_batch(spikes,
                                                     engine=point.engine)
                classify_ms.append((time.perf_counter() - started) * 1e3)
            accuracies.append(float((predictions == labels).mean()))
        mismatched += tuple(accuracies) != row.accuracies
    ctx.check("campaign_replay", mismatched == 0,
              f"{mismatched} points replayed to other accuracies")
    ctx.count(len(rows), mismatched)
    ctx.metric("sram.fault_inject_ms", median(inject_ms), "ms")
    ctx.metric("campaign.classify_ms", median(classify_ms), "ms")
