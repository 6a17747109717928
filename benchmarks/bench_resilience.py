"""Resilience overhead: what fault tolerance costs when faults happen.

The resilience layer's guarantees are functional (no silent drops,
bit-identical recovery, zero-recompute resume) and pinned by the chaos
acceptance suite; this benchmark prices them.  It drives the same
seeded serving trace clean and under injected flush faults (absorbed
by a :class:`~repro.resilience.policy.RetryPolicy`), runs the same
small fault campaign clean and under injected worker crashes (healed
by the shard supervisor), and measures the warm cached re-run that
resuming an interrupted campaign rides on.  Recovered outputs must
stay bit-identical to the clean runs, and ``BENCH_resilience.json``
records the overhead ratios so a regression in recovery cost shows up
in the trajectory.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.reliability import FaultCampaignSpec, ReliabilityRunner
from repro.resilience import ChaosPolicy, RetryPolicy, SupervisorPolicy
from repro.serve import BatchPolicy, InferenceServer, ModelRegistry
from repro.sweep import ResultCache
from repro.tile.network import EsamNetwork

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
N_REQUESTS = 192
FLUSH_ERROR_P = 0.3
POLICY = BatchPolicy(max_batch_size=16, max_wait_ms=0.5)


def _random_network(layers=(64, 32, 10), seed=0) -> EsamNetwork:
    rng = np.random.default_rng(seed)
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    thresholds = [
        np.full(b, max(1, a // 16), dtype=np.int64)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    return EsamNetwork(weights, thresholds)


def _serve_trace(network: EsamNetwork, spikes: np.ndarray,
                 chaos: ChaosPolicy | None) -> tuple[list[int], float, dict]:
    registry = ModelRegistry()
    registry.register_network("m", network)
    server = InferenceServer(
        registry, policy=POLICY,
        retry=RetryPolicy(retries=6, base_delay_ms=0.0) if chaos else None,
        chaos=chaos,
    )
    t0 = time.perf_counter()
    with server:
        futures = [server.submit("m", row) for row in spikes]
        served = [future.result(timeout=60.0) for future in futures]
    elapsed = time.perf_counter() - t0
    return served, elapsed, server.metrics.to_dict()


def _run_campaign(cache_dir: Path, chaos: ChaosPolicy | None):
    spec = FaultCampaignSpec(
        name="bench-resilience", bit_error_rates=(0.0, 1e-3, 5e-2),
        trials=2, sample_images=8, quality="fast",
    )
    runner = ReliabilityRunner(
        spec, cache=ResultCache(cache_dir), chaos=chaos,
        supervisor=SupervisorPolicy(retry_budget=3) if chaos else None,
    )
    t0 = time.perf_counter()
    result = runner.run()
    return runner, result, time.perf_counter() - t0


def test_resilience_overhead(tmp_path, bench_report):
    network = _random_network()
    spikes = (
        np.random.default_rng(7).random((N_REQUESTS, 64)) < 0.2
    )
    offline = [int(p) for p in network.classify_batch(spikes)]

    # One-time costs (trained-model disk cache, engine warmup) would
    # otherwise land entirely on the clean timings and make the chaos
    # overhead ratios meaningless — pay them before the stopwatch.
    from repro.learning.pretrained import get_reference_model

    get_reference_model(quality="fast", seed=42)
    _serve_trace(network, spikes[:32], None)

    # -- serving: clean vs chaos-with-retries ------------------------------
    clean, clean_s, _ = _serve_trace(network, spikes, None)
    chaos = ChaosPolicy(seed=17, flush_error_p=FLUSH_ERROR_P)
    stressed, stressed_s, counts = _serve_trace(network, spikes, chaos)

    # Fault tolerance must not cost correctness: both traces are
    # bit-identical to offline, every injected fault was absorbed.
    assert clean == offline
    assert stressed == offline
    assert counts["failed"] == 0 and counts["shed"] == 0
    assert counts["retried"] > 0
    serve_overhead = stressed_s / clean_s

    # -- campaign: clean vs crash-supervised chaos, then warm resume ------
    _, ref, cold_s = _run_campaign(tmp_path / "clean", None)
    campaign_chaos = ChaosPolicy(seed=11, worker_crash_p=0.6)
    runner, healed, chaos_s = _run_campaign(tmp_path / "chaos", campaign_chaos)
    crashes = sum(
        campaign_chaos.crashes_for(str(i)) for i in range(len(healed.rows))
    )
    assert [r.accuracies for r in healed.rows] == \
        [r.accuracies for r in ref.rows]

    t0 = time.perf_counter()
    warm = runner.run()
    warm_s = time.perf_counter() - t0
    assert warm.stats.evaluated == 0
    assert warm.stats.cache_hits == len(warm.rows)
    assert len(runner.cache) == len(warm.rows)  # one entry per point

    payload = {
        "serving": {
            "n_requests": N_REQUESTS,
            "flush_error_p": FLUSH_ERROR_P,
            "clean_s": round(clean_s, 4),
            "chaos_s": round(stressed_s, 4),
            "overhead_x": round(serve_overhead, 3),
            "retries_absorbed": counts["retried"],
            "bit_identical": stressed == offline,
        },
        "campaign": {
            "points": len(ref.rows),
            "worker_crash_p": campaign_chaos.worker_crash_p,
            "crashes_injected": crashes,
            "clean_s": round(cold_s, 4),
            "chaos_s": round(chaos_s, 4),
            "overhead_x": round(chaos_s / cold_s, 3),
            "resume_warm_s": round(warm_s, 4),
            "resume_evaluated": warm.stats.evaluated,
            "bit_identical": True,
        },
    }
    bench_report(BENCH_JSON, payload, network.config)
    print(
        f"\nresilience: serving {serve_overhead:.2f}x under "
        f"{counts['retried']} absorbed faults; campaign "
        f"{chaos_s / cold_s:.2f}x under {crashes} injected crashes; "
        f"warm resume {warm_s * 1e3:.0f} ms for {len(warm.rows)} points"
    )
