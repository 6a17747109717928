"""Performance of the simulator itself (not a paper figure).

Keeps the spike-by-spike simulator honest as the codebase grows: one
full-network inference and one functional-model batch must stay fast
enough for the system sweeps to be practical, and every optimized
engine backend must keep its lead over the per-cycle reference while
producing bit-identical traces.  The per-backend comparison is written
to ``BENCH_simulator.json`` so the perf trajectory is tracked across
PRs.  Backends are not ranked against each other here: warm best-of-3
runs order them by whether the BLAS threads happen to be warm, not by
their arithmetic (``perfbench/`` measures them cold).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.snn.encode import encode_images
from repro.sram.bitcell import CellType
from repro.sweep import DesignPoint, build_network
from repro.tile.backends import backend_names
from repro.tile.network import InferenceTrace

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
BATCH_IMAGES = 256

#: Timed runs per optimized backend; the best is reported, so warm
#: caches (e.g. bitpacked's memoized drain schedules) legitimately
#: count — sweeps and serving run warm.
TIMED_REPEATS = 3


@pytest.mark.benchmark(group="simulator")
def test_cycle_accurate_inference_speed(benchmark, reference_model):
    net = build_network(DesignPoint(cell_type=CellType.C1RW4R),
                        reference_model.snn)
    spikes = encode_images(reference_model.dataset.test_images[0])

    def run():
        return net.classify(spikes)

    prediction = benchmark(run)
    assert 0 <= prediction <= 9


@pytest.mark.benchmark(group="simulator")
def test_functional_batch_speed(benchmark, reference_model):
    model = reference_model.snn.to_model()
    spikes = encode_images(reference_model.dataset.test_images[:256])

    def run():
        return model.classify(spikes)

    predictions = benchmark(run)
    assert predictions.shape == (256,)


@pytest.mark.benchmark(group="simulator")
def test_fast_engine_batch_speed(benchmark, reference_model):
    """Schedule-based engine on a 256-image cycle-accurate batch."""
    net = build_network(DesignPoint(cell_type=CellType.C1RW4R),
                        reference_model.snn)
    spikes = encode_images(reference_model.dataset.test_images[:BATCH_IMAGES])
    net.engine_backend("fast")  # build outside the timed region

    def run():
        net.reset_stats()
        return net.classify_batch(spikes, engine="fast")

    predictions = benchmark(run)
    assert predictions.shape == (BATCH_IMAGES,)


def test_engine_speedup_and_equivalence(reference_model, bench_report):
    """Every backend vs the cycle reference on 768:256:256:256:10.

    Times each registered optimized backend over the same 256-image
    batch, asserts bit-identical predictions and trace statistics per
    backend and the >=20x fast-engine speedup target.  Emits a
    per-backend section in BENCH_simulator.json for cross-PR tracking.
    """
    spikes = encode_images(reference_model.dataset.test_images[:BATCH_IMAGES])
    net = build_network(DesignPoint(cell_type=CellType.C1RW4R),
                        reference_model.snn)

    net.reset_stats()
    cycle_trace = InferenceTrace()
    t0 = time.perf_counter()
    cycle_preds = np.array([net.classify(row, cycle_trace) for row in spikes])
    cycle_s = time.perf_counter() - t0
    cycle_energy_pj = net.dynamic_energy_pj()

    backends: dict[str, dict] = {
        "cycle": {
            "seconds": round(cycle_s, 4),
            "images_per_s": round(BATCH_IMAGES / cycle_s, 2),
            "speedup": 1.0,
        },
    }
    speedups: dict[str, float] = {}
    for name in backend_names():
        if name == "cycle":
            continue
        net.engine_backend(name)  # exclude one-time snapshot/packing
        best_s = float("inf")
        for _ in range(TIMED_REPEATS):
            net.reset_stats()
            trace = InferenceTrace()
            t0 = time.perf_counter()
            preds = net.classify_batch(spikes, trace, engine=name)
            best_s = min(best_s, time.perf_counter() - t0)
        assert np.array_equal(preds, cycle_preds), name
        assert trace.per_tile_cycles == cycle_trace.per_tile_cycles, name
        assert trace.total_spikes == cycle_trace.total_spikes, name
        assert trace.total_grants == cycle_trace.total_grants, name
        assert trace.total_array_reads == cycle_trace.total_array_reads, name
        assert net.dynamic_energy_pj() == pytest.approx(
            cycle_energy_pj, rel=1e-9
        ), name
        speedups[name] = cycle_s / best_s
        backends[name] = {
            "seconds": round(best_s, 4),
            "images_per_s": round(BATCH_IMAGES / best_s, 2),
            "speedup": round(speedups[name], 1),
        }

    payload = {
        "batch_images": BATCH_IMAGES,
        "network": "768:256:256:256:10",
        "cell_type": CellType.C1RW4R.value,
        "backends": backends,
        "bit_identical_traces": True,
    }
    bench_report(BENCH_JSON, payload, net.config)
    print("\n" + ", ".join(
        f"{name}: {stats['images_per_s']:,.0f} img/s "
        f"({stats['speedup']:.0f}x)"
        for name, stats in backends.items()
    ) + f" (JSON: {BENCH_JSON.name})")
    assert speedups["fast"] >= 20.0
