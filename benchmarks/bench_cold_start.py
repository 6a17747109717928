"""Cold start: what a fresh process spends before its first inference.

Each run is a new interpreter (``sys.executable`` running this file as a
script).  It imports what serving the reference model needs, loads the
``full`` model from its artifact, builds the network on the paper point
and classifies the first 64 test digits.  ``BENCH_cold_start.json``
(schema in PAPER.md) gets the median of each stage over ``RUNS`` such
processes, the host's core count, and whether every run took the test
split from the artifact, rendering no digit.  One process runs first,
untimed, so the artifact is in the page cache before the timed runs.

The module imports only the standard library at its top: what a run
imports is part of what it times.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_cold_start.json"
RUNS = 7
BATCH_ROWS = 64
#: A run's stages in order; ``first_inference_s`` is their sum.
STAGES = ("import_s", "model_load_s", "network_build_s", "first_batch_s")


def cold_run() -> dict:
    """One process's stage times, from its first import of numpy or
    ``repro`` to the answer of its first batch."""
    started = time.perf_counter()
    from repro.data import digits
    from repro.hw.config import HardwareConfig
    from repro.learning.pretrained import get_reference_model
    from repro.snn.encode import encode_images
    from repro.tile.network import EsamNetwork
    imported = time.perf_counter()

    rendered, render = [], digits._render

    def counting_render(labels, *args):
        rendered.extend(labels.tolist())
        return render(labels, *args)

    digits._render = counting_render
    counting = time.perf_counter()
    reference = get_reference_model("full", 42)
    loaded = time.perf_counter()
    snn = reference.snn
    network = EsamNetwork(snn.weights, snn.thresholds,
                          output_bias=snn.output_bias,
                          config=HardwareConfig())
    built = time.perf_counter()
    spikes = encode_images(reference.dataset.test_images[:BATCH_ROWS])
    predictions = network.classify_batch(spikes)
    answered = time.perf_counter()
    return {
        "import_s": imported - started,
        "model_load_s": loaded - counting,
        "network_build_s": built - loaded,
        "first_batch_s": answered - built,
        "rendered_digits": len(rendered),
        "predictions": predictions.tolist(),
    }


def _spawn() -> dict:
    """Run :func:`cold_run` in a new interpreter; adds its wall time."""
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
        timeout=300,
    )
    run = json.loads(result.stdout)
    run["process_s"] = time.perf_counter() - started
    run["first_inference_s"] = sum(run[stage] for stage in STAGES)
    return run


def test_cold_start(reference_model, bench_report):
    from repro.hw.config import HardwareConfig
    from repro.snn.encode import encode_images
    from repro.tile.network import EsamNetwork

    _spawn()  # untimed: reads the artifact into the page cache
    runs = [_spawn() for _ in range(RUNS)]
    snn = reference_model.snn
    expected = EsamNetwork(
        snn.weights, snn.thresholds, output_bias=snn.output_bias,
        config=HardwareConfig(),
    ).classify_batch(
        encode_images(reference_model.dataset.test_images[:BATCH_ROWS])
    ).tolist()
    measured = (*STAGES, "first_inference_s", "process_s")
    payload = {
        "runs": RUNS,
        "batch_rows": BATCH_ROWS,
        "model": {"quality": "full", "seed": 42},
        "cpu_count": os.cpu_count(),
        "split_from_artifact": all(run["rendered_digits"] == 0
                                   for run in runs),
        "predictions_identical": all(run["predictions"] == expected
                                     for run in runs),
        "median_s": {stage: round(statistics.median(
            run[stage] for run in runs), 4) for stage in measured},
        "samples_s": {stage: [round(run[stage], 4) for run in runs]
                      for stage in measured},
    }
    bench_report(BENCH_JSON, payload, HardwareConfig())
    print(json.dumps(payload["median_s"], indent=2))
    assert payload["split_from_artifact"]
    assert payload["predictions_identical"]


if __name__ == "__main__":
    print(json.dumps(cold_run()))
