"""Extension — discrete pipelined execution vs the analytic model.

Figure 8's throughput uses the slowest tile's drain time as the
steady-state initiation interval.  This benchmark runs the tile
pipeline as an actual cycle-granular schedule (with back-pressure) and
checks the measured interval against the analytic one.
"""

import numpy as np
import pytest

from repro.sram.bitcell import CellType
from repro.sweep import DesignPoint, build_network
from repro.tile.network import InferenceTrace
from repro.tile.scheduler import PipelinedScheduler


@pytest.mark.benchmark(group="extension")
def test_pipelined_stream(benchmark, reference_model):
    from repro.snn.encode import encode_images

    network = build_network(DesignPoint(cell_type=CellType.C1RW4R),
                            reference_model.snn)
    spikes = encode_images(reference_model.dataset.test_images[:16])

    # Analytic bottleneck from a sequential trace.
    trace = InferenceTrace()
    for s in spikes:
        network.infer(s, trace)
    analytic = trace.bottleneck_cycles / trace.images
    network.reset_stats()

    scheduler = PipelinedScheduler(network)
    report = benchmark.pedantic(
        scheduler.run, args=(spikes,), rounds=1, iterations=1
    )
    measured = report.sustained_cycles_per_image
    t_clk = network.clock_period_ns
    print()
    print("pipelined stream (16 images, 1RW+4R):")
    print(f"  analytic initiation interval: {analytic:.1f} cycles")
    print(f"  measured initiation interval: {measured:.1f} cycles "
          f"({report.stall_cycles} stall cycles)")
    print(f"  sustained throughput: "
          f"{1e3 / (measured * t_clk):.1f} MInf/s "
          f"(analytic {1e3 / (analytic * t_clk):.1f})")
    print(f"  mean single-image latency: "
          f"{np.mean(report.image_latency_cycles) * t_clk:.1f} ns")
    assert measured == pytest.approx(analytic, abs=3.0)
    assert len(report.outputs) == spikes.shape[0]
