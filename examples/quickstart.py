"""Quickstart: classify digits on the ESAM accelerator.

Builds the paper's 768:256:256:256:10 binary SNN (training it on first
run and caching the weights), runs a handful of images through the
cycle-accurate hardware simulator, and prints the hardware report —
the same throughput / energy / power metrics the paper's abstract
quotes (44 MInf/s, 607 pJ/Inf, 29 mW for the 1RW+4R cell).

Run:  python examples/quickstart.py
"""

from repro import EsamSystem
from repro.hw.config import HardwareConfig
from repro.learning.pretrained import get_reference_model


def main() -> None:
    print("loading (or training) the reference network ...")
    reference = get_reference_model(quality="full")
    print(f"  test accuracy (functional model): "
          f"{reference.test_accuracy * 100:.2f}%")

    # The paper's design point: 1RW+4R cell, 500 mV precharge, 3nm.
    system = EsamSystem(reference.snn, config=HardwareConfig())
    print(f"\nbuilt {system!r}")
    print(f"  neurons:  {system.network.neuron_count}")
    print(f"  synapses: {system.network.synapse_count}")
    print(f"  clock:    {system.network.clock_period_ns:.2f} ns")

    images = reference.dataset.test_images[:24]
    labels = reference.dataset.test_labels[:24]
    print(f"\nclassifying {len(images)} digits cycle-accurately ...")
    result = system.classify_images(images, labels)

    print(f"  predictions: {result.predictions.tolist()}")
    print(f"  labels:      {labels.tolist()}")
    print(f"  accuracy:    {result.accuracy * 100:.1f}%")
    print(f"\nhardware report:\n  {result.report.summary()}")
    metrics = result.report.metrics
    print(f"  energy breakdown: dynamic {metrics.dynamic_energy_pj:.0f} pJ, "
          f"clock {metrics.clock_energy_pj:.0f} pJ, "
          f"leakage {metrics.leakage_energy_pj:.0f} pJ")


if __name__ == "__main__":
    main()
