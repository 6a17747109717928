"""Edge scenario: always-on binary-pattern spotting on a single tile.

The paper motivates ESAM with battery-powered edge devices (wearables,
IoT sensors).  This example models such a deployment: a single-tile
binary SNN watches a stream of 128-bit sensor frames for a small set of
target signatures and must decide per frame whether to wake the host.

It shows the event-driven advantage quantitatively: energy per frame is
proportional to the number of *active* bits (spikes), so sparse idle
traffic is nearly free — the behaviour that makes CIM-P attractive for
always-on duty.

Run:  python examples/edge_keyword_spotting.py
"""

import numpy as np

from repro.hw.config import HardwareConfig
from repro.system.energy import SystemEnergyModel
from repro.tile.network import EsamNetwork, InferenceTrace


def build_detector(rng, n_signatures: int = 8):
    """One tile whose neurons each match one stored signature."""
    signatures = (rng.random((n_signatures, 128)) < 0.25).astype(np.uint8)
    weights = signatures.T.copy()  # neuron k's column = signature k
    # Fire when at least 80 % of a signature's active bits agree:
    # Vmem = (#matching active bits) - (#active bits missing the weight).
    thresholds = np.maximum(1, (signatures.sum(axis=1) * 0.6).astype(np.int64))
    network = EsamNetwork([weights], [thresholds], config=HardwareConfig())
    return network, signatures


def run_stream(network, signatures, rng, frames: int, activity: float,
               hit_rate: float):
    trace = InferenceTrace()
    thresholds = network.tiles[0].neurons[0].thresholds
    true_hits = 0
    detected = 0
    for _ in range(frames):
        if rng.random() < hit_rate:
            k = int(rng.integers(0, signatures.shape[0]))
            frame = (signatures[k] | (rng.random(128) < 0.02)).astype(np.uint8)
            is_hit = True
        else:
            frame = (rng.random(128) < activity).astype(np.uint8)
            is_hit = False
        # The single output tile is read out via Vmem; the wake decision
        # is the digital threshold comparison on the readout values.
        vmem = network.infer(frame.astype(bool), trace)
        fired = bool((vmem >= thresholds[: len(vmem)]).any())
        true_hits += int(is_hit)
        detected += int(fired and is_hit)
    metrics = SystemEnergyModel(network).metrics(trace)
    network.reset_stats()
    return metrics, true_hits, detected


def main() -> None:
    rng = np.random.default_rng(21)
    network, signatures = build_detector(rng)
    print(f"detector: single {network!r}")

    print("\nduty-cycle sweep (256 frames each):")
    print(f"  {'idle activity':>13s} {'pJ/frame':>9s} {'mW @ frame rate':>16s} "
          f"{'detected/true':>14s}")
    for activity in (0.01, 0.05, 0.15, 0.30):
        metrics, true_hits, detected = run_stream(
            network, signatures, rng, frames=256, activity=activity,
            hit_rate=0.05,
        )
        print(
            f"  {activity * 100:12.0f}% {metrics.energy_per_inference_pj:9.1f} "
            f"{metrics.power_mw:16.2f} {detected:7d}/{true_hits:<6d}"
        )
    print("\nsparser idle traffic -> proportionally less energy per frame:")
    print("the event-driven CIM-P tile only pays for spikes it serves.")


if __name__ == "__main__":
    main()
