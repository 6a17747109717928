"""Online learning through the transposable SRAM port.

Demonstrates the paper's on-chip learning path (sections 2.2, 3.2 and
4.4.1): stochastic 1-bit STDP imprints input patterns into a tile's
synapse columns using column-wise read-modify-write accesses, and the
learning cost (the tile's count of column updates, each priced by the
transposed-port model) shows why the transposed port matters — the
same session on the 6T baseline costs >10x more time.

Run:  python examples/online_learning_demo.py
"""

import numpy as np

from repro import CellType, EsamSystem
from repro.hw.config import HardwareConfig
from repro.learning.online import column_update_comparison
from repro.learning.stdp import StochasticSTDP


def imprint_patterns(cell_type: CellType, steps: int = 60):
    """Teach neurons 0..3 of a random tile four distinct patterns."""
    rng = np.random.default_rng(11)
    system = EsamSystem.from_random(
        (128, 32, 10), seed=5, config=HardwareConfig(cell_type=cell_type)
    )
    engine = system.online_learning_engine(
        layer=0, rule=StochasticSTDP(p_potentiate=0.4, p_depress=0.2, seed=7)
    )
    patterns = (rng.random((4, 128)) < 0.3).astype(np.uint8)
    for step in range(steps):
        neuron = step % 4
        engine.learn(patterns[neuron], np.array([neuron]))
    weights = system.network.tiles[0].weight_matrix()
    agreements = [
        float((weights[:, k] == patterns[k]).mean()) for k in range(4)
    ]
    return engine.report, agreements


def main() -> None:
    print("=== section 4.4.1: column-update cost per cell ===")
    comparison = column_update_comparison()
    for cell, row in comparison.items():
        print(
            f"  {cell:8s}: {row['accesses']:5.0f} accesses, "
            f"read {row['read_time_ns']:7.2f} ns, "
            f"write {row['write_time_ns']:7.2f} ns, "
            f"{row['energy_pj']:7.2f} pJ"
        )
    best = comparison["1RW+4R"]
    print(f"  paper: 9.9 ns / 8.04 ns per column on 1RW+4R -> measured "
          f"{best['read_time_ns']:.2f} / {best['write_time_ns']:.2f} ns")

    print("\n=== STDP imprinting on the 1RW+4R tile ===")
    report, agreements = imprint_patterns(CellType.C1RW4R)
    for k, agreement in enumerate(agreements):
        print(f"  neuron {k}: column matches its pattern at "
              f"{agreement * 100:.1f}%")
    print(f"  learning cost: {report.column_updates} column updates, "
          f"{report.transposed_accesses} transposed accesses, "
          f"{report.time_ns:.1f} ns, {report.energy_pj:.1f} pJ")

    print("\n=== same session on the 6T baseline ===")
    report_6t, _ = imprint_patterns(CellType.C6T)
    print(f"  learning cost: {report_6t.time_ns:.0f} ns, "
          f"{report_6t.energy_pj:.0f} pJ")
    print(f"  transposable speedup: "
          f"{report_6t.time_ns / report.time_ns:.1f}x time, "
          f"{report_6t.energy_pj / report.energy_pj:.1f}x energy")


if __name__ == "__main__":
    main()
