"""Design-space exploration: reproduce the paper's evaluation sweeps.

Walks the three design axes the paper explores and prints each table:

1. Figure 6 — transposed-port cost per bitcell flavor;
2. Figure 7 — precharge-voltage sweep of the decoupled read ports;
3. Figure 8 — full-system comparison of the five cell options,
   ending with the headline claims (3.1x speed, 2.2x energy
   efficiency, 44 MInf/s @ 607 pJ/Inf and 29 mW).

The system-level sweep runs through the sharded sweep engine
(``repro.sweep``) with the on-disk result cache enabled, so the second
invocation of this script serves Figure 8 from cache instead of
re-simulating.  The same sweep is available from the shell as
``python -m repro.sweep figure8 --claims``.

Run:  python examples/design_space_exploration.py
"""

from repro.sram.electrical import TransposedPortModel
from repro.sram.readport import ReadPortModel
from repro.sweep import SweepRunner, figure8_spec
from repro.system.report import (
    render_claims,
    render_figure6,
    render_figure7,
    render_figure8,
    render_table2,
)
from repro.tile.pipeline import PipelineModel


def main() -> None:
    print(render_figure6(TransposedPortModel().figure6()))
    print()
    print(render_figure7(ReadPortModel().figure7()))
    print()
    print(render_table2(PipelineModel().table2()))
    print()

    print("running the system sweep (five cell options, schedule-based "
          "fast engine) ...")
    result = SweepRunner(figure8_spec(sample_images=16)).run()
    print(f"  {result.stats.evaluated} evaluated, "
          f"{result.stats.cache_hits} served from cache")
    print(render_figure8([row.metrics for row in result]))
    print()
    print(render_claims(result.headline_claims()))


if __name__ == "__main__":
    main()
