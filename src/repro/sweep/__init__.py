"""Design-space sweep engine: sharded, cached grid evaluation.

The paper's evaluation section is a grid walk — Figure 8's five SRAM
cell options, the Vprech ablation, the port-count design space.  This
package turns those walks into first-class objects:

:class:`SweepSpec` / :class:`DesignPoint`
    Declarative cartesian grids over cell type x Vprech x read ports x
    sample size x engine, expanded into hashable, self-seeded points.
:class:`SweepRunner`
    Shards points across worker processes (``n_workers``) with an
    on-disk :class:`ResultCache` keyed by a stable config+weights hash,
    so re-runs and overlapping sweeps skip already-evaluated points.
    It is one family of :class:`CampaignRunner`, the campaign core the
    fault campaigns (:mod:`repro.reliability`) share.
:class:`SweepResult`
    Ordered rows serializable to JSON/CSV; re-renders Figure 8 and the
    headline claims from cached rows without re-simulation.

Run named sweeps from the shell with ``python -m repro.sweep`` (see
``--list``), or programmatically::

    from repro.sweep import SweepRunner, figure8_spec

    result = SweepRunner(figure8_spec(sample_images=32), n_workers=4).run()
    print(result.render())

See ``docs/sweep.md`` for the full guide.
"""

from repro.sweep.cache import (
    ResultCache,
    entry_key,
    weights_fingerprint,
)
from repro.sweep.runner import (
    CampaignRunner,
    SweepRunner,
    build_network,
    evaluate_point,
)
from repro.sweep.spec import (
    NAMED_SWEEPS,
    DesignPoint,
    SweepSpec,
    corners_spec,
    engines_spec,
    figure8_spec,
    ports_spec,
    vprech_spec,
)
from repro.sweep.results import SweepResult, SweepRow, SweepStats

__all__ = [
    "DesignPoint",
    "SweepSpec",
    "CampaignRunner",
    "SweepRunner",
    "SweepResult",
    "SweepRow",
    "SweepStats",
    "ResultCache",
    "NAMED_SWEEPS",
    "figure8_spec",
    "vprech_spec",
    "ports_spec",
    "engines_spec",
    "corners_spec",
    "build_network",
    "evaluate_point",
    "entry_key",
    "weights_fingerprint",
]
