"""Monte-Carlo fault & variation campaigns on the fast engine.

The paper's always-on edge story assumes binary weights surviving in
advanced-node SRAM under ±3 sigma guardbands.  This package makes
degradation-under-faults a first-class, cached, sharded scenario
family next to the design-space sweeps:

:class:`FaultCampaignSpec` / :class:`FaultPoint`
    Declarative grids over bit-error rate x Monte-Carlo trials x the
    hardware cell/node/corner axes, expanded into hashable,
    self-seeded points (per-trial masks derive from the
    ``HardwareConfig`` seed, partition-independently).  A fault point
    is a sweep ``DesignPoint`` with a fault condition.
:class:`ReliabilityRunner`
    Vectorizes each point's trials through ``EsamNetwork.infer_batch``
    on the fast engine and shards cache misses across worker
    processes through the *same* on-disk result cache the sweep
    engine uses — bit-identical for any ``n_workers``.
:class:`CampaignResult` / :class:`YieldCurve`
    Mean/worst accuracy per BER, the accuracy-floor BER, and the
    corner-folded parametric read-timing yield; JSON/CSV export and
    the claims block ``python -m repro.reliability --claims`` prints.

Run named campaigns from the shell with ``python -m repro.reliability``
(see ``--list``), or programmatically::

    from repro.reliability import ReliabilityRunner, reliability_spec

    result = ReliabilityRunner(
        reliability_spec(trials=4, sample_images=32), n_workers=4,
    ).run()
    print(result.render_claims())

See ``docs/reliability.md`` for the full guide.
"""

from repro.reliability.runner import ReliabilityRunner, evaluate_fault_point
from repro.reliability.spec import (
    DEFAULT_BER_GRID,
    NAMED_CAMPAIGNS,
    FaultCampaignSpec,
    FaultPoint,
    cells_spec,
    reliability_spec,
)
from repro.reliability.results import (
    CampaignResult,
    ReliabilityRow,
    YieldCurve,
    build_yield_curves,
)

__all__ = [
    "FaultPoint",
    "FaultCampaignSpec",
    "ReliabilityRunner",
    "CampaignResult",
    "ReliabilityRow",
    "YieldCurve",
    "NAMED_CAMPAIGNS",
    "DEFAULT_BER_GRID",
    "reliability_spec",
    "cells_spec",
    "evaluate_fault_point",
    "build_yield_curves",
]
