"""Sharded, cached execution of Monte-Carlo fault campaigns.

The :class:`ReliabilityRunner` is the fault-campaign family of the one
campaign core (:class:`repro.sweep.runner.CampaignRunner`): the same
on-disk :class:`~repro.sweep.cache.ResultCache` (namespaced by the
``"reliability"`` entry kind) and the same supervised worker pool as
the sweeps — so campaigns inherit the sweep determinism contract:
bit-identical results for any ``n_workers``, corrupt cache entry ==
miss, warm re-runs finish without touching the simulator.

One fault point evaluates all of its Monte-Carlo trials against a
single hardware network: each trial loads its self-seeded fault mask
into the macros (:meth:`~repro.sram.faults.FaultInjector.apply_trial`)
and classifies the whole image sample in one batched
``EsamNetwork.infer_batch`` call on the fast engine — the per-cycle
path is never needed because the engines are proven trace-identical on
faulted networks (``tests/test_reliability_differential.py``).  Points
that differ only in technology node or process corner evaluate to the
same output, so a run evaluates them once
(:meth:`ReliabilityRunner._outcome_key`).
"""

from __future__ import annotations

import json

from repro.learning.pretrained import get_reference_model
from repro.reliability.spec import FaultPoint
from repro.reliability.results import (
    CampaignResult,
    ReliabilityRow,
    build_yield_curves,
)
from repro.sram.faults import FaultInjector
from repro.sweep.results import SweepStats
from repro.sweep.runner import (
    CampaignRunner,
    build_network,
    evaluation_sample,
)


def evaluate_fault_point(point: FaultPoint,
                         ) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Evaluate one fault point from scratch (no cache involved).

    Returns per-trial ``(accuracies, flipped_bits)``.  This is the
    function worker processes run, and the single place campaign
    evaluation semantics are defined: clean reference weights, one
    hardware network per point, per-trial self-seeded masks, batched
    classification on the point's engine.
    """
    snn = get_reference_model(point.quality, point.seed).snn
    spikes, labels = evaluation_sample(
        point.quality, point.seed, point.sample_images
    )
    injector = FaultInjector(
        snn.weights, snn.thresholds, snn.output_bias, config=point.hardware,
    )
    network = build_network(point, snn)
    accuracies = []
    flipped = []
    for trial in point.trial_indices:
        flips = injector.apply_trial(
            network, point.bit_error_rate, trial
        )
        predictions = network.classify_batch(spikes, engine=point.engine)
        accuracies.append(float((predictions == labels).mean()))
        flipped.append(int(flips))
    return tuple(accuracies), tuple(flipped)


class ReliabilityRunner(CampaignRunner):
    """Runs a fault campaign: each :class:`FaultPoint` evaluates to its
    per-trial accuracies and flip counts through
    :func:`evaluate_fault_point`, and the rows fold into per-hardware
    yield curves.

    Takes :class:`CampaignRunner`'s keywords.
    """

    kind = "reliability"
    result_type = CampaignResult

    def _task(self):
        return evaluate_fault_point

    def _outcome_key(self, point: FaultPoint) -> str:
        """The point's ``to_dict()`` less ``node`` and ``corner``.

        Only the timing, energy and area models read those two axes:
        :func:`evaluate_fault_point` classifies the same weights under
        the same masks (config seed, error rate, trial index) whatever
        the node or corner, and each corner enters afterwards, as its
        read-timing yield in :func:`build_yield_curves`.  The key drops
        fields instead of naming the ones it keeps, so a field added
        to the point keeps points apart until it is shown to be
        timing-only.
        """
        fields = point.to_dict()
        del fields["node"], fields["corner"]
        return json.dumps(fields, sort_keys=True)

    def _row(self, point: FaultPoint, output) -> ReliabilityRow:
        accuracies, flips = output
        return ReliabilityRow(point=point, accuracies=accuracies,
                              flipped_bits=flips, cached=False)

    def _result(self, rows: list[ReliabilityRow],
                stats: SweepStats) -> CampaignResult:
        return CampaignResult(
            spec_name=self.spec.name, rows=rows,
            curves=build_yield_curves(rows),
            stats=stats,
        )
