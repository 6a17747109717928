"""Sharded, cached execution of Monte-Carlo fault campaigns.

The :class:`ReliabilityRunner` reuses the sweep engine's machinery
wholesale: the same on-disk :class:`~repro.sweep.cache.ResultCache`
(namespaced by the ``"reliability"`` entry kind), the same
satisfy-from-cache-then-shard-misses loop
(:func:`repro.sweep.runner.run_cached_points`) and the same pluggable
executors (:mod:`repro.store.executors`) — so campaigns inherit the
sweep determinism contract: bit-identical results for any
``n_workers`` or executor backend, corrupt cache entry == miss, warm
re-runs finish without touching the simulator.

One fault point evaluates all of its Monte-Carlo trials against a
single hardware network: each trial loads its self-seeded fault mask
into the macros (:meth:`~repro.sram.faults.FaultInjector.apply_trial`)
and classifies the whole image sample in one batched
``EsamNetwork.infer_batch`` call on the fast engine — the per-cycle
path is never needed because the engines are proven trace-identical on
faulted networks (``tests/test_reliability_differential.py``).
"""

from __future__ import annotations

import pathlib

from repro.errors import ConfigurationError
from repro.learning.pretrained import get_reference_model
from repro.reliability.spec import FaultCampaignSpec, FaultPoint
from repro.reliability.results import (
    CampaignResult,
    ReliabilityRow,
    TIMING_YIELD_SAMPLES,
    build_yield_curves,
)
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.journal import CampaignJournal, run_id_for
from repro.resilience.policy import SupervisorPolicy
from repro.snn.encode import encode_images
from repro.sram.faults import FaultInjector
from repro.store.executors import LocalPoolExecutor
from repro.sweep.cache import ResultCache, entry_key, weights_fingerprint
from repro.sweep.runner import run_cached_points
from repro.tile.network import EsamNetwork

#: Per-process memo of encoded evaluation samples, keyed by
#: ``(quality, seed, sample_images)`` — shared by every point of a
#: shard the way the sweep runner memoizes evaluators.
_SAMPLE_MEMO: dict[tuple[str, int, int], tuple] = {}


def _evaluation_sample(quality: str, seed: int, sample_images: int):
    """Encoded spikes + labels of the reference model's test digits."""
    memo_key = (quality, seed, sample_images)
    cached = _SAMPLE_MEMO.get(memo_key)
    if cached is None:
        reference = get_reference_model(quality, seed)
        spikes = encode_images(reference.dataset.test_images[:sample_images])
        labels = reference.dataset.test_labels[:sample_images]
        cached = (spikes, labels)
        _SAMPLE_MEMO[memo_key] = cached
    return cached


def evaluate_fault_point(point: FaultPoint,
                         ) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Evaluate one fault point from scratch (no cache involved).

    Returns per-trial ``(accuracies, flipped_bits)``.  This is the
    function worker processes run, and the single place campaign
    evaluation semantics are defined: clean reference weights, one
    hardware network per point, per-trial self-seeded masks, batched
    classification on the point's engine.
    """
    reference = get_reference_model(point.quality, point.seed)
    spikes, labels = _evaluation_sample(
        point.quality, point.seed, point.sample_images
    )
    injector = FaultInjector(
        reference.snn.weights, reference.snn.thresholds,
        reference.snn.output_bias, config=point.hardware,
    )
    network = EsamNetwork(
        reference.snn.weights, reference.snn.thresholds,
        output_bias=reference.snn.output_bias, config=point.hardware,
    )
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


def _evaluate_task(point: FaultPoint):
    """Module-level worker entry point (must be picklable)."""
    return evaluate_fault_point(point)


class ReliabilityRunner:
    """Shards a campaign's fault points across workers, with caching.

    Parameters
    ----------
    spec:
        The campaign grid to evaluate.
    n_workers:
        ``1`` (default) evaluates in-process; ``>1`` shards cache
        misses across that many worker processes.
    cache:
        A :class:`ResultCache`, ``True`` for the shared default
        on-disk cache (the *same* directory the sweep engine uses —
        entry kinds keep the families apart), or ``None``/``False``
        to disable caching.
    mc_samples:
        Monte-Carlo sample count behind each curve's timing yield.
    supervisor:
        Crash-recovery policy for worker shards (retry budget,
        watchdog); the default :class:`SupervisorPolicy` already
        survives worker crashes.
    chaos:
        Optional :class:`ChaosPolicy` injecting deterministic worker
        crashes into the shards; recovered results stay bit-identical
        to a fault-free run (the chaos acceptance suite pins this).
    journal:
        ``True`` (default) journals progress next to the cache so
        interrupted campaigns resume with zero recomputation;
        ignored without a cache.
    executor:
        Optional executor backend (see :mod:`repro.store.executors`)
        that evaluates the cache misses instead of the default local
        pool built from ``n_workers``; results are bit-identical
        across backends.
    """

    def __init__(self, spec: FaultCampaignSpec, *, n_workers: int = 1,
                 cache: ResultCache | bool | None = True,
                 mc_samples: int = TIMING_YIELD_SAMPLES,
                 supervisor: SupervisorPolicy | None = None,
                 chaos: ChaosPolicy | None = None,
                 journal: bool = True,
                 executor=None) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if mc_samples < 1:
            raise ConfigurationError("mc_samples must be >= 1")
        self.spec = spec
        self.n_workers = n_workers
        if cache is True:
            self.cache: ResultCache | None = ResultCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.mc_samples = mc_samples
        self.supervisor = supervisor
        self.chaos = chaos
        self.executor = executor
        self._journal_enabled = bool(journal)

    @property
    def journal_dir(self) -> pathlib.Path | None:
        """Where this runner journals progress (``None`` disables it)."""
        if not self._journal_enabled or self.cache is None:
            return None
        return self.cache.root / "journal"

    def _fingerprint(self) -> str:
        reference = get_reference_model(self.spec.quality, self.spec.seed)
        return weights_fingerprint(reference.snn)

    def _key_fn(self):
        fingerprint = self._fingerprint()
        return lambda point: entry_key(
            "reliability", point.to_dict(), fingerprint
        )

    def journal(self) -> CampaignJournal | None:
        """The journal the next :meth:`run` will write (for ``--resume``)."""
        if self.journal_dir is None:
            return None
        key_fn = self._key_fn()
        keys = [key_fn(point) for point in self.spec.expand()]
        return CampaignJournal(
            self.journal_dir / f"reliability-{run_id_for(keys)}.jsonl"
        )

    def _evaluate_misses(self, points: list[FaultPoint],
                         on_done=None) -> list[ReliabilityRow]:
        if not points:
            return []
        executor = self.executor or LocalPoolExecutor(self.n_workers)
        if executor.uses_processes and len(points) > 1:
            # Pre-warm the trained-model disk cache in the parent so
            # spawned workers load instead of re-training.
            for model_key in {(p.quality, p.seed) for p in points}:
                get_reference_model(*model_key)
        row_cache: dict[int, ReliabilityRow] = {}

        def outcome_done(position: int, outcome) -> None:
            accuracies, flips = outcome
            row = ReliabilityRow(
                point=points[position], accuracies=accuracies,
                flipped_bits=flips, cached=False,
            )
            row_cache[position] = row
            if on_done is not None:
                on_done(position, row)

        outcomes = executor.map(
            _evaluate_task, points,
            supervisor=self.supervisor, chaos=self.chaos,
            on_done=outcome_done,
        )
        return [
            row_cache.get(position)
            or ReliabilityRow(
                point=point, accuracies=accuracies, flipped_bits=flips,
                cached=False,
            )
            for position, (point, (accuracies, flips))
            in enumerate(zip(points, outcomes))
        ]

    def run(self) -> CampaignResult:
        """Evaluate the campaign; rows follow the spec's expansion order."""
        points = self.spec.expand()
        if self.cache is not None:
            fingerprint = self._fingerprint()
            key_fn = lambda point: entry_key(  # noqa: E731
                "reliability", point.to_dict(), fingerprint
            )
            # kind + fingerprint travel inside the stored JSON so the
            # result store can index an entry without recomputing
            # hashes; from_dict ignores the extra keys on reload.
            dump_row = lambda row: {  # noqa: E731
                **row.to_dict(), "kind": "reliability",
                "fingerprint": fingerprint,
            }
        else:
            key_fn = None
            dump_row = lambda row: row.to_dict()  # noqa: E731
        rows, stats = run_cached_points(
            points,
            cache=self.cache,
            key_fn=key_fn,
            load_row=lambda data: ReliabilityRow.from_dict(data, cached=True),
            dump_row=dump_row,
            evaluate=self._evaluate_misses,
            journal_dir=self.journal_dir,
            kind="reliability",
        )
        curves = build_yield_curves(
            rows, mc_seed=self.spec.seed, mc_samples=self.mc_samples
        )
        return CampaignResult(
            spec_name=self.spec.name, rows=rows, curves=curves, stats=stats
        )
