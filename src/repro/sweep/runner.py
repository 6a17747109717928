"""One campaign core: cached, sharded, resumable grid evaluation.

Two grid walks produce the paper's results: the design-space sweeps
(:class:`SweepRunner` — Figure 8 and its ablations) and the fault
campaigns (:class:`~repro.reliability.runner.ReliabilityRunner`).  Both
are small subclasses of :class:`CampaignRunner`, which satisfies every
point of a spec's ``expand()`` in three steps:

1. **cache scan** — a point's entry key is ``entry_key(kind,
   point.to_dict(), weights_fingerprint(snn))``, the fingerprint taken
   once per ``(quality, seed)`` model; hits load without touching the
   simulator;
2. **evaluate** — the misses are grouped by *outcome key* (a point's
   key names what its evaluation reads; by default the point itself),
   and each group's first miss goes to
   :func:`~repro.resilience.supervisor.supervised_map`: in-process for
   ``n_workers == 1``, supervised ``ProcessPoolExecutor`` shards above
   that;
3. **commit** — each group's output becomes one row per member, each
   built from its own point, cached and traced the moment it arrives,
   so an interrupted run keeps everything finished so far, and
   re-running it resumes: the finished points come back as cache hits.

Because every point carries its own seed and the evaluation builds a
fresh network per point, results are bit-identical regardless of
worker count, shard assignment or execution order — the test suite
asserts ``n_workers=4`` equals ``n_workers=1`` equals
``SystemEvaluator.figure8()``, float for float.
"""

from __future__ import annotations

import functools

from repro.errors import ConfigurationError, _integer
from repro.learning.convert import ConvertedSNN
from repro.learning.pretrained import get_reference_model
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import SupervisorPolicy
from repro.resilience.supervisor import supervised_map
from repro.system.energy import SystemMetrics
from repro.system.evaluate import SystemEvaluator
from repro.sweep.cache import ResultCache, entry_key, weights_fingerprint
from repro.sweep.spec import DesignPoint, SweepSpec
from repro.sweep.results import SweepResult, SweepRow, SweepStats

#: Per-process memo of evaluators, keyed by ``(quality, seed,
#: sample_images)``.  Points of one sweep share the trained model and
#: the encoded spike sample; only the per-point network differs.  The
#: memo lives at module level so worker processes reuse it across the
#: points of their shard.
_EVALUATOR_MEMO: dict[tuple[str, int, int], SystemEvaluator] = {}


def evaluate_point(point: DesignPoint,
                   snn: ConvertedSNN | None = None) -> SystemMetrics:
    """Evaluate one design point from scratch (no cache involved).

    With ``snn=None`` the reference model for ``point.quality`` /
    ``point.seed`` is used (disk-cached training artifact); passing an
    explicit network evaluates that network instead.  This is the
    function worker processes run, and the single place sweep
    evaluation semantics are defined.
    """
    if snn is not None:
        evaluator = SystemEvaluator(
            point.hardware, sample_images=point.sample_images, snn=snn,
            quality=point.quality,
        )
    else:
        # Memoized per (quality, seed, sample size): the trained model
        # and encoded spike sample are hardware-independent, so points
        # that differ only in cell/Vprech/node/corner share them.
        memo_key = (point.quality, point.seed, point.sample_images)
        evaluator = _EVALUATOR_MEMO.get(memo_key)
        if evaluator is None:
            evaluator = SystemEvaluator(
                point.hardware, sample_images=point.sample_images,
                quality=point.quality,
            )
            _EVALUATOR_MEMO[memo_key] = evaluator
    row = evaluator.evaluate_cell(
        engine=point.engine, hardware=point.hardware,
    )
    return row.metrics


class CampaignRunner:
    """Evaluates a campaign grid through the result cache.

    Parameters
    ----------
    spec:
        The grid; its ``expand()`` yields hashable points carrying
        ``quality``, ``seed`` and a canonical ``to_dict()``.
    n_workers:
        ``1`` (default) evaluates in-process; ``>1`` shards cache
        misses across that many worker processes.
    cache:
        A :class:`ResultCache`, ``True`` for the shared default on-disk
        cache under ``.artifacts/sweep_cache/`` (entry kinds keep the
        campaign families apart), or ``None``/``False`` to disable
        caching entirely.
    supervisor:
        Crash-recovery policy for worker shards (retry budget,
        watchdog); the default :class:`SupervisorPolicy` already
        survives worker crashes.
    chaos:
        Optional :class:`ChaosPolicy` injecting deterministic worker
        crashes; recovered results stay bit-identical to a fault-free
        run (the chaos acceptance suite pins this).

    A subclass states only what differs between campaign families:
    :attr:`kind`, :attr:`result_type`, the worker task (:meth:`_task`),
    how a task's output becomes a row (:meth:`_row`) and which points
    share one evaluation (:meth:`_outcome_key`).
    """

    #: Entry family: the cache-key namespace and the ``kind`` stored
    #: with each row.
    kind: str
    #: Result class, a :class:`~repro.sweep.results.GridResult`; its
    #: ``row_type.from_dict(data, cached=True)`` loads a hit.
    result_type: type

    def __init__(self, spec, *, n_workers: int = 1,
                 cache: ResultCache | bool | None = True,
                 supervisor: SupervisorPolicy | None = None,
                 chaos: ChaosPolicy | None = None) -> None:
        n_workers = _integer("n_workers", n_workers)
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.spec = spec
        self.n_workers = n_workers
        if cache is True:
            cache = ResultCache()
        self.cache: ResultCache | None = None if cache is False else cache
        self.supervisor = supervisor
        self.chaos = chaos

    # -- what a campaign family states -----------------------------------------------

    def _task(self):
        """The picklable ``point -> output`` callable workers run."""
        raise NotImplementedError

    def _row(self, point, output):
        """The freshly evaluated row a task's output becomes."""
        raise NotImplementedError

    def _outcome_key(self, point):
        """What the task's output for ``point`` depends on: misses with
        equal keys share one evaluation.  By default the point itself,
        so every miss is evaluated."""
        return point

    def _result(self, rows: list, stats: SweepStats):
        """The campaign result, from rows in expansion order."""
        return self.result_type(spec_name=self.spec.name, rows=rows,
                                stats=stats)

    def _network(self, quality: str, seed: int) -> ConvertedSNN:
        """The network the points of one ``(quality, seed)`` evaluate."""
        return get_reference_model(quality, seed).snn

    # -- the shared core -------------------------------------------------------------

    def _fingerprints(self, points: list) -> list[str]:
        """Weights fingerprint per point, hashed once per model.

        Resolving them loads every model in this process before any
        work is handed out, so forked workers inherit it and spawned
        ones load the disk cache instead of re-training.
        """
        per_model: dict[tuple[str, int], str] = {}
        for point in points:
            model = (point.quality, point.seed)
            if model not in per_model:
                per_model[model] = weights_fingerprint(self._network(*model))
        return [per_model[(p.quality, p.seed)] for p in points]

    def run(self):
        """Evaluate the grid; rows follow the spec's expansion order.

        Misses with equal outcome keys are evaluated once, through the
        first in expansion order, and their rows commit back to back;
        ``SweepStats.evaluated`` counts every row not served from the
        cache, and ``supervised_map`` indices and chaos sites number
        these groups, not points.

        ``KeyboardInterrupt`` propagates; finished rows are already
        committed, so re-running the campaign recomputes nothing that
        finished.

        Observability: with a cache, hits and misses are counted into
        the process metric registry
        (``repro_cache_{hits,misses}_total{kind=...}`` — cross-campaign,
        where :class:`SweepStats` is per-run).  With a real tracer
        installed the run records a ``campaign.cache_scan`` span, a
        ``campaign.evaluate`` span around the misses (its
        ``evaluations`` counts the groups, ``evaluated`` the rows) and
        one ``campaign.point`` span per committed row.  Point spans
        measure the interval since the previous commit in this process
        — with worker shards that is completion cadence, not
        worker-side compute time — and the rows of one group commit
        back to back, so only the first of their spans holds the
        evaluation.
        """
        tracer = get_tracer()
        points = self.spec.expand()
        fingerprints = self._fingerprints(points)
        keys = [
            entry_key(self.kind, point.to_dict(), fingerprint)
            for point, fingerprint in zip(points, fingerprints)
        ]
        stats = SweepStats()
        rows: list = [None] * len(points)
        misses = list(range(len(points)))
        scan_started = tracer.now() if tracer.enabled else 0.0
        if self.cache is not None:
            misses = []
            for index, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is None:
                    misses.append(index)
                else:
                    rows[index] = self.result_type.row_type.from_dict(
                        cached, cached=True)
                    stats.cache_hits += 1
            registry = get_registry()
            registry.counter("repro_cache_hits_total", kind=self.kind).inc(
                stats.cache_hits
            )
            registry.counter("repro_cache_misses_total", kind=self.kind).inc(
                len(misses)
            )
        if tracer.enabled:
            tracer.record("campaign.cache_scan", scan_started, tracer.now(),
                          kind=self.kind, points=len(points),
                          hits=stats.cache_hits, misses=len(misses))

        by_outcome: dict = {}
        for index in misses:
            by_outcome.setdefault(
                self._outcome_key(points[index]), []).append(index)
        groups = list(by_outcome.values())

        evaluate_started = tracer.now() if tracer.enabled else 0.0
        last_done_at = evaluate_started

        def commit(group: int, output) -> None:
            nonlocal last_done_at
            for index in groups[group]:
                row = self._row(points[index], output)
                if self.cache is not None:
                    # kind + fingerprint travel inside the stored row,
                    # so the result store can index it without
                    # recomputing hashes; from_dict ignores them on
                    # reload.
                    self.cache.put(keys[index], {
                        **row.to_dict(), "kind": self.kind,
                        "fingerprint": fingerprints[index],
                    })
                rows[index] = row
                stats.evaluated += 1
                if tracer.enabled:
                    done_at = tracer.now()
                    tracer.record("campaign.point", last_done_at, done_at,
                                  kind=self.kind, index=index)
                    last_done_at = done_at

        supervised_map(
            self._task(), [points[members[0]] for members in groups],
            n_workers=self.n_workers, supervisor=self.supervisor,
            chaos=self.chaos, on_done=commit,
        )
        if tracer.enabled:
            tracer.record("campaign.evaluate", evaluate_started,
                          tracer.now(), kind=self.kind,
                          evaluated=len(misses), evaluations=len(groups))
        return self._result(rows, stats)


class SweepRunner(CampaignRunner):
    """Runs a design-space sweep: each point evaluates to
    :class:`SystemMetrics` through :func:`evaluate_point`.

    ``snn`` optionally evaluates that network instead of each point's
    reference model (``quality``/``seed``); every other keyword is
    :class:`CampaignRunner`'s.
    """

    kind = "sweep"
    result_type = SweepResult

    def __init__(self, spec: SweepSpec, *, n_workers: int = 1,
                 cache: ResultCache | bool | None = True,
                 snn: ConvertedSNN | None = None,
                 supervisor: SupervisorPolicy | None = None,
                 chaos: ChaosPolicy | None = None) -> None:
        super().__init__(spec, n_workers=n_workers, cache=cache,
                         supervisor=supervisor, chaos=chaos)
        self._snn = snn

    def _network(self, quality: str, seed: int) -> ConvertedSNN:
        if self._snn is not None:
            return self._snn
        return super()._network(quality, seed)

    def _task(self):
        return functools.partial(evaluate_point, snn=self._snn)

    def _row(self, point: DesignPoint, output: SystemMetrics) -> SweepRow:
        return SweepRow(point=point, metrics=output, cached=False)
