"""Sharded, cached execution of design-space sweeps.

The :class:`SweepRunner` takes a :class:`~repro.sweep.spec.SweepSpec`,
expands it into design points and satisfies each point from one of
three sources, in order:

1. **cache** — the on-disk :class:`~repro.sweep.cache.ResultCache`,
   keyed by the point's canonical dict plus the network-weights
   fingerprint.  Hits are loaded without touching the simulator;
2. **injected evaluator** — an existing
   :class:`~repro.system.evaluate.SystemEvaluator` (in-process only),
   so a caller that already holds the model and spike sample reuses
   them;
3. **executor shards** — the cache misses run on a pluggable executor
   (:mod:`repro.store.executors`): the default local pool (a plain
   in-process loop for ``n_workers == 1``, ``ProcessPoolExecutor``
   shards above that) or the work-stealing job-dir backend.

Because every :class:`DesignPoint` carries its own seed and the
evaluation builds a fresh network per point, results are bit-identical
regardless of worker count, shard assignment or execution order — the
test suite asserts ``n_workers=4`` equals ``n_workers=1`` equals
``SystemEvaluator.figure8()``, float for float.
"""

from __future__ import annotations

import inspect
import pathlib
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.learning.convert import ConvertedSNN
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.learning.pretrained import get_reference_model
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.journal import CampaignJournal, run_id_for
from repro.resilience.policy import SupervisorPolicy
from repro.store.executors import LocalPoolExecutor
from repro.system.energy import SystemMetrics
from repro.system.evaluate import SystemEvaluator
from repro.sweep.cache import ResultCache, point_key, weights_fingerprint
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


@dataclass
class _WorkItem:
    """One cache miss: its position in the sweep, point and cache key."""

    index: int
    point: DesignPoint
    key: str


def _evaluate_task(payload: tuple[DesignPoint, ConvertedSNN | None],
                   ) -> SystemMetrics:
    """Module-level worker entry point (must be picklable)."""
    point, snn = payload
    return evaluate_point(point, snn)


# -- generic sharded-cache machinery -------------------------------------------------
#
# The satisfy-from-cache-then-evaluate-misses loop is not
# sweep-specific: the reliability campaign runner
# (:mod:`repro.reliability.runner`) executes fault points through the
# exact same cache discipline, and both runners hand their misses to a
# pluggable executor (:mod:`repro.store.executors`) — so the
# determinism contract — bit-identical results for any worker count or
# executor backend, corrupt entry == miss, parent-side hit accounting —
# is implemented once.


def _accepts_on_done(evaluate) -> bool:
    """Does the evaluate callback take an ``on_done`` keyword?"""
    try:
        parameters = inspect.signature(evaluate).parameters
    except (TypeError, ValueError):
        return False
    return "on_done" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def run_cached_points(points: list, *, cache: ResultCache | None,
                      key_fn, load_row, dump_row, evaluate,
                      journal_dir=None, kind: str = "entries",
                      ) -> tuple[list, SweepStats]:
    """Satisfy ``points`` from ``cache``, evaluating only the misses.

    Parameters
    ----------
    key_fn:
        ``point -> cache key`` (only called when ``cache`` is set).
    load_row:
        ``stored dict -> row`` for cache hits.
    dump_row:
        ``row -> dict`` persisted for freshly evaluated points.
    evaluate:
        ``list of miss points -> list of rows`` in input order (this is
        where callers shard across workers, e.g. via an executor's
        ``map``).
        When the callable accepts an ``on_done(position, row)`` keyword
        it is invoked with one, and each completed row is cached (and
        journaled) the moment it lands — so an interrupted run keeps
        everything finished so far.
    journal_dir:
        Directory for the crash-safe :class:`CampaignJournal` (usually
        ``<cache root>/journal``); ``None`` disables journaling.  The
        journal file is named from ``kind`` plus a run id derived from
        the full key set, so re-running the same campaign resumes the
        same journal.

    Returns the rows in ``points`` order plus hit/evaluated statistics.
    ``KeyboardInterrupt`` marks the journal interrupted and propagates
    — partial results are already cached, so a ``--resume`` re-run
    recomputes nothing that finished.

    ``journal_dir`` without a ``cache`` is rejected outright: the
    journal's whole promise is that a point marked done is durably
    committed, and a cacheless run commits nothing — silently dropping
    the journal (the historical behaviour) made ``--no-cache`` runs
    look resumable when they were not.

    Observability: cache hits/misses are also counted into the process
    metric registry (``repro_cache_{hits,misses}_total{kind=...}`` —
    the registry is cross-campaign where :class:`SweepStats` is
    per-run), and with a real tracer installed the run records a
    ``campaign.cache_scan`` span, a ``campaign.evaluate`` span around
    the miss evaluation, and one ``campaign.point`` span per completed
    point.  Point spans measure the interval since the *previous*
    completion in the parent process — with worker shards that is
    completion cadence, not worker-side compute time.
    """
    if journal_dir is not None and cache is None:
        raise ConfigurationError(
            "journal_dir without a cache: the journal marks points as "
            "durably committed, which a cacheless run cannot honour — "
            "pass a cache or drop journal_dir"
        )
    tracer = get_tracer()
    stats = SweepStats()
    rows: list = [None] * len(points)
    misses: list[_WorkItem] = []
    all_keys: list[str] = []
    scan_started = tracer.now() if tracer.enabled else 0.0
    if cache is not None:
        for index, point in enumerate(points):
            key = key_fn(point)
            all_keys.append(key)
            cached = cache.get(key)
            if cached is not None:
                rows[index] = load_row(cached)
                stats.cache_hits += 1
            else:
                misses.append(_WorkItem(index=index, point=point, key=key))
        registry = get_registry()
        registry.counter("repro_cache_hits_total", kind=kind).inc(
            stats.cache_hits
        )
        registry.counter("repro_cache_misses_total", kind=kind).inc(
            len(misses)
        )
    else:
        misses = [
            _WorkItem(index=i, point=p, key="") for i, p in enumerate(points)
        ]
    if tracer.enabled:
        tracer.record("campaign.cache_scan", scan_started, tracer.now(),
                      kind=kind, points=len(points),
                      hits=stats.cache_hits, misses=len(misses))

    journal: CampaignJournal | None = None
    if journal_dir is not None and cache is not None:
        run_id = run_id_for(all_keys)
        journal = CampaignJournal(
            pathlib.Path(journal_dir) / f"{kind}-{run_id}.jsonl"
        )
        journal.begin(
            run_id=run_id, kind=kind, total=len(points),
            cache_hits=stats.cache_hits,
            pending=[item.key for item in misses],
        )

    done_positions: set[int] = set()
    last_done_at = [tracer.now() if tracer.enabled else 0.0]

    def on_done(position: int, row) -> None:
        item = misses[position]
        if cache is not None:
            cache.put(item.key, dump_row(row))
        if journal is not None:
            journal.mark_done(item.key)
        rows[item.index] = row
        stats.evaluated += 1
        done_positions.add(position)
        if tracer.enabled:
            done_at = tracer.now()
            tracer.record("campaign.point", last_done_at[0], done_at,
                          kind=kind, index=item.index)
            last_done_at[0] = done_at

    miss_points = [item.point for item in misses]
    evaluate_started = tracer.now() if tracer.enabled else 0.0
    try:
        if _accepts_on_done(evaluate):
            evaluated = evaluate(miss_points, on_done=on_done)
        else:
            evaluated = evaluate(miss_points)
        if tracer.enabled:
            tracer.record("campaign.evaluate", evaluate_started,
                          tracer.now(), kind=kind,
                          evaluated=len(miss_points))
        for position, (item, row) in enumerate(zip(misses, evaluated)):
            if position in done_positions:
                continue
            if cache is not None:
                cache.put(item.key, dump_row(row))
            if journal is not None:
                journal.mark_done(item.key)
            rows[item.index] = row
            stats.evaluated += 1
        if journal is not None:
            journal.mark_complete()
    except KeyboardInterrupt:
        if journal is not None:
            journal.mark_interrupted()
        raise
    finally:
        if journal is not None:
            journal.close()
    return rows, stats


class SweepRunner:
    """Shards a sweep's design points across workers, with caching.

    Parameters
    ----------
    spec:
        The grid to evaluate.
    n_workers:
        ``1`` (default) evaluates in-process; ``>1`` shards cache
        misses across that many worker processes.
    cache:
        A :class:`ResultCache`, ``True`` for the default on-disk cache
        under ``.artifacts/sweep_cache/``, or ``None``/``False`` to
        disable caching entirely.
    snn:
        Optional explicit network; by default each point evaluates the
        reference model of its ``quality``/``seed``.
    evaluator:
        Optional existing :class:`SystemEvaluator` to evaluate through
        (in-process only; mutually exclusive with ``snn`` and
        ``n_workers > 1``).
    supervisor:
        Crash-recovery policy for worker shards (retry budget,
        watchdog); the default :class:`SupervisorPolicy` already
        survives worker crashes.
    chaos:
        Optional :class:`ChaosPolicy` injecting deterministic worker
        crashes into the shards — the harness the acceptance suite
        proves the supervisor with.
    journal:
        ``True`` (default) journals progress next to the cache
        (``<cache root>/journal/``) so interrupted runs resume with
        zero recomputation; ``False`` disables journaling.  Ignored
        without a cache.
    executor:
        Optional executor backend (see :mod:`repro.store.executors`,
        e.g. :class:`~repro.store.executors.JobDirExecutor`) that
        evaluates the cache misses instead of the default local pool
        built from ``n_workers``.  Results are bit-identical across
        backends — points are self-seeded pure functions — so the
        choice is purely about where the work runs.
    """

    def __init__(self, spec: SweepSpec, *, n_workers: int = 1,
                 cache: ResultCache | bool | None = True,
                 snn: ConvertedSNN | None = None,
                 evaluator: SystemEvaluator | None = None,
                 supervisor: SupervisorPolicy | None = None,
                 chaos: ChaosPolicy | None = None,
                 journal: bool = True,
                 executor=None) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if evaluator is not None and snn is not None:
            raise ConfigurationError("pass either evaluator or snn, not both")
        if evaluator is not None and n_workers > 1:
            raise ConfigurationError(
                "an injected evaluator cannot be sharded across processes; "
                "use n_workers=1 or let the runner build its own evaluators"
            )
        if evaluator is not None and executor is not None:
            raise ConfigurationError(
                "an injected evaluator is in-process only and cannot run "
                "under a custom executor"
            )
        if evaluator is not None:
            # An injected evaluator brings its own spike sample (its
            # sample size and config seed), so every point must agree
            # with it — otherwise rows (and cache entries) would claim
            # a configuration they were not evaluated under.
            have = (evaluator.sample_images, evaluator.config.seed,
                    evaluator.quality)
            for point in spec.expand():
                want = (point.sample_images, point.seed, point.quality)
                if want != have:
                    raise ConfigurationError(
                        f"sweep point {point.label} (sample_images/seed/"
                        f"quality {want}) does not match the injected "
                        f"evaluator's configuration {have}"
                    )
        self.spec = spec
        self.n_workers = n_workers
        if cache is True:
            self.cache: ResultCache | None = ResultCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self._snn = snn
        self._evaluator = evaluator
        self.supervisor = supervisor
        self.chaos = chaos
        self.executor = executor
        self._journal_enabled = bool(journal)

    # -- internals -------------------------------------------------------------------

    @property
    def journal_dir(self) -> pathlib.Path | None:
        """Where this runner journals progress (``None`` disables it)."""
        if not self._journal_enabled or self.cache is None:
            return None
        return self.cache.root / "journal"

    def journal(self) -> CampaignJournal | None:
        """The journal the next :meth:`run` will write (for ``--resume``).

        Derives the same run id :func:`run_cached_points` will — from
        the full set of cache entry keys — without evaluating anything,
        so CLIs can report prior progress before re-running.
        """
        if self.journal_dir is None:
            return None
        points = self.spec.expand()
        fingerprints = self._fingerprints(points)
        keys = [point_key(p, fingerprints[p]) for p in points]
        return CampaignJournal(
            self.journal_dir / f"sweep-{run_id_for(keys)}.jsonl"
        )

    def _fingerprints(self, points: list[DesignPoint]) -> dict[DesignPoint, str]:
        """Weights fingerprint per point (shared per quality/seed model)."""
        if self._evaluator is not None:
            fp = weights_fingerprint(self._evaluator.snn)
            return {p: fp for p in points}
        if self._snn is not None:
            fp = weights_fingerprint(self._snn)
            return {p: fp for p in points}
        per_model: dict[tuple[str, int], str] = {}
        out: dict[DesignPoint, str] = {}
        for point in points:
            model_key = (point.quality, point.seed)
            if model_key not in per_model:
                reference = get_reference_model(point.quality, point.seed)
                per_model[model_key] = weights_fingerprint(reference.snn)
            out[point] = per_model[model_key]
        return out

    def _evaluate_misses(self, points: list[DesignPoint],
                         on_done=None) -> list[SweepRow]:
        """Evaluate cache misses, sharded or in-process, in input order.

        ``on_done(position, row)`` fires as each point completes (in
        completion order) so the caller can cache and journal rows
        incrementally — the crash-safety half of the resumable-campaign
        contract.
        """
        if not points:
            return []
        if self._evaluator is not None:
            rows = []
            for position, point in enumerate(points):
                metrics = self._evaluator.evaluate_cell(
                    engine=point.engine, hardware=point.hardware,
                ).metrics
                row = SweepRow(point=point, metrics=metrics, cached=False)
                rows.append(row)
                if on_done is not None:
                    on_done(position, row)
            return rows
        executor = self.executor or LocalPoolExecutor(self.n_workers)
        # Pre-warm the trained-model caches in the parent: on
        # fork-based platforms the workers inherit the in-memory
        # model; elsewhere they hit the .npz disk cache instead of
        # re-training.
        if self._snn is None and executor.uses_processes and len(points) > 1:
            for model_key in {(p.quality, p.seed) for p in points}:
                get_reference_model(*model_key)
        row_cache: dict[int, SweepRow] = {}

        def metrics_done(position: int, metrics: SystemMetrics) -> None:
            row = SweepRow(
                point=points[position], metrics=metrics, cached=False,
            )
            row_cache[position] = row
            if on_done is not None:
                on_done(position, row)

        metrics = executor.map(
            _evaluate_task, [(p, self._snn) for p in points],
            supervisor=self.supervisor, chaos=self.chaos,
            on_done=metrics_done,
        )
        return [
            row_cache.get(position)
            or SweepRow(point=point, metrics=m, cached=False)
            for position, (point, m) in enumerate(zip(points, metrics))
        ]

    # -- API -------------------------------------------------------------------------

    def run(self) -> SweepResult:
        """Evaluate the grid; returns rows in the spec's expansion order."""
        points = self.spec.expand()
        if self.cache is not None:
            fingerprints = self._fingerprints(points)
            key_fn = lambda point: point_key(point, fingerprints[point])  # noqa: E731
            # kind + fingerprint travel inside the stored JSON so the
            # result store can index an entry without recomputing
            # hashes; from_dict ignores the extra keys on reload.
            dump_row = lambda row: {  # noqa: E731
                **row.to_dict(), "kind": "sweep",
                "fingerprint": fingerprints[row.point],
            }
        else:
            key_fn = None
            dump_row = lambda row: row.to_dict()  # noqa: E731
        rows, stats = run_cached_points(
            points,
            cache=self.cache,
            key_fn=key_fn,
            load_row=lambda data: SweepRow.from_dict(data, cached=True),
            dump_row=dump_row,
            evaluate=self._evaluate_misses,
            journal_dir=self.journal_dir,
            kind="sweep",
        )
        return SweepResult(spec_name=self.spec.name, rows=rows, stats=stats)
