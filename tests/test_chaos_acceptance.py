"""Chaos acceptance: the fault-tolerance claims, proven end-to-end.

Three claims from the resilience layer's contract, each driven through
the real stack with a seeded :class:`ChaosPolicy`:

* **bit-identical recovery** — a campaign whose workers crash (both
  the in-process ``WorkerCrashError`` path and real ``os._exit`` in a
  process pool) produces exactly the rows and curves of a fault-free
  run;
* **zero recomputation on resume** — re-running a campaign killed
  mid-run serves its finished points from the cache and evaluates
  only the unfinished ones;
* **no silent drops** — the campaign CLIs convert Ctrl-C into partial
  results, the exact re-run command and exit 130, and a
  chaos-stressed serving run accounts for every admitted request.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import shlex

import numpy as np
import pytest

import repro.reliability.runner as reliability_runner
from repro.errors import QueueFullError, ReproError, WorkerCrashError
from repro.learning.pretrained import get_reference_model
from repro.reliability import FaultCampaignSpec, ReliabilityRunner
from repro.resilience import ChaosPolicy, RetryPolicy, SupervisorPolicy
from repro.serve import (
    BatchPolicy,
    FleetServer,
    InferenceServer,
    ModelRegistry,
)
from repro.sram.bitcell import CellType
from repro.store import STORE_FILENAME
from repro.sweep import (
    ResultCache,
    SweepRunner,
    entry_key,
    weights_fingerprint,
)
from repro.sweep.spec import SweepSpec

from tests.test_serve import random_network, random_spikes
from tests.test_store import damage_store

QUALITY = "fast"


def small_campaign(trials=2, bers=(0.0, 1e-3, 5e-2)) -> FaultCampaignSpec:
    return FaultCampaignSpec(
        name="chaos-acceptance", bit_error_rates=bers, trials=trials,
        sample_images=8, quality=QUALITY,
    )


def small_sweep() -> SweepSpec:
    return SweepSpec(
        name="chaos-sweep", cell_types=(CellType.C1RW4R,),
        vprechs=(0.5, 0.6), sample_images=(8,), quality=QUALITY,
    )


def campaign_payload(result) -> list[dict]:
    """Cache-independent view of a campaign result for equality checks."""
    return [
        {**row.point.to_dict(), "accuracies": list(row.accuracies),
         "flipped_bits": list(row.flipped_bits)}
        for row in result.rows
    ]


def interrupting(task, after: int):
    """``task`` that raises ``KeyboardInterrupt`` once it has finished
    ``after`` calls, as a Ctrl-C would land between two points."""
    finished: list = []

    def interruptible(*args, **kwargs):
        if len(finished) == after:
            raise KeyboardInterrupt
        result = task(*args, **kwargs)
        finished.append(args)
        return result

    return interruptible


#: Exit status of a campaign process killed in the middle of a commit.
KILLED_EXIT = 77


class DieBeforeCommit:
    """A store connection whose process dies in its last commit.

    Once ``commits`` commits have gone through, the next one ends the
    process with ``os._exit``: its row's insert ran, its commit never
    did, as a kill between the two would leave it.
    """

    def __init__(self, connection, commits: int) -> None:
        self._connection = connection
        self._left = commits

    def execute(self, *args):
        return self._connection.execute(*args)

    def commit(self) -> None:
        if self._left == 0:
            os._exit(KILLED_EXIT)
        self._left -= 1
        self._connection.commit()


def campaign_killed_at_its_last_commit(spec, root: str) -> None:
    """Writer-process body: run ``spec`` into a fresh cache at ``root``
    and die between the last point's insert and its commit."""
    cache = ResultCache(root)
    cache.store._conn = DieBeforeCommit(cache.store._conn, len(spec) - 1)
    ReliabilityRunner(spec, cache=cache).run()


# -- bit-identical recovery -----------------------------------------------------------


class TestBitIdenticalRecovery:
    def test_serial_campaign_survives_injected_crashes(self, tmp_path):
        spec = small_campaign()
        clean = ReliabilityRunner(
            spec, cache=ResultCache(tmp_path / "clean")
        ).run()
        chaos = ChaosPolicy(seed=11, worker_crash_p=0.7)
        # The schedule must actually injure this run for the test to
        # mean anything.
        injected = sum(chaos.crashes_for(i) for i in range(len(spec)))
        assert injected > 0
        recovered = ReliabilityRunner(
            spec, cache=ResultCache(tmp_path / "chaos"),
            chaos=chaos, supervisor=SupervisorPolicy(retry_budget=2),
        ).run()
        assert campaign_payload(recovered) == campaign_payload(clean)
        assert [c.to_dict() for c in recovered.curves] == \
            [c.to_dict() for c in clean.curves]
        assert recovered.stats.evaluated == len(spec)

    def test_pooled_campaign_survives_real_worker_crashes(self, tmp_path):
        # os._exit(86) in spawned workers -> BrokenProcessPool -> pool
        # rebuild + re-queue; results still bit-identical.
        spec = small_campaign(trials=1, bers=(0.0, 1e-3))
        clean = ReliabilityRunner(
            spec, cache=ResultCache(tmp_path / "clean")
        ).run()
        chaos = ChaosPolicy(seed=5, worker_crash_p=0.9)
        assert sum(chaos.crashes_for(i) for i in range(len(spec))) > 0
        recovered = ReliabilityRunner(
            spec, n_workers=2, cache=ResultCache(tmp_path / "chaos"),
            chaos=chaos, supervisor=SupervisorPolicy(retry_budget=2),
        ).run()
        assert campaign_payload(recovered) == campaign_payload(clean)

    def test_sweep_engine_shares_the_supervisor(self, tmp_path):
        spec = small_sweep()
        clean = SweepRunner(
            spec, cache=ResultCache(tmp_path / "clean")
        ).run()
        chaos = ChaosPolicy(seed=2, worker_crash_p=0.8)
        assert sum(chaos.crashes_for(i) for i in range(len(spec))) > 0
        recovered = SweepRunner(
            spec, cache=ResultCache(tmp_path / "chaos"),
            chaos=chaos, supervisor=SupervisorPolicy(retry_budget=2),
        ).run()
        assert [row.to_dict() for row in recovered.rows] == \
            [row.to_dict() for row in clean.rows]

    def test_exhausted_retry_budget_is_an_explicit_failure(self, tmp_path):
        chaos = ChaosPolicy(seed=0, worker_crash_p=1.0,
                            max_crashes_per_site=3)
        runner = ReliabilityRunner(
            small_campaign(trials=1, bers=(0.0,)),
            cache=ResultCache(tmp_path / "cache"),
            chaos=chaos, supervisor=SupervisorPolicy(retry_budget=1),
        )
        with pytest.raises(WorkerCrashError, match="retry budget"):
            runner.run()


# -- resumable campaigns --------------------------------------------------------------


@pytest.mark.store
class TestResume:
    def test_interrupted_campaign_resumes_with_zero_recompute(
            self, tmp_path, monkeypatch):
        spec = small_campaign()
        total = len(spec)
        reference = ReliabilityRunner(
            spec, cache=ResultCache(tmp_path / "reference")
        ).run()

        cache = ResultCache(tmp_path / "interrupted")
        real_task = reliability_runner.evaluate_fault_point
        interrupt_after = 2
        monkeypatch.setattr(
            reliability_runner, "evaluate_fault_point",
            interrupting(real_task, interrupt_after),
        )
        with pytest.raises(KeyboardInterrupt):
            ReliabilityRunner(spec, cache=cache).run()
        # Every point finished before the interrupt is committed.
        assert len(cache) == interrupt_after

        # Re-run: only the unfinished points are evaluated; the two
        # finished ones are cache hits (zero recomputation).
        monkeypatch.setattr(
            reliability_runner, "evaluate_fault_point", real_task
        )
        result = ReliabilityRunner(spec, cache=cache).run()
        assert result.stats.cache_hits == interrupt_after
        assert result.stats.evaluated == total - interrupt_after
        assert len(cache) == total
        # And the stitched-together result is bit-identical to an
        # uninterrupted run.
        assert campaign_payload(result) == campaign_payload(reference)

    def test_each_rerun_counts_only_its_own_work(self, tmp_path, monkeypatch):
        # Two runs die in turn, one point further each time; the third
        # reports the two committed points as hits, not as its work.
        spec = small_campaign()
        reference = ReliabilityRunner(
            spec, cache=ResultCache(tmp_path / "reference")
        ).run()
        cache = ResultCache(tmp_path / "interrupted")
        real_task = reliability_runner.evaluate_fault_point
        for committed in (1, 2):
            monkeypatch.setattr(
                reliability_runner, "evaluate_fault_point",
                interrupting(real_task, 1),
            )
            with pytest.raises(KeyboardInterrupt):
                ReliabilityRunner(spec, cache=cache).run()
            assert len(cache) == committed
        monkeypatch.setattr(
            reliability_runner, "evaluate_fault_point", real_task
        )
        result = ReliabilityRunner(spec, cache=cache).run()
        assert result.stats.cache_hits == 2
        assert result.stats.evaluated == len(spec) - 2
        assert len(cache) == len(spec)
        assert campaign_payload(result) == campaign_payload(reference)

    @pytest.mark.parametrize("how", ["garbage", "truncated"])
    def test_unreadable_store_re_evaluates_every_point(self, how,
                                                       tmp_path):
        spec = small_campaign(trials=1, bers=(0.0, 1e-3))
        cache = ResultCache(tmp_path)
        reference = ReliabilityRunner(spec, cache=cache).run()
        cache.store.close()
        damage_store(tmp_path / STORE_FILENAME, how)
        result = ReliabilityRunner(spec, cache=ResultCache(tmp_path)).run()
        assert result.stats.evaluated == len(spec)
        assert campaign_payload(result) == campaign_payload(reference)
        assert (tmp_path / f"{STORE_FILENAME}.corrupt").exists()

    @pytest.mark.multiprocess
    def test_writer_killed_between_insert_and_commit(self, tmp_path):
        spec = small_campaign()
        reference_cache = ResultCache(tmp_path / "reference")
        reference = ReliabilityRunner(spec, cache=reference_cache).run()
        root = tmp_path / "killed"
        writer = multiprocessing.Process(
            target=campaign_killed_at_its_last_commit,
            args=(spec, str(root)),
        )
        writer.start()
        writer.join(timeout=60.0)
        assert writer.exitcode == KILLED_EXIT
        assert (root / f"{STORE_FILENAME}-journal").exists()

        # The store opens and holds every row committed before the
        # kill, each equal to the reference's, and not the last point's.
        cache = ResultCache(root)
        point = spec.expand()[-1]
        last = entry_key("reliability", point.to_dict(), weights_fingerprint(
            get_reference_model(point.quality, point.seed).snn))
        expected = {record.cache_key: reference_cache.get(record.cache_key)
                    for record in reference_cache.store.filter()
                    if record.cache_key != last}
        assert {record.cache_key: cache.get(record.cache_key)
                for record in cache.store.filter()} == expected
        assert len(cache) == len(spec) - 1

        result = ReliabilityRunner(spec, cache=cache).run()
        assert result.stats.evaluated == 1
        assert result.stats.cache_hits == len(spec) - 1
        assert len(cache) == len(spec)
        assert campaign_payload(result) == campaign_payload(reference)

    def test_warm_rerun_never_reaches_the_supervisor(self, tmp_path):
        # Under a schedule that crashes every evaluation beyond its
        # retry budget, a warm re-run still completes: finished points
        # are served from the cache and never re-enter the worker path.
        spec = small_campaign(trials=1, bers=(0.0, 1e-3))
        cache = ResultCache(tmp_path / "cache")
        cold = ReliabilityRunner(spec, cache=cache).run()
        warm = ReliabilityRunner(
            spec, cache=cache,
            chaos=ChaosPolicy(seed=0, worker_crash_p=1.0,
                              max_crashes_per_site=3),
            supervisor=SupervisorPolicy(retry_budget=1),
        ).run()
        assert warm.stats.evaluated == 0
        assert warm.stats.cache_hits == len(cache) == len(spec)
        assert campaign_payload(warm) == campaign_payload(cold)


# -- CLI interrupt contract -----------------------------------------------------------


def rerun_command(err: str) -> list[str]:
    """The re-run command an interrupted campaign CLI printed, as argv."""
    return shlex.split(err.splitlines()[-1])


@pytest.mark.store
class TestCliInterrupt:
    def test_reliability_cli_exits_130_with_resume_hint(
            self, tmp_path, monkeypatch, capsys):
        from repro.reliability.__main__ import main as reliability_main

        monkeypatch.setattr(
            ReliabilityRunner, "run",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        argv = ["cells", "--quality", QUALITY, "--trials", "1",
                "--sample-images", "2", "--cache-dir", str(tmp_path)]
        assert reliability_main(argv) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert rerun_command(err) == \
            ["python", "-m", "repro.reliability", *argv]
        assert "--resume" not in err

    def test_sweep_cli_exits_130_with_resume_hint(
            self, tmp_path, monkeypatch, capsys):
        from repro.sweep.__main__ import main as sweep_main

        monkeypatch.setattr(
            SweepRunner, "run",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        argv = ["vprech", "--quality", QUALITY, "--sample-images", "2",
                "--cache-dir", str(tmp_path)]
        assert sweep_main(argv) == 130
        err = capsys.readouterr().err
        assert rerun_command(err) == ["python", "-m", "repro.sweep", *argv]
        assert "--resume" not in err

    @pytest.mark.parametrize("cli, task, argv", [
        ("sweep", "evaluate_point",
         ["vprech", "--quality", QUALITY, "--sample-images", "2"]),
        ("reliability", "evaluate_fault_point",
         ["cells", "--quality", QUALITY, "--trials", "1",
          "--sample-images", "2", "--bers", "0,5e-2"]),
    ])
    def test_printed_command_resumes_from_the_cache(
            self, cli, task, argv, tmp_path, monkeypatch, capsys):
        main = importlib.import_module(f"repro.{cli}.__main__").main
        runner = importlib.import_module(f"repro.{cli}.runner")
        real_task = getattr(runner, task)
        monkeypatch.setattr(runner, task, interrupting(real_task, 2))
        argv = [*argv, "--cache-dir", str(tmp_path)]
        assert main(argv) == 130
        command = rerun_command(capsys.readouterr().err)
        assert command[:3] == ["python", "-m", f"repro.{cli}"]

        monkeypatch.setattr(runner, task, real_task)
        assert main(command[3:]) == 0
        # Both grids hold 4 points: the re-run evaluates the other two.
        assert "(2 evaluated, 2 cache hits)" in capsys.readouterr().out


# -- serving under chaos --------------------------------------------------------------


@pytest.mark.serve
class TestServingChaosAccounting:
    def test_every_admitted_request_is_accounted(self):
        # Deadlines tight enough to shed under injected latency spikes,
        # a retry budget the persistent-failure sites defeat, and a
        # bounded queue under concurrent load: whatever combination of
        # fates the chaos schedule deals, nothing vanishes.
        chaos = ChaosPolicy(seed=13, flush_error_p=0.3,
                            latency_spike_ms=8.0, latency_spike_p=0.3)
        registry = ModelRegistry()
        network = random_network(seed=1)
        registry.register_network("m", network)
        server = InferenceServer(
            registry,
            policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0),
            max_queue_depth=32,
            retry=RetryPolicy(retries=1, base_delay_ms=0.0),
            chaos=chaos,
        )
        spikes = random_spikes(64)
        outcomes = {"completed": 0, "explicit_failure": 0}
        with server:
            futures = []
            for row in spikes:
                while True:
                    try:
                        futures.append(
                            server.submit("m", row, deadline_ms=200.0)
                        )
                        break
                    except QueueFullError:
                        pass
            for future in futures:
                try:
                    future.result(timeout=30.0)
                    outcomes["completed"] += 1
                except ReproError:
                    outcomes["explicit_failure"] += 1
        # 100% of admitted requests resolved or failed explicitly...
        assert outcomes["completed"] + outcomes["explicit_failure"] == \
            len(spikes)
        # ...and the metrics JSON agrees, with the resilience counters
        # present.
        data = server.metrics.to_dict()
        assert data["submitted"] == len(spikes)
        assert data["submitted"] == \
            data["completed"] + data["failed"] + data["shed"]
        assert data["completed"] == outcomes["completed"]
        for counter in ("shed", "retried", "broken_circuit"):
            assert counter in data
        # The chaos schedule must have actually interfered.
        assert data["retried"] > 0 or data["failed"] > 0

    def test_chaos_never_corrupts_served_predictions(self):
        # Whatever the failure pattern, every *successful* response is
        # bit-identical to the offline classification.
        chaos = ChaosPolicy(seed=29, flush_error_p=0.4)
        registry = ModelRegistry()
        network = random_network(seed=2)
        registry.register_network("m", network)
        server = InferenceServer(
            registry,
            policy=BatchPolicy(max_batch_size=8, max_wait_ms=0.5),
            retry=RetryPolicy(retries=1, base_delay_ms=0.0),
            chaos=chaos,
        )
        spikes = random_spikes(48, seed=9)
        offline = network.classify_batch(spikes)
        served = np.full(len(spikes), -1, dtype=np.int64)
        with server:
            futures = [server.submit("m", row) for row in spikes]
            for i, future in enumerate(futures):
                try:
                    served[i] = future.result(timeout=30.0)
                except ReproError:
                    pass
        answered = served >= 0
        assert answered.any()
        assert np.array_equal(served[answered], offline[answered])


# -- fleet under chaos ----------------------------------------------------------------


@pytest.mark.serve
@pytest.mark.multiprocess
class TestFleetChaosAcceptance:
    """The fleet's claims, driven through real worker processes.

    Same acceptance bar as the in-process serving suite — bit-identical
    predictions, every request accounted — but across process
    boundaries, worker counts, and real ``os._exit`` crashes with
    supervised respawn.
    """

    def test_predictions_bit_identical_across_worker_counts(self):
        network = random_network(seed=4)
        spikes = random_spikes(96, seed=21)
        expected = network.classify_batch(spikes)
        for n_workers in (1, 2, 4):
            registry = ModelRegistry()
            registry.register_network("m", random_network(seed=4))
            server = FleetServer(
                registry, n_workers=n_workers,
                policy=BatchPolicy(max_batch_size=16, max_wait_ms=1.0),
            )
            with server:
                futures = [
                    server.submit("m", row, slo_class="batch")
                    for row in spikes
                ]
                served = np.array(
                    [f.result(timeout=60.0) for f in futures]
                )
            assert np.array_equal(served, expected), (
                f"{n_workers}-worker serving diverged from offline"
            )
            data = server.metrics.to_dict()
            assert data["submitted"] == len(spikes)
            assert data["submitted"] == \
                data["completed"] + data["failed"] + data["shed"]

    def test_mid_run_crash_and_respawn_stays_bit_identical(self):
        # A chaos schedule that genuinely kills workers mid-batch
        # (os._exit in the child): crashed batches fail explicitly,
        # every answered request is bit-identical to offline, and the
        # accounting invariant survives the respawns.
        chaos = ChaosPolicy(seed=11, worker_crash_p=0.15)
        registry = ModelRegistry()
        network = random_network(seed=5)
        registry.register_network("m", network)
        spikes = random_spikes(160, seed=23)
        offline = network.classify_batch(spikes)
        server = FleetServer(
            registry, n_workers=2, chaos=chaos,
            supervisor=SupervisorPolicy(retry_budget=64),
            policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0),
        )
        served = np.full(len(spikes), -1, dtype=np.int64)
        with server:
            futures = [
                server.submit("m", row, slo_class="batch")
                for row in spikes
            ]
            for i, future in enumerate(futures):
                try:
                    served[i] = future.result(timeout=60.0)
                except ReproError:
                    pass
        data = server.metrics.to_dict()
        # The schedule must have actually crashed workers...
        assert data["failed"] > 0
        respawns = sum(
            w["respawns"] for w in server.describe()["workers"]
        )
        assert respawns > 0
        # ...while nothing vanished and nothing was corrupted.
        assert data["submitted"] == len(spikes)
        assert data["submitted"] == \
            data["completed"] + data["failed"] + data["shed"]
        answered = served >= 0
        assert answered.any()
        assert np.array_equal(served[answered], offline[answered])
        # Crash-free rows on a respawned fleet: re-serving the failed
        # rows afterwards (fresh fleet, no chaos) completes them all,
        # bit-identically — nothing about a crash is sticky.
        failed_rows = ~answered
        if failed_rows.any():
            registry2 = ModelRegistry()
            registry2.register_network("m", random_network(seed=5))
            retry_server = FleetServer(
                registry2, n_workers=2,
                policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0),
            )
            with retry_server:
                futures = [
                    retry_server.submit("m", row, slo_class="batch")
                    for row in spikes[failed_rows]
                ]
                reserved = np.array(
                    [f.result(timeout=60.0) for f in futures]
                )
            assert np.array_equal(reserved, offline[failed_rows])
