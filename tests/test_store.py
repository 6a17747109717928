"""Result store, the supervised campaign map and cache-hygiene fixes.

Four concerns share this suite because they share one contract — the
content-addressed cache is the durable truth and everything else
(store index, worker pool, CLI messages) must agree with it:

* cache hygiene: corrupt entries are quarantined, stranded tmp files
  of hard-killed writers are garbage-collected, concurrent readers
  never observe a half-written entry;
* the SQLite store: ingest-on-put, idempotent backfill, filters,
  aggregation, CSV export, CLI and dashboard wiring;
* the supervised map returns results in input order for any worker
  count, reports each one as it completes and hands a task's own error
  to the caller;
* CLI honesty: ``--query`` needs the cache, an interrupted cached run
  prints a re-run command the shell splits back into its argv, an
  interrupted ``--no-cache`` run reports that nothing was persisted,
  and the removed ``--resume``/executor flags exit 2.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import pathlib
import shlex

import pytest

from repro.errors import ConfigurationError
from repro.resilience.supervisor import supervised_map
from repro.store import (
    AXIS_COLUMNS,
    ResultStore,
    flatten_scalars,
    parse_filter,
    render_records,
)
from repro.sweep.cache import ResultCache

pytestmark = pytest.mark.store

QUALITY = "fast"

_ROW = {
    "point": {"cell_type": "6T", "vprech": 0.5, "node": "3nm",
              "corner": "typical", "engine": "fast", "quality": QUALITY,
              "seed": 42, "sample_images": 4},
    "metrics": {"latency_ns": 12.5, "energy_pj": 640.0},
    "cached": False,
    "kind": "sweep",
    "fingerprint": "f" * 64,
}


def _key(n: int) -> str:
    return f"{n:02x}" * 32


def _put_n(cache: ResultCache, count: int, *, kind="sweep") -> list[str]:
    keys = []
    for n in range(count):
        row = json.loads(json.dumps(_ROW))
        row["kind"] = kind
        row["point"]["seed"] = n
        key = _key(n)
        cache.put(key, row)
        keys.append(key)
    return keys


# -- cache hygiene ---------------------------------------------------------------------


class TestCorruptEntryQuarantine:
    def test_truncated_json_is_quarantined_not_reread(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key(1)
        path = cache.put(key, dict(_ROW))
        # A torn write that still got renamed: valid prefix, cut off.
        path.write_text(path.read_text()[: len(path.read_text()) // 2])

        assert cache.get(key) is None
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists() and not path.exists()
        # The key now simply misses; nothing re-reads the garbage.
        assert cache.get(key) is None
        assert key not in cache

    def test_quarantined_entry_invisible_to_backfill(self, tmp_path,
                                                     result_store):
        cache = ResultCache(tmp_path / "cache")
        keys = _put_n(cache, 3)
        path = cache.path(keys[0])
        path.write_text("{\"point\": {")
        assert cache.get(keys[0]) is None  # quarantines
        assert result_store.backfill(cache.root) == 2

    def test_missing_and_healthy_entries_unaffected(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(_key(9)) is None
        key = _key(2)
        cache.put(key, dict(_ROW))
        assert cache.get(key) == _ROW


class TestStaleTmpGc:
    @staticmethod
    def _strand_tmp(cache: ResultCache, *, age_s: float,
                    name: str = "stranded") -> pathlib.Path:
        """Plant a tmp file as a hard-killed writer would leave it."""
        sub = cache.root / "ab"
        sub.mkdir(parents=True, exist_ok=True)
        tmp = sub / f"abcdef12.{name}.tmp"
        tmp.write_text("{\"half\": ")
        old = os.stat(tmp).st_mtime - age_s
        os.utime(tmp, (old, old))
        return tmp

    def test_explicit_gc_removes_only_stale(self, tmp_path):
        cache = ResultCache(tmp_path, tmp_max_age_s=None)
        stale = self._strand_tmp(cache, age_s=7200.0)
        fresh = self._strand_tmp(cache, age_s=0.0, name="fresh")

        assert cache.gc_stale_tmp(max_age_s=3600.0) == 1
        assert not stale.exists()
        assert fresh.exists()  # a live writer's in-flight file survives

    def test_gc_runs_on_cache_open(self, tmp_path):
        setup = ResultCache(tmp_path, tmp_max_age_s=None)
        stale = self._strand_tmp(setup, age_s=7200.0)

        ResultCache(tmp_path)  # default tmp_max_age_s sweeps on open
        assert not stale.exists()

    def test_open_gc_can_be_disabled(self, tmp_path):
        setup = ResultCache(tmp_path, tmp_max_age_s=None)
        stale = self._strand_tmp(setup, age_s=7200.0)

        ResultCache(tmp_path, tmp_max_age_s=None)
        assert stale.exists()

    def test_injected_clock_controls_the_cutoff(self, tmp_path):
        cache = ResultCache(tmp_path, tmp_max_age_s=None)
        tmp = self._strand_tmp(cache, age_s=0.0)
        far_future = os.stat(tmp).st_mtime + 10_000.0
        assert cache.gc_stale_tmp(max_age_s=3600.0,
                                  clock=lambda: far_future) == 1

    def test_torn_writer_leaves_no_entry_and_gc_reclaims(self, tmp_path):
        # A writer hard-killed mid-put: tmp exists, entry does not.
        cache = ResultCache(tmp_path, tmp_max_age_s=None)
        self._strand_tmp(cache, age_s=7200.0)
        assert len(cache) == 0
        assert cache.gc_stale_tmp() == 1
        assert list(cache.root.glob("*/*.tmp")) == []

    def test_gc_cli(self, tmp_path, capsys):
        from repro.store.__main__ import main as store_main

        cache = ResultCache(tmp_path, tmp_max_age_s=None)
        self._strand_tmp(cache, age_s=7200.0)
        assert store_main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert list(tmp_path.glob("*/*.tmp")) == []


def _hammer_puts(root: str, key: str, row: dict, rounds: int) -> None:
    """Writer-process body: overwrite one key as fast as possible."""
    cache = ResultCache(root, tmp_max_age_s=None)
    for _ in range(rounds):
        cache.put(key, row)


@pytest.mark.multiprocess
class TestConcurrentSameKey:
    def test_reader_never_sees_partial_entry(self, tmp_path):
        key = _key(7)
        row = {**_ROW, "metrics": {"latency_ns": 1.0,
                                   "payload": "x" * 65536}}
        cache = ResultCache(tmp_path, tmp_max_age_s=None)
        writer = multiprocessing.Process(
            target=_hammer_puts, args=(str(tmp_path), key, row, 150),
        )
        writer.start()
        observed = 0
        try:
            for _ in range(200_000):
                got = cache.get(key)
                if got is not None:
                    assert got == row  # complete or absent, never torn
                    observed += 1
                if not writer.is_alive() and observed > 0:
                    break
        finally:
            writer.join(timeout=30.0)
        assert writer.exitcode == 0
        assert observed > 0
        assert cache.get(key) == row


# -- the SQLite store ------------------------------------------------------------------


class TestFlattenAndFilters:
    def test_flatten_scalars_dotted_and_derived(self):
        scalars = flatten_scalars({
            "point": {"ignored": 1}, "kind": "sweep", "cached": True,
            "metrics": {"latency_ns": 2.0, "nested": {"deep": 3}},
            "accuracies": [0.5, 1.0, 0.75],
            "labels": ["a", "b"],        # non-numeric list: skipped
            "ok": True,                   # bool: skipped
            "count": 4,
        })
        assert scalars == {
            "metrics.latency_ns": 2.0, "metrics.nested.deep": 3.0,
            "accuracies.mean": 0.75, "accuracies.min": 0.5,
            "accuracies.max": 1.0, "count": 4.0,
        }

    def test_parse_filter_aliases_and_coercion(self):
        assert parse_filter("cell=6T, ber=5e-2 ,seed=7,node=3nm") == {
            "cell_type": "6T", "bit_error_rate": 0.05, "seed": 7,
            "node": "3nm",
        }
        assert parse_filter("") == {}
        with pytest.raises(ConfigurationError, match="axis=value"):
            parse_filter("cell")


class TestStoreIndex:
    def test_ingest_on_put_is_incremental(self, tmp_path, result_store):
        cache = ResultCache(tmp_path / "cache", store=result_store)
        keys = _put_n(cache, 2)
        records = result_store.filter(kind="sweep")
        assert [r.cache_key for r in records] and len(records) == 2
        assert {r.cache_key for r in records} == set(keys)
        record = records[0]
        assert record.scalars["metrics.latency_ns"] == 12.5
        assert record.fingerprint == "f" * 64
        assert record.axis("cell") == "6T"

    def test_backfill_is_idempotent(self, tmp_path, result_store):
        cache = ResultCache(tmp_path / "cache")  # no store attached
        _put_n(cache, 4)
        assert result_store.backfill(cache.root) == 4
        assert result_store.backfill(cache.root) == 0  # double: zero rows
        assert len(result_store) == 4

    def test_reingest_same_key_replaces_not_duplicates(self, tmp_path,
                                                       result_store):
        cache = ResultCache(tmp_path / "cache", store=result_store)
        key = _put_n(cache, 1)[0]
        cache.put(key, dict(_ROW))
        assert len(result_store) == 1

    def test_pre_store_rows_get_kind_inferred(self, result_store, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        legacy = {k: v for k, v in _ROW.items()
                  if k not in ("kind", "fingerprint")}
        cache.put(_key(3), legacy)
        assert result_store.backfill(cache.root) == 1
        (record,) = result_store.filter()
        assert record.kind == "sweep"  # shape-based fallback
        assert record.fingerprint is None

    def test_filter_rejects_unknown_axis(self, result_store):
        with pytest.raises(ConfigurationError, match="unknown"):
            result_store.filter(flavour="salty")

    def test_aggregate_and_csv(self, tmp_path, result_store):
        cache = ResultCache(tmp_path / "cache", store=result_store)
        _put_n(cache, 3)
        groups = result_store.aggregate("metrics.latency_ns",
                                        by=("cell_type",))
        ((group, fold),) = groups.items()
        assert group == ("6T",)
        assert (fold.n, fold.mean) == (3, 12.5)

        out = result_store.to_csv(tmp_path / "rows.csv", kind="sweep")
        header, *rows = out.read_text().splitlines()
        assert header.startswith("cache_key,created_s," +
                                 ",".join(AXIS_COLUMNS))
        assert len(rows) == 3

    def test_schema_mismatch_rebuilds_the_index(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.ingest(_key(1), dict(_ROW))
            store._conn.execute("PRAGMA user_version = 999")
            store._conn.commit()
        with ResultStore(path) as reopened:
            assert len(reopened) == 0  # only an index: dropped, rebuilt

    def test_render_records(self, tmp_path, result_store):
        cache = ResultCache(tmp_path / "cache", store=result_store)
        _put_n(cache, 1)
        text = render_records(result_store.filter())
        assert "metrics.latency_ns" in text and "1 row" in text
        assert render_records([]) == "store: no matching rows"


# -- the supervised map ----------------------------------------------------------------


def _double(value: int) -> float:
    return value * 2.0


def _fragile(value: int) -> float:
    if value == 2:
        raise ValueError("payload 2 is cursed")
    return value * 2.0


class TestSupervisedMap:
    def test_in_process_map_is_a_plain_loop(self):
        payloads = list(range(6))
        assert supervised_map(_double, payloads, n_workers=1) == \
            [_double(p) for p in payloads]

    def test_on_done_fires_per_payload(self):
        seen = {}
        supervised_map(
            _double, [3, 4], n_workers=1,
            on_done=lambda i, r: seen.__setitem__(i, r),
        )
        assert seen == {0: 6.0, 1: 8.0}

    @pytest.mark.multiprocess
    def test_pool_matches_in_process_map_bit_for_bit(self):
        payloads = list(range(10))
        expected = supervised_map(_double, payloads, n_workers=1)
        done: dict[int, float] = {}
        got = supervised_map(
            _double, payloads, n_workers=2,
            on_done=lambda i, r: done.__setitem__(i, r),
        )
        assert got == expected  # input order, bit-identical
        assert done == dict(enumerate(expected))

    @pytest.mark.parametrize(
        "n_workers", [1, pytest.param(2, marks=pytest.mark.multiprocess)],
    )
    def test_task_error_propagates_to_the_caller(self, n_workers):
        # A task's own exception is not a worker crash: the supervisor
        # hands it to the caller instead of retrying it.
        with pytest.raises(ValueError, match="cursed"):
            supervised_map(_fragile, list(range(5)), n_workers=n_workers)


# -- CLI honesty -----------------------------------------------------------------------


class TestCliHonesty:
    def test_query_needs_the_cache(self):
        from repro.reliability.__main__ import main as reliability_main
        from repro.sweep.__main__ import main as sweep_main

        with pytest.raises(SystemExit):
            sweep_main(["--query", "", "--no-cache"])
        with pytest.raises(SystemExit):
            reliability_main(["--query", "", "--no-cache"])

    def test_interrupt_message_is_honest_about_no_cache(self, capsys):
        from repro.store.cli import SIGINT_EXIT, print_interrupted

        assert print_interrupted("python -m repro.sweep", ["vprech"],
                                 cached=False) == SIGINT_EXIT
        err = capsys.readouterr().err
        assert "NOT persisted" in err
        assert "python -m repro.sweep" not in err  # no lying re-run hint

        assert print_interrupted("python -m repro.sweep", ["vprech"],
                                 cached=True) == SIGINT_EXIT
        err = capsys.readouterr().err
        assert "committed to the cache" in err
        assert err.splitlines()[-1] == "  python -m repro.sweep vprech"

        # The re-run command survives the shell: a path with a space
        # (or a quote) comes back as one argument.
        argv = ["vprech", "--cache-dir", "/tmp/my cache", "--out", "a'b"]
        print_interrupted("python -m repro.sweep", argv)
        command = capsys.readouterr().err.splitlines()[-1]
        assert shlex.split(command) == ["python", "-m", "repro.sweep", *argv]

    @pytest.mark.parametrize("cli, argv, error", [
        *[pytest.param(cli, [grid, *flag],
                       f"unrecognized arguments: {' '.join(flag)}",
                       id=f"{cli}-{flag[0].lstrip('-')}")
          for cli, grid in (("sweep", "vprech"), ("reliability", "cells"))
          for flag in (["--resume"], ["--executor", "job-dir"],
                       ["--job-dir", "jobs"])],
        pytest.param("store", ["work", "jobs"], "invalid choice: 'work'",
                     id="store-work"),
    ])
    def test_removed_resume_and_executor_flags_exit_2(
            self, cli, argv, error, capsys):
        # A resume is a re-run of the same command and every campaign
        # runs on the local pool, so these must fail loudly rather than
        # be taken for something else.
        main = importlib.import_module(f"repro.{cli}.__main__").main
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert error in capsys.readouterr().err


# -- CLI and dashboard wiring (small real campaigns) -----------------------------------


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a counting wrapper; returns counter."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.slow
class TestCampaignStoreAcceptance:
    def test_sweep_query_answers_with_zero_reevaluation(
            self, tmp_path, monkeypatch, capsys):
        import repro.sweep.runner as sweep_runner
        from repro.sweep.__main__ import main as sweep_main

        argv = ["vprech", "--quality", QUALITY, "--sample-images", "2",
                "--cache-dir", str(tmp_path)]
        assert sweep_main(argv) == 0
        assert (tmp_path / "store.sqlite").exists()
        capsys.readouterr()

        calls = _count_calls(monkeypatch, sweep_runner, "evaluate_point")
        assert sweep_main(["--query", "vprech=0.6", "--cache-dir",
                           str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 row" in out and "metrics." in out
        assert calls == []  # zero point re-evaluation

    def test_reliability_query_answers_with_zero_reevaluation(
            self, tmp_path, monkeypatch, capsys):
        import repro.reliability.runner as reliability_runner
        from repro.reliability.__main__ import main as reliability_main

        argv = ["cells", "--quality", QUALITY, "--trials", "1",
                "--sample-images", "2", "--bers", "0,5e-2",
                "--cache-dir", str(tmp_path)]
        assert reliability_main(argv) == 0
        capsys.readouterr()

        calls = _count_calls(monkeypatch, reliability_runner,
                             "evaluate_fault_point")
        assert reliability_main(["--query", "ber=5e-2", "--cache-dir",
                                 str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracies.mean" in out and "rows" in out
        assert calls == []  # zero point re-evaluation

    def test_no_store_runs_become_queryable_via_backfill(
            self, tmp_path, capsys):
        from repro.sweep.__main__ import main as sweep_main

        argv = ["vprech", "--quality", QUALITY, "--sample-images", "2",
                "--cache-dir", str(tmp_path), "--no-store"]
        assert sweep_main(argv) == 0
        assert not (tmp_path / "store.sqlite").exists()
        capsys.readouterr()
        # --query backfills the fresh index from the cache dir.
        assert sweep_main(["--query", "", "--cache-dir",
                           str(tmp_path)]) == 0
        assert "4 rows" in capsys.readouterr().out

    def test_store_cli_query_aggregate_and_csv(self, tmp_path, capsys):
        from repro.store.__main__ import main as store_main
        from repro.sweep.__main__ import main as sweep_main

        cache_dir = tmp_path / "cache"
        assert sweep_main(["vprech", "--quality", QUALITY,
                           "--sample-images", "2",
                           "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()

        assert store_main(["query", "--cache-dir", str(cache_dir),
                           "--where", "vprech=0.5"]) == 0
        assert "1 row" in capsys.readouterr().out

        assert store_main(["query", "--cache-dir", str(cache_dir),
                           "--aggregate", "metrics.area_um2",
                           "--by", "cell"]) == 0
        assert "mean=" in capsys.readouterr().out

        csv_path = tmp_path / "rows.csv"
        assert store_main(["query", "--cache-dir", str(cache_dir),
                           "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert len(csv_path.read_text().splitlines()) == 5  # header + 4

    def test_runner_rows_identical_across_worker_counts(self, tmp_path):
        from repro.sram.bitcell import CellType
        from repro.sweep import SweepRunner, SweepSpec

        spec = SweepSpec(
            name="xcheck", cell_types=(CellType.C6T, CellType.C1RW4R),
            sample_images=(2,), quality=QUALITY,
        )
        serial = SweepRunner(
            spec, n_workers=1, cache=ResultCache(tmp_path / "a")
        ).run()
        pooled = SweepRunner(
            spec, n_workers=2, cache=ResultCache(tmp_path / "b")
        ).run()
        assert pooled.rows == serial.rows  # bit-identical across pools

        def payloads(root):
            return sorted(
                (path.name, path.read_text())
                for path in pathlib.Path(root).glob("*/*.json")
            )

        # The stored entries, byte for byte, whichever process wrote them.
        assert payloads(tmp_path / "a") == payloads(tmp_path / "b")

    def test_obs_report_gains_campaign_history(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main
        from repro.sweep.__main__ import main as sweep_main

        cache_dir = tmp_path / "cache"
        assert sweep_main(["vprech", "--quality", QUALITY,
                           "--sample-images", "2",
                           "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "report.html"
        assert obs_main(["report", "--out", str(out),
                         "--bench-dir", str(tmp_path),
                         "--store", str(cache_dir / "store.sqlite")]) == 0
        html = out.read_text()
        assert "Campaign history" in html
        assert "indexed campaign points" in html

    def test_obs_report_rejects_missing_store(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        code = obs_main(["report", "--out", str(tmp_path / "r.html"),
                         "--bench-dir", str(tmp_path),
                         "--store", str(tmp_path / "nope.sqlite")])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
