"""Result store, the supervised campaign map and the store's CLIs.

Four concerns share this suite because they share one contract — the
result store is where a campaign row lives, and everything else (the
worker pool, CLI messages, the dashboard) must agree with it:

* keeping rows: a row is committed whole, a reader never sees part of
  one or a locked database while a writer commits, and a store file
  SQLite cannot read is moved aside so its points re-evaluate;
* querying them: filters, aggregation, CSV export, CLI and dashboard
  wiring; the readers open the store read-only, so a store they cannot
  read (missing, damaged, another schema version, a killed writer's
  unfinished commit) is an ``error:`` line and stays byte for byte;
* the supervised map returns results in input order for any worker
  count, reports each one as it completes and hands a task's own error
  to the caller;
* CLI honesty: ``--query`` needs the cache, an interrupted cached run
  prints a re-run command the shell splits back into its argv, an
  interrupted ``--no-cache`` run reports that nothing was persisted,
  and the removed ``--resume``/executor/``--no-store`` flags and
  store upkeep commands exit 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import multiprocessing
import pathlib
import shlex
import sqlite3
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.resilience.supervisor import supervised_map
from repro.store import (
    AXIS_COLUMNS,
    STORE_FILENAME,
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


def damage_store(path: pathlib.Path, how: str) -> bytes:
    """Leave a store file SQLite cannot read at ``path``; returns it.

    ``"garbage"`` is not a database at all; ``"truncated"`` is a real
    store (the one at ``path``, else a new one) cut to half its length,
    as a torn copy or a full disk leaves one; ``"scribbled"`` keeps its
    length but has a page in the middle overwritten, which only a read
    of the whole file finds.
    """
    if how == "garbage":
        path.write_bytes(b"not a database " * 512)
        return path.read_bytes()
    if not path.exists():
        with ResultStore(path) as store:
            for n in range(40):
                store.put(_key(n), {**_ROW, "payload": "x" * 4096})
    data = bytearray(path.read_bytes())
    half = len(data) // 2
    if how == "truncated":
        del data[half:]
    else:
        data[half:half + 4096] = b"\xde\xad\xbe\xef" * 1024
    path.write_bytes(bytes(data))
    return bytes(data)


# -- keeping rows ----------------------------------------------------------------------


class TestStoreRows:
    def test_missing_and_healthy_entries_unaffected(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(_key(9)) is None
        key = _key(2)
        cache.put(key, dict(_ROW))
        assert cache.get(key) == _ROW
        assert key in cache and _key(9) not in cache

    def test_the_cache_keeps_its_rows_in_its_store_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _put_n(cache, 3)
        assert [path.name for path in tmp_path.iterdir()] == [STORE_FILENAME]
        with ResultStore(tmp_path / STORE_FILENAME) as store:
            assert len(store) == len(cache) == 3
            assert store.get(keys[1])["point"]["seed"] == 1

    def test_a_cache_on_a_passed_store_uses_it(self, tmp_path,
                                               result_store):
        cache = ResultCache(tmp_path / "cache", store=result_store)
        key = _put_n(cache, 1)[0]
        assert cache.store is result_store
        assert result_store.get(key) == cache.get(key)
        assert not (tmp_path / "cache").exists()

    def test_clear_removes_every_row(self, tmp_path):
        cache = ResultCache(tmp_path)
        _put_n(cache, 4)
        assert cache.clear() == 4
        assert len(cache) == 0 and cache.get(_key(0)) is None
        assert cache.clear() == 0


class TestUnreadableStore:
    @pytest.mark.parametrize("how", ["garbage", "truncated", "scribbled"])
    def test_store_refuses_a_file_sqlite_cannot_read(self, how, tmp_path):
        path = tmp_path / STORE_FILENAME
        damaged = damage_store(path, how)
        with pytest.raises(ConfigurationError,
                           match="not a readable result store"):
            ResultStore(path)
        assert path.read_bytes() == damaged  # refused, not touched

    @pytest.mark.parametrize("how", ["garbage", "truncated", "scribbled"])
    def test_cache_moves_it_aside_and_starts_empty(self, how, tmp_path):
        damaged = damage_store(tmp_path / STORE_FILENAME, how)
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        assert (tmp_path / f"{STORE_FILENAME}.corrupt").read_bytes() == \
            damaged
        key = _put_n(cache, 1)[0]
        assert ResultCache(tmp_path).get(key) == cache.get(key)

    def test_dashboard_reports_it_and_exits_1(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        path = tmp_path / STORE_FILENAME
        damaged = damage_store(path, "garbage")
        assert obs_main(["report", "--out", str(tmp_path / "r.html"),
                         "--bench-dir", str(tmp_path),
                         "--store", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a readable" in err
        assert "Traceback" not in err
        assert path.read_bytes() == damaged


def _read_store(reader: str, root: pathlib.Path, tmp_path) -> int:
    """Run one store reader over the store of the cache dir ``root``."""
    if reader == "obs":
        from repro.obs.__main__ import main

        return main(["report", "--out", str(tmp_path / "r.html"),
                     "--bench-dir", str(tmp_path),
                     "--store", str(root / STORE_FILENAME)])
    main = importlib.import_module(f"repro.{reader}.__main__").main
    argv = ["query"] if reader == "store" else ["--query", ""]
    return main([*argv, "--cache-dir", str(root)])


READERS = ["sweep", "reliability", "store", "obs"]


class TestStoreReaders:
    """``--query``, ``python -m repro.store query`` and the dashboard
    read a store and change nothing: a store they cannot read ends in
    an ``error:`` line and exit 1, and the file stays byte for byte."""

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("how", ["garbage", "truncated", "scribbled",
                                     "other-version"])
    def test_an_unreadable_store_is_an_error_and_left_alone(
            self, reader, how, tmp_path, capsys):
        root = tmp_path / "cache"
        path = root / STORE_FILENAME
        if how == "other-version":
            with ResultStore(path) as store:
                store.put(_key(1), _ROW)
            with contextlib.closing(sqlite3.connect(path)) as conn:
                conn.execute("PRAGMA user_version = 1")
                conn.commit()
        else:
            root.mkdir()
            damage_store(path, how)
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        assert _read_store(reader, root, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before
        assert sorted(p.name for p in root.iterdir()) == [STORE_FILENAME]

    @pytest.mark.parametrize("reader", READERS)
    def test_a_missing_store_is_an_error_and_nothing_is_created(
            self, reader, tmp_path, capsys):
        root = tmp_path / "typo_dir"
        assert _read_store(reader, root, tmp_path) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("reader", READERS)
    def test_a_healthy_store_is_read_and_left_alone(self, reader, tmp_path,
                                                    capsys):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        _put_n(cache, 3)
        cache.store.close()
        path = root / STORE_FILENAME
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        assert _read_store(reader, root, tmp_path) == 0
        shown = {"sweep": "3 rows", "store": "3 rows", "obs": "wrote",
                 "reliability": "store: no matching rows"}  # sweep rows
        assert shown[reader] in capsys.readouterr().out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before
        assert sorted(p.name for p in root.iterdir()) == [STORE_FILENAME]

    def test_a_killed_writers_store_is_an_error_until_a_run_rolls_it_back(
            self, tmp_path, capsys):
        """Rolling back a hot journal is a write: the reader names it and
        leaves it; the next cached open rolls it back."""
        root = tmp_path / "cache"
        cache = ResultCache(root)
        _put_n(cache, 3)
        cache.store.close()
        writer = (  # killed mid-commit, it leaves its journal behind
            "import os, sqlite3, sys\n"
            "conn = sqlite3.connect(sys.argv[1], isolation_level=None)\n"
            "conn.execute('PRAGMA cache_size = 1')\n"  # spill to the file
            "conn.execute('BEGIN IMMEDIATE')\n"
            "conn.execute('DELETE FROM entries')\n"
            "os._exit(0)\n"
        )
        subprocess.run([sys.executable, "-c", writer,
                        str(root / STORE_FILENAME)], check=True, timeout=60)
        journal = root / f"{STORE_FILENAME}-journal"
        assert journal.exists()
        before = (root / STORE_FILENAME).read_bytes()
        assert _read_store("store", root, tmp_path) == 1
        assert "killed writer" in capsys.readouterr().err
        assert (root / STORE_FILENAME).read_bytes() == before
        assert journal.exists()
        assert len(ResultCache(root)) == 3  # the cache rolls it back
        assert _read_store("store", root, tmp_path) == 0
        assert "3 rows" in capsys.readouterr().out


def _hammer_puts(root: str, key: str, rows: list, rounds: int) -> None:
    """Writer-process body: overwrite one key as fast as possible."""
    cache = ResultCache(root)
    for n in range(rounds):
        cache.put(key, rows[n % len(rows)])


@pytest.mark.multiprocess
class TestConcurrentSameKey:
    def test_reader_never_sees_partial_entry(self, tmp_path):
        key = _key(7)
        rows = [{**_ROW, "metrics": {"latency_ns": float(n),
                                     "payload": fill * 65536}}
                for n, fill in enumerate("xy")]
        cache = ResultCache(tmp_path)
        writer = multiprocessing.Process(
            target=_hammer_puts, args=(str(tmp_path), key, rows, 150),
        )
        writer.start()
        observed = 0
        try:
            for _ in range(200_000):
                # A locked database would raise here: readers wait.
                got = cache.get(key)
                if got is not None:
                    assert got in rows  # one whole row, never a mix
                    observed += 1
                if not writer.is_alive() and observed > 0:
                    break
        finally:
            writer.join(timeout=30.0)
        assert writer.exitcode == 0
        assert observed > 0
        assert cache.get(key) == rows[1] and len(cache) == 1


# -- querying rows ---------------------------------------------------------------------


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

    @pytest.mark.parametrize("term", ["ber=abc", "seed=x", "trials=2.5",
                                      "vprech="])
    def test_parse_filter_rejects_a_value_that_does_not_parse(self, term):
        with pytest.raises(ConfigurationError, match=f"term {term!r}"):
            parse_filter(f"node=3nm,{term}")

    @pytest.mark.parametrize("cli, argv", [
        ("repro.store.__main__", ["query", "--where", "ber=abc"]),
        ("repro.sweep.__main__", ["--query", "seed=x"]),
        ("repro.reliability.__main__", ["--query", "trials=2.5"]),
    ])
    def test_clis_report_an_unparsable_filter_value(self, cli, argv,
                                                    tmp_path, capsys):
        main = importlib.import_module(cli).main
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad filter term")
        assert "Traceback" not in captured.err


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

    def test_reingest_same_key_replaces_not_duplicates(self, tmp_path,
                                                       result_store):
        cache = ResultCache(tmp_path / "cache", store=result_store)
        key = _put_n(cache, 1)[0]
        cache.put(key, dict(_ROW))
        assert len(result_store) == 1

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
            store.put(_key(1), dict(_ROW))
            store._conn.execute("PRAGMA user_version = 999")
            store._conn.commit()
        with ResultStore(path) as reopened:
            assert len(reopened) == 0  # dropped: its points re-evaluate

    def test_a_store_from_before_rows_were_kept_starts_empty(self,
                                                             tmp_path):
        # Version 1 indexed rows kept elsewhere; there is no migration.
        path = tmp_path / "store.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE entries (cache_key TEXT PRIMARY KEY, "
                     "kind TEXT NOT NULL, scalars_json TEXT NOT NULL)")
        conn.execute("INSERT INTO entries VALUES (?, 'sweep', '{}')",
                     (_key(1),))
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert len(store) == 0 and store.get(_key(1)) is None
            store.put(_key(1), dict(_ROW))
            assert store.get(_key(1)) == _ROW

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

    @pytest.mark.parametrize("cli, argv, error", [
        *[pytest.param(cli, [grid, "--no-store"],
                       "unrecognized arguments: --no-store",
                       id=f"{cli}-no-store")
          for cli, grid in (("sweep", "vprech"), ("reliability", "cells"))],
        *[pytest.param("store", [command, "--cache-dir", "cache"],
                       f"invalid choice: '{command}'", id=f"store-{command}")
          for command in ("backfill", "gc")],
    ])
    def test_removed_store_upkeep_exits_2(self, cli, argv, error, capsys):
        # Caching is storing, and a commit leaves nothing to backfill
        # or to reap, so these must fail loudly rather than be taken
        # for something else.
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

    def test_warm_rows_equal_cold_rows_bit_for_bit(self, tmp_path):
        from repro.reliability import FaultCampaignSpec, ReliabilityRunner
        from repro.sram.bitcell import CellType
        from repro.sweep import SweepRunner, SweepSpec

        campaigns = [
            (SweepRunner, SweepSpec(
                name="cold-warm", cell_types=(CellType.C6T, CellType.C1RW4R),
                sample_images=(2,), quality=QUALITY)),
            (ReliabilityRunner, FaultCampaignSpec(
                name="cold-warm", bit_error_rates=(0.0, 5e-2), trials=2,
                sample_images=2, quality=QUALITY)),
        ]
        points = 0
        for runner, spec in campaigns:
            cold = runner(spec, cache=ResultCache(tmp_path)).run()
            warm = runner(spec, cache=ResultCache(tmp_path)).run()
            assert (warm.stats.evaluated, warm.stats.cache_hits) == \
                (0, len(spec))

            def text(result):
                return [json.dumps({**row.to_dict(), "cached": None})
                        for row in result.rows]

            assert text(warm) == text(cold)
            points += len(spec)
            assert len(ResultCache(tmp_path)) == points  # one row a point

    def test_cached_cli_run_survives_an_unreadable_store(self, tmp_path,
                                                         capsys):
        from repro.reliability.__main__ import main as reliability_main

        damage_store(tmp_path / STORE_FILENAME, "garbage")
        assert reliability_main([
            "cells", "--quality", QUALITY, "--trials", "1",
            "--sample-images", "2", "--bers", "0,5e-2",
            "--cache-dir", str(tmp_path)]) == 0
        assert "(4 evaluated, 0 cache hits)" in capsys.readouterr().out
        assert (tmp_path / f"{STORE_FILENAME}.corrupt").exists()
        assert len(ResultCache(tmp_path)) == 4

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
            cache = ResultCache(root)
            return sorted(
                (record.cache_key, json.dumps(cache.get(record.cache_key)))
                for record in cache.store.filter()
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
