"""CLI output files: a path that cannot be written is an ``error:`` line.

Every flag that names a file a CLI writes (``--out``, ``--csv``,
``--json``, ``--trace-out``, ``--metrics-out``) ends the run with
``error: cannot write PATH: reason`` and exit 1 when the path cannot
be written, here because it is a directory, and never with a
traceback after the work is done.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.store import STORE_FILENAME, ResultStore

SWEEP = ["vprech", "--quality", "fast", "--sample-images", "2",
         "--no-cache"]
RELIABILITY = ["cells", "--quality", "fast", "--sample-images", "2",
               "--trials", "1", "--bers", "0", "--no-cache"]
SERVE = ["--rate", "200", "--duration", "0.1", "--clients", "1",
         "--quality", "fast"]

_ROW = {"point": {"cell_type": "6T", "seed": 1}, "kind": "sweep",
        "metrics": {"latency_ns": 1.0}}


def _case(cli, argv, flag, name=None, marks=()):
    """One CLI, the argv before the flag, and the flag; ``{store}`` in
    ``argv`` is a cache directory holding one stored row, ``{tmp}`` the
    test's directory."""
    return pytest.param(cli, argv, flag, marks=marks,
                        id=f"{name or cli}{flag}")


CASES = [
    *(_case(cli, argv, flag)
      for cli, argv in (("sweep", SWEEP), ("reliability", RELIABILITY))
      for flag in ("--out", "--csv", "--trace-out", "--metrics-out")),
    *(_case(cli, ["--query", "", "--cache-dir", "{store}"], "--csv",
            name=f"{cli}-query")
      for cli in ("sweep", "reliability")),
    _case("store", ["query", "--cache-dir", "{store}"], "--csv"),
    _case("obs", ["report", "--bench-dir", "{tmp}"], "--out"),
    *(_case("serve", SERVE, flag, marks=pytest.mark.serve)
      for flag in ("--json", "--trace-out", "--metrics-out")),
]


@pytest.mark.parametrize("cli, argv, flag", CASES)
def test_an_unwritable_output_is_an_error_line(cli, argv, flag, tmp_path,
                                               capsys):
    store = tmp_path / "cache"
    if "{store}" in argv:
        with ResultStore(store / STORE_FILENAME) as rows:
            rows.put("k" * 64, _ROW)
    target = tmp_path / "a_directory"
    target.mkdir()
    main = importlib.import_module(f"repro.{cli}.__main__").main
    argv = [arg.format(store=store, tmp=tmp_path) for arg in argv]
    assert main([*argv, flag, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert list(target.iterdir()) == []


def test_a_writable_output_still_writes(tmp_path, capsys):
    """The wrapped writes are unchanged when the path can be written."""
    from repro.sweep.__main__ import main

    out = tmp_path / "sweep.json"
    assert main([*SWEEP, "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert json.loads(out.read_text())["rows"]
