"""Repo-wide clock-discipline lint.

Determinism contract: library code must never read a wall clock
directly — every timed component (tracer, serving metrics, batcher,
retry backoff, circuit breaker) takes an injectable ``clock`` so
tests pin exact durations and traces replay byte-identically.  This
lint walks the AST of every module under ``src/repro`` and rejects
bare clock *calls* (``time.time()``, ``time.perf_counter()``,
``time.monotonic()``, ...).  Passing ``time.perf_counter`` as a
default ``clock=`` argument is a reference, not a call, and stays
legal everywhere — that is exactly the injectable-clock idiom.

Allowlisted subtrees (the designated clock owners):

* ``repro/obs/`` — the observability layer is where real clocks live;
* ``repro/serve/`` — the server/batcher clock plumbing plus the load
  generator, which paces arrivals against real wall clock by design.

Everything else is linted, ``repro/resilience/`` and ``repro/store/``
included: the retry, breaker and chaos code and the result store
(whose ingest stamp ``created_s`` defaults to ``time.time``) only pass
``time.*`` functions as references.

Benchmarks and tests are out of scope: benchmarks measure wall clock
by definition, and tests inject fake clocks through the same seams
this lint protects.
"""

from __future__ import annotations

import ast
import pathlib

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``time`` module attributes that read a clock.
CLOCK_CALLS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
})

#: Subtrees (relative to ``src/repro``) allowed to read real clocks.
ALLOWED_SUBTREES = ("obs", "serve")


def _bare_clock_calls(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in CLOCK_CALLS):
            violations.append(f"{path}:{node.lineno}: time.{func.attr}()")
    return violations


def test_src_tree_exists():
    assert SRC_ROOT.is_dir()
    assert (SRC_ROOT / "obs").is_dir()


def test_no_bare_clock_calls_outside_designated_owners():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        if relative.parts[0] in ALLOWED_SUBTREES:
            continue
        violations.extend(_bare_clock_calls(path))
    assert not violations, (
        "bare clock reads outside the designated owners — take an "
        "injectable clock= instead:\n" + "\n".join(violations)
    )


def test_lint_catches_a_violation(tmp_path):
    # The lint must actually detect what it claims to forbid.
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time\n"
        "def f():\n"
        "    return time.perf_counter()\n"
    )
    assert _bare_clock_calls(bad) == [f"{bad}:3: time.perf_counter()"]


def test_lint_allows_clock_references(tmp_path):
    # The injectable-clock idiom — passing the function, not calling
    # it — must stay legal.
    good = tmp_path / "good.py"
    good.write_text(
        "import time\n"
        "def f(clock=time.perf_counter):\n"
        "    return clock()\n"
    )
    assert _bare_clock_calls(good) == []
