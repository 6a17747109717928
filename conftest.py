"""Root test configuration: per-test hang protection.

``pytest.ini`` sets a per-test wall-clock cap (``timeout = 870``) so a
wedged test — a deadlocked serving future, a stuck worker pool — dumps
every thread's stack and fails the run instead of hanging CI forever.
When the ``pytest-timeout`` plugin is installed it owns that ini key
and this module does nothing beyond detecting it.  Without the plugin
(this repo adds no dependencies) the stdlib fallback below provides
the same contract: a daemon ``threading.Timer`` armed around each
test, firing ``faulthandler.dump_traceback(all_threads=True)`` — so
the post-mortem shows *where* every thread was stuck — followed by a
hard ``os._exit(1)``, the only reliable way to end a process whose
main thread is wedged.

``REPRO_TEST_TIMEOUT_S`` overrides the cap (``0`` disables it); the
test suite uses that to exercise the shim without waiting minutes.

Tests marked ``multiprocess`` (the fleet suite: real worker processes,
worker pipes, crash/respawn supervision) get a *tighter* cap
(``MULTIPROCESS_CAP_S``): a deadlocked fabric must fail in seconds,
not ride out the generic budget, and an orphaned worker process must
be reaped by the dump-and-die path before it can wedge CI.
"""

from __future__ import annotations

import faulthandler
import os
import sys
import threading

import pytest

try:
    import pytest_timeout  # noqa: F401

    HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    HAVE_TIMEOUT_PLUGIN = False


#: Hard per-test cap for ``@pytest.mark.multiprocess`` tests.
MULTIPROCESS_CAP_S = 120.0


def _cap_s(item) -> float:
    env = os.environ.get("REPRO_TEST_TIMEOUT_S")
    if env:
        return float(env)
    if item.get_closest_marker("multiprocess") is not None:
        return MULTIPROCESS_CAP_S
    value = item.config.getini("timeout")
    return float(value) if value else 0.0


if not HAVE_TIMEOUT_PLUGIN:

    def pytest_addoption(parser) -> None:
        # The plugin normally owns this ini key; register it so the
        # pytest.ini entry stays valid (no unknown-option warning) and
        # the shim can read it.
        parser.addini(
            "timeout",
            "per-test wall-clock cap in seconds (stdlib fallback for "
            "pytest-timeout)",
            default="0",
        )

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        cap = _cap_s(item)
        if cap <= 0:
            yield
            return

        def dump_and_die() -> None:
            # Default capture redirects fd 2 into a buffer that dies
            # with the process; suspend it so the dump reaches the
            # terminal (same move pytest-timeout makes).
            capman = item.config.pluginmanager.getplugin("capturemanager")
            if capman is not None:
                capman.suspend_global_capture(in_=True)
            os.write(2, (
                f"\n*** test timed out after {cap:g}s: {item.nodeid} — "
                "dumping all thread stacks ***\n"
            ).encode())
            faulthandler.dump_traceback(all_threads=True, file=sys.__stderr__)
            os._exit(1)

        timer = threading.Timer(cap, dump_and_die)
        timer.daemon = True
        timer.start()
        try:
            yield
        finally:
            timer.cancel()
