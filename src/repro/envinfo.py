"""Environment stamp for benchmark, trace and metrics artifacts.

``BENCH_*.json`` files track performance across PRs, and the
observability layer (:mod:`repro.obs`) exports traces and metrics that
outlive the run that produced them — absolute numbers only compare
meaningfully when the runs' interpreter/dependencies/host/revision are
known.  Every such artifact therefore embeds :func:`environment_info`
so it is self-describing.

The schema is pinned by ``tests/test_envinfo.py``: the exact key set
below, every value a string except the optional dependency versions
and ``git_sha``, which are ``None`` when unavailable (a source
checkout without git, a stripped install without scipy), and
``git_dirty``, a bool that is ``None`` outside a checkout — absence is
explicit, never a missing key.  ``git_dirty`` is true when tracked
files differ from the commit ``git_sha`` names, so an artifact
captured inside an uncommitted change says that its numbers are not
that commit's.
"""

from __future__ import annotations

import datetime
import functools
import pathlib
import platform
import subprocess

import numpy as np

#: Optional dependencies whose versions are stamped when importable.
#: numpy is required (the stamp would not run without it) but listed
#: here so the version lookup has one implementation.
TRACKED_DEPENDENCIES = ("scipy", "hypothesis", "pytest")


@functools.lru_cache(maxsize=None)
def dependency_versions() -> dict:
    """Versions of the tracked optional dependencies (``None`` = absent).

    Resolved through :mod:`importlib.metadata` so the stamp never
    *imports* heavyweight packages just to read a version string.
    """
    import importlib.metadata

    versions: dict = {}
    for name in TRACKED_DEPENDENCIES:
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    return versions


def _git(*args: str) -> subprocess.CompletedProcess | None:
    """Run git in this package's directory; ``None`` if it cannot run."""
    try:
        return subprocess.run(
            ["git", *args], cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None


@functools.lru_cache(maxsize=None)
def git_sha() -> str | None:
    """The repo's current commit SHA, or ``None`` outside a checkout.

    Cached for the process: artifacts written by one run all carry the
    same revision, and repeated subprocess spawns would dominate cheap
    exports.
    """
    result = _git("rev-parse", "HEAD")
    if result is None:
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


@functools.lru_cache(maxsize=None)
def git_dirty() -> bool | None:
    """Do tracked files differ from HEAD?  ``None`` outside a checkout.

    Untracked files do not count.  Cached for the process, like
    :func:`git_sha`.
    """
    result = _git("--no-optional-locks", "diff", "--quiet", "HEAD", "--")
    if result is None or result.returncode not in (0, 1):
        return None
    return result.returncode == 1


def environment_info() -> dict:
    """Interpreter, dependency and platform versions, git SHA and
    whether the checkout differs from it, timestamp."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **dependency_versions(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
    }
