"""Pin the environment-stamp schema (`repro.envinfo`).

Every BENCH JSON, trace export and metrics export embeds
``environment_info()``; downstream tooling (the dashboard, cross-PR
trajectory diffs) indexes into it by key, so the schema is a contract:
exactly these keys, absence expressed as ``None`` rather than a
missing key.
"""

from __future__ import annotations

import json

from repro.envinfo import (
    TRACKED_DEPENDENCIES,
    dependency_versions,
    environment_info,
    git_dirty,
    git_sha,
)

#: The pinned key set, in order.
EXPECTED_KEYS = (
    "python", "numpy", "scipy", "hypothesis", "pytest",
    "platform", "machine", "git_sha", "git_dirty", "timestamp_utc",
)


class TestSchema:
    def test_exact_key_set_and_order(self):
        assert tuple(environment_info()) == EXPECTED_KEYS

    def test_required_values_are_strings(self):
        info = environment_info()
        for key in ("python", "numpy", "platform", "machine",
                    "timestamp_utc"):
            assert isinstance(info[key], str) and info[key]

    def test_optional_values_are_string_or_none(self):
        info = environment_info()
        for key in (*TRACKED_DEPENDENCIES, "git_sha"):
            assert info[key] is None or (
                isinstance(info[key], str) and info[key]
            )

    def test_json_serializable(self):
        assert json.loads(json.dumps(environment_info()))


class TestDependencyVersions:
    def test_covers_exactly_the_tracked_dependencies(self):
        assert tuple(dependency_versions()) == TRACKED_DEPENDENCIES

    def test_versions_match_imported_modules(self):
        # The tracked packages are all importable in the test env, so
        # the metadata lookup must agree with the live modules.
        import hypothesis
        import pytest
        import scipy

        versions = dependency_versions()
        assert versions["scipy"] == scipy.__version__
        assert versions["hypothesis"] == hypothesis.__version__
        assert versions["pytest"] == pytest.__version__


class TestGitSha:
    def test_sha_shape_in_a_checkout(self):
        # The repo under test is a git checkout, so the stamp must
        # resolve to a full 40-hex SHA (None is reserved for exports
        # from an installed package outside any checkout).
        sha = git_sha()
        assert sha is not None
        assert len(sha) == 40
        assert set(sha) <= set("0123456789abcdef")

    def test_cached_per_process(self):
        assert git_sha() is git_sha()


class TestGitDirty:
    def test_a_bool_in_a_checkout(self):
        # The repo under test is a git checkout: the flag says whether
        # its tracked files differ from HEAD, never None.
        assert git_dirty() in (True, False)
        assert environment_info()["git_dirty"] is git_dirty()

    def test_cached_per_process(self):
        git_dirty.cache_clear()
        first = git_dirty()
        assert git_dirty.cache_info().hits == 0
        assert git_dirty() is first
        assert git_dirty.cache_info().hits == 1

    def test_reports_a_changed_tracked_file(self, tmp_path, monkeypatch):
        """A checkout whose tracked file differs from HEAD is dirty;
        an untracked file alone leaves it clean."""
        import subprocess

        import repro.envinfo as envinfo

        def git(*args):
            subprocess.run(["git", "-C", str(tmp_path), *args],
                           check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("a\n")
        git("add", "tracked.txt")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
            "init")
        package = tmp_path / "pkg"
        package.mkdir()
        monkeypatch.setattr(envinfo, "__file__", str(package / "envinfo.py"))
        try:
            git_dirty.cache_clear()
            (tmp_path / "untracked.txt").write_text("b\n")
            assert git_dirty() is False
            git_dirty.cache_clear()
            (tmp_path / "tracked.txt").write_text("changed\n")
            assert git_dirty() is True
        finally:
            git_dirty.cache_clear()

    def test_none_outside_a_checkout(self, tmp_path, monkeypatch):
        import repro.envinfo as envinfo

        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.setattr(envinfo, "__file__", str(tmp_path / "envinfo.py"))
        try:
            git_dirty.cache_clear()
            assert git_dirty() is None
        finally:
            git_dirty.cache_clear()
