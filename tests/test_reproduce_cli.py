"""One-shot reproduction driver."""

import csv

import pytest

import repro.sweep.cache
from repro.reproduce import main, reproduce_all


@pytest.fixture
def sweep_cache(tmp_path, monkeypatch):
    """The default sweep cache, moved under ``tmp_path``."""
    root = tmp_path / "sweep_cache"
    monkeypatch.setattr(repro.sweep.cache, "DEFAULT_CACHE_DIR", root)
    return root


def read_csv(path) -> list[dict]:
    with path.open() as handle:
        return list(csv.DictReader(handle))


class TestReproduceAll:
    def test_writes_all_artifacts(self, tmp_path, sweep_cache, fast_model):
        # Use the fast-quality model and a tiny sample to keep this quick.
        artifacts = reproduce_all(tmp_path / "out", sample_images=3,
                                  quality="fast")
        for name in ("figure6", "figure7", "table2", "figure8", "summary"):
            assert name in artifacts
            assert artifacts[name].exists(), name

    def test_figure8_csv_has_five_cells(self, tmp_path, sweep_cache,
                                        fast_model):
        artifacts = reproduce_all(tmp_path / "out", sample_images=3,
                                  quality="fast")
        assert [r["cell_type"] for r in read_csv(artifacts["figure8"])] == [
            "1RW", "1RW+1R", "1RW+2R", "1RW+3R", "1RW+4R",
        ]

    def test_second_run_serves_figure8_from_the_cache(
            self, tmp_path, sweep_cache, fast_model):
        cold, warm = (
            read_csv(reproduce_all(tmp_path / outdir, sample_images=3,
                                   quality="fast")["figure8"])
            for outdir in ("cold", "warm")
        )
        assert (sweep_cache / "store.sqlite").exists()
        assert {r.pop("cached") for r in cold} == {"False"}
        assert {r.pop("cached") for r in warm} == {"True"}
        assert cold == warm

    def test_summary_contains_headline(self, tmp_path, sweep_cache,
                                       fast_model):
        artifacts = reproduce_all(tmp_path / "out", sample_images=3,
                                  quality="fast")
        text = artifacts["summary"].read_text()
        assert "headline claims" in text
        assert "Figure 8" in text


class TestCli:
    def test_help_prints_usage_and_writes_nothing(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage: python -m repro.reproduce" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["out", "--quality", "fast"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --quality fast" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_outdir_is_one_error_line_before_anything_runs(
            self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = blocker / "out"
        assert main([str(outdir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write {outdir}: Not a directory"
        ]
