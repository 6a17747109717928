"""Pretrained-model cache: save/load round-trips and presets."""

import errno
import os
import stat

import numpy as np
import pytest

from repro.data import loader
from repro.errors import ConfigurationError
from repro.learning import pretrained
from repro.learning.convert import ConvertedSNN
from repro.learning.pretrained import (
    _load,
    _save,
    get_reference_model,
)

KEY = "n_test=500 seed=42 numpy=any source=any"


def _same_model(snn: ConvertedSNN, other: ConvertedSNN) -> bool:
    """Equal arrays of equal dtypes, layer by layer."""
    pairs = [*zip(snn.weights, other.weights),
             *zip(snn.thresholds, other.thresholds),
             (snn.output_bias, other.output_bias)]
    return len(snn.weights) == len(other.weights) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path, fast_model):
        path = tmp_path / "model.npz"
        dataset = fast_model.dataset
        _save(path, fast_model.snn, fast_model.test_accuracy, dataset, KEY)
        loaded, accuracy, (images, labels) = _load(path, KEY)
        assert accuracy == fast_model.test_accuracy
        assert loaded.layer_sizes == fast_model.snn.layer_sizes
        assert _same_model(loaded, fast_model.snn)
        assert images.dtype == np.float32 and labels.dtype == np.int64
        assert images.tobytes() == dataset.test_images.tobytes()
        assert labels.tobytes() == dataset.test_labels.tobytes()
        assert _load(path, KEY.replace("numpy=any", "numpy=other"))[2] is None

    def test_loaded_model_classifies_identically(self, tmp_path, fast_model, rng):
        path = tmp_path / "model.npz"
        _save(path, fast_model.snn, fast_model.test_accuracy,
              fast_model.dataset, KEY)
        loaded, _, _ = _load(path, KEY)
        x = (rng.random((16, 768)) < 0.2).astype(np.uint8)
        assert (
            loaded.to_model().classify(x)
            == fast_model.snn.to_model().classify(x)
        ).all()


def _torn_savez(handle, **payload):
    """A save that dies mid-write: half an archive, then an error."""
    handle.write(b"PK\x03\x04 half of a zip")
    raise OSError("disk full")


class TestAtomicSave:
    def test_a_failed_save_leaves_no_file(self, tmp_path, fast_model,
                                          monkeypatch):
        monkeypatch.setattr(np, "savez", _torn_savez)
        path = tmp_path / "model.npz"
        with pytest.raises(OSError, match="disk full"):
            _save(path, fast_model.snn, fast_model.test_accuracy,
                  fast_model.dataset, KEY)
        assert list(tmp_path.iterdir()) == []  # no artifact, no temporary

    def test_an_existing_artifact_survives_a_failed_re_save(
            self, tmp_path, fast_model, monkeypatch):
        path = tmp_path / "model.npz"
        _save(path, fast_model.snn, fast_model.test_accuracy,
              fast_model.dataset, KEY)
        saved = path.read_bytes()
        monkeypatch.setattr(np, "savez", _torn_savez)
        with pytest.raises(OSError, match="disk full"):
            _save(path, fast_model.snn, 0.5, fast_model.dataset, KEY)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == saved
        _, accuracy, _ = _load(path, KEY)
        assert accuracy == fast_model.test_accuracy


class TestArtifactMode:
    def test_a_save_and_a_rewrite_follow_the_umask(self, tmp_path,
                                                   fast_model):
        """An artifact is readable by whoever may read the directory:
        under umask 022 it is 0644, also when it replaces one that an
        earlier save left owner-only."""
        path = tmp_path / "model.npz"
        previous = os.umask(0o022)
        try:
            _save(path, fast_model.snn, fast_model.test_accuracy,
                  fast_model.dataset, KEY)
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
            path.chmod(0o600)
            _save(path, fast_model.snn, fast_model.test_accuracy,
                  fast_model.dataset, KEY)
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
        finally:
            os.umask(previous)
        assert list(tmp_path.iterdir()) == [path]


def _load_previous_format(path) -> tuple[ConvertedSNN, float]:
    """The artifact reader from before the test split was kept: it must
    still read an artifact that keeps one."""
    with np.load(path) as data:
        n_layers = int(data["n_layers"])
        snn = ConvertedSNN(
            weights=[data[f"w{k}"] for k in range(n_layers)],
            thresholds=[data[f"t{k}"] for k in range(n_layers)],
            output_bias=data["output_bias"],
        )
        return snn, float(data["test_accuracy"])


class TestStoredTestSplit:
    def test_an_artifact_without_its_split_gains_it_on_the_first_load(
            self, previous_format_artifact, fast_model, rendered_digits,
            monkeypatch):
        path = previous_format_artifact
        model = get_reference_model("fast", 42)
        assert len(rendered_digits) == 500  # the test split, once
        assert model.test_accuracy == fast_model.test_accuracy
        assert _same_model(model.snn, fast_model.snn)
        rewritten = path.read_bytes()
        assert list(path.parent.iterdir()) == [path]
        snn, accuracy = _load_previous_format(path)
        assert _same_model(snn, fast_model.snn)
        assert accuracy == fast_model.test_accuracy

        # A later process takes the split from the artifact and leaves
        # the file as it is.
        monkeypatch.setattr(pretrained, "_MEMORY_CACHE", {})
        monkeypatch.setattr(loader, "_CACHE", {})
        again = get_reference_model("fast", 42)
        assert len(rendered_digits) == 500
        assert path.read_bytes() == rewritten
        assert _same_model(again.snn, fast_model.snn)
        assert again.test_accuracy == fast_model.test_accuracy
        for name in ("test_images", "test_labels"):
            assert (getattr(again.dataset, name).tobytes()
                    == getattr(model.dataset, name).tobytes())

    def test_a_read_only_artifact_directory_still_loads(
            self, previous_format_artifact, fast_model, rendered_digits,
            monkeypatch):
        path = previous_format_artifact
        saved = path.read_bytes()
        path.parent.chmod(0o555)
        try:
            if os.access(path.parent, os.W_OK):
                # Root writes through the mode bits: fail the file's
                # creation the way the directory would for any other
                # user.
                real_open = os.open

                def denied(name, flags, *args, **kwargs):
                    if flags & os.O_CREAT:
                        raise PermissionError(errno.EACCES,
                                              "Permission denied")
                    return real_open(name, flags, *args, **kwargs)

                monkeypatch.setattr(os, "open", denied)
            model = get_reference_model("fast", 42)
        finally:
            path.parent.chmod(0o755)
        # The test split only: training would render the 1,500
        # training digits too.
        assert len(rendered_digits) == 500
        assert _same_model(model.snn, fast_model.snn)
        assert path.read_bytes() == saved
        assert list(path.parent.iterdir()) == [path]


class TestPresets:
    def test_memory_cache_returns_same_object(self):
        a = get_reference_model(quality="fast", seed=42)
        b = get_reference_model(quality="fast", seed=42)
        assert a is b

    def test_unknown_quality_rejected(self):
        with pytest.raises(ConfigurationError):
            get_reference_model(quality="gigantic")

    @pytest.mark.parametrize("seed", [True, 42.0, "42"], ids=repr)
    def test_rejects_a_seed_that_is_not_an_integer(self, seed, tmp_path,
                                                   monkeypatch):
        """``seed=True`` looked for ``esam_bnn_full_seedTrue.npz`` and,
        with the file missing, trained a model and saved it there."""
        monkeypatch.setattr(pretrained, "_ARTIFACT_DIR", tmp_path)
        with pytest.raises(ConfigurationError, match="seed"):
            get_reference_model("full", seed)
        assert list(tmp_path.iterdir()) == []

    def test_a_numpy_seed_is_the_same_model(self, fast_model):
        assert get_reference_model("fast", np.int64(42)) is fast_model

    def test_fast_model_shape(self, fast_model):
        assert fast_model.snn.layer_sizes == [768, 256, 256, 256, 10]
        assert fast_model.dataset.n_test == 500
