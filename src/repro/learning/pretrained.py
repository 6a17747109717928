"""Trained-model cache: train once, reuse across tests and benchmarks.

Training the paper's 768:256:256:256:10 BNN takes tens of seconds in
numpy; benchmarks and examples need the same converted SNN repeatedly,
so the trained model is cached as an uncompressed ``.npz`` under
``<repo>/.artifacts/``.  The artifact holds the converted weights,
thresholds and output bias, the test accuracy, and the test split that
accuracy was scored on (float32 images, int64 labels) with the key it
was drawn under: the split's size and seed, numpy's version and a
digest of the code that renders it (``repro/data/digits.py`` and
``repro/data/loader.py``).

A load whose key matches takes the split from the artifact and renders
no digit; the training split still renders on its first read.  An
artifact without a split, or with another key, renders the split and
is rewritten with it, atomically and only where its directory can be
written; it is never retrained.  Two quality presets:

* ``"full"`` — the paper's evaluation network (6000 training digits,
  20 epochs);
* ``"fast"`` — a lighter run for quick tests (1500 digits, 4 epochs).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import secrets
from dataclasses import dataclass

import numpy as np

from repro.data import digits, loader
from repro.data.loader import DigitDataset, load_dataset, restore_dataset
from repro.errors import ConfigurationError, _integer
from repro.learning.bnn import BNNTrainer, TrainingConfig
from repro.learning.convert import ConvertedSNN, bnn_to_snn
from repro.snn.encode import CROPPED_PIXELS, encode_images

_ARTIFACT_DIR = pathlib.Path(__file__).resolve().parents[3] / ".artifacts"

_PRESETS = {
    "full": {"n_train": 6000, "n_test": 1500, "epochs": 20},
    "fast": {"n_train": 1500, "n_test": 500, "epochs": 4},
}

#: Public names of the available quality presets (for early validation
#: at API boundaries, e.g. sweep design points).
QUALITY_PRESETS = tuple(_PRESETS)


@dataclass(frozen=True)
class ReferenceModel:
    """A converted SNN together with its dataset and accuracy."""

    snn: ConvertedSNN
    dataset: DigitDataset
    test_accuracy: float


_MEMORY_CACHE: dict[str, ReferenceModel] = {}


def _cache_path(quality: str, seed: int) -> pathlib.Path:
    return _ARTIFACT_DIR / f"esam_bnn_{quality}_seed{seed}.npz"


def _split_key(n_test: int, seed: int) -> str:
    """The key a stored test split is kept under: its size and seed,
    numpy's version (its generator and float operations draw and render
    the split) and a digest of the two source files that do so.  A
    stored split is used only under an equal key."""
    source = hashlib.sha256()
    for module in (digits, loader):
        source.update(pathlib.Path(module.__file__).read_bytes())
    return (f"n_test={n_test} seed={seed} numpy={np.__version__} "
            f"source={source.hexdigest()}")


def _save(path: pathlib.Path, snn: ConvertedSNN, test_accuracy: float,
          dataset: DigitDataset, split_key: str) -> None:
    """Write the artifact whole or not at all.

    The archive goes to a temporary sibling that replaces ``path`` only
    once it is complete, so a process killed mid-save, or two processes
    training one seed, never leave a torn zip that every later load
    would fail on.  It is stored uncompressed: the ``full`` split's
    4.7 MB read back in 4.5 ms, against 38 ms for its compressed 3.1 MB
    (2-vCPU x86 host).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {
        "n_layers": np.array(len(snn.weights)),
        "output_bias": snn.output_bias,
        "test_accuracy": np.array(test_accuracy),
        "test_images": dataset.test_images,
        "test_labels": dataset.test_labels,
        "split_key": np.array(split_key),
    }
    for k, (w, t) in enumerate(zip(snn.weights, snn.thresholds)):
        payload[f"w{k}"] = w
        payload[f"t{k}"] = t
    # Not ``tempfile.mkstemp``: its file is mode 0600, which
    # ``os.replace`` would keep.  This one gets 0666 less the umask.
    tmp_name = path.with_name(f"{path.stem}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _load(path: pathlib.Path, split_key: str) -> tuple[
        ConvertedSNN, float, tuple[np.ndarray, np.ndarray] | None]:
    """The artifact's model and test accuracy, and its test split if the
    artifact keeps one drawn under ``split_key`` (else ``None``)."""
    with np.load(path) as data:
        n_layers = int(data["n_layers"])
        weights = [data[f"w{k}"] for k in range(n_layers)]
        thresholds = [data[f"t{k}"] for k in range(n_layers)]
        snn = ConvertedSNN(
            weights=weights,
            thresholds=thresholds,
            output_bias=data["output_bias"],
        )
        split = None
        if "split_key" in data and str(data["split_key"]) == split_key:
            split = data["test_images"], data["test_labels"]
        return snn, float(data["test_accuracy"]), split


def get_reference_model(quality: str = "full",
                        seed: int = 42) -> ReferenceModel:
    """Return (training if necessary) the reference converted SNN."""
    if quality not in _PRESETS:
        raise ConfigurationError(
            f"quality must be one of {sorted(_PRESETS)}, got {quality!r}"
        )
    # A bool or float seed would name its own cache file.
    seed = _integer("seed", seed)
    key = f"{quality}:{seed}"
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    preset = _PRESETS[quality]
    path = _cache_path(quality, seed)
    split_key = _split_key(preset["n_test"], seed)
    if path.exists():
        snn, accuracy, split = _load(path, split_key)
        if split is not None:
            dataset = restore_dataset(preset["n_train"], seed, *split)
        else:
            dataset = load_dataset(preset["n_train"], preset["n_test"], seed)
            # Keep the rendered split beside the weights for the next
            # load; an artifact directory that cannot be written still
            # loads.
            with contextlib.suppress(OSError):
                _save(path, snn, accuracy, dataset, split_key)
    else:
        # Renders the test split only; the training split is rendered
        # when training reads it.
        dataset = load_dataset(preset["n_train"], preset["n_test"], seed)
        x_train = encode_images(dataset.train_images).astype(np.float64)
        config = TrainingConfig(epochs=preset["epochs"], seed=seed)
        trainer = BNNTrainer(CROPPED_PIXELS, config)
        bnn = trainer.train(x_train, dataset.train_labels)
        snn = bnn_to_snn(bnn)
        x_test = encode_images(dataset.test_images)
        accuracy = float(
            (snn.to_model().classify(x_test) == dataset.test_labels).mean()
        )
        _save(path, snn, accuracy, dataset, split_key)
    model = ReferenceModel(snn=snn, dataset=dataset, test_accuracy=accuracy)
    _MEMORY_CACHE[key] = model
    return model
