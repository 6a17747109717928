"""Trained-model cache: train once, reuse across tests and benchmarks.

Training the paper's 768:256:256:256:10 BNN takes tens of seconds in
numpy; benchmarks and examples need the same converted SNN repeatedly,
so the trained weights are cached as an ``.npz`` under
``<repo>/.artifacts/``.  Two quality presets:

* ``"full"`` — the paper's evaluation network (6000 training digits,
  20 epochs);
* ``"fast"`` — a lighter run for quick tests (1500 digits, 4 epochs).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from repro.data.loader import DigitDataset, load_dataset
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


def _save(path: pathlib.Path, snn: ConvertedSNN, test_accuracy: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {
        "n_layers": np.array(len(snn.weights)),
        "output_bias": snn.output_bias,
        "test_accuracy": np.array(test_accuracy),
    }
    for k, (w, t) in enumerate(zip(snn.weights, snn.thresholds)):
        payload[f"w{k}"] = w
        payload[f"t{k}"] = t
    np.savez_compressed(path, **payload)


def _load(path: pathlib.Path) -> tuple[ConvertedSNN, float]:
    with np.load(path) as data:
        n_layers = int(data["n_layers"])
        weights = [data[f"w{k}"] for k in range(n_layers)]
        thresholds = [data[f"t{k}"] for k in range(n_layers)]
        snn = ConvertedSNN(
            weights=weights,
            thresholds=thresholds,
            output_bias=data["output_bias"],
        )
        return snn, float(data["test_accuracy"])


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
    # Renders the test split only; the training split is rendered when
    # the training branch below reads it.
    dataset = load_dataset(preset["n_train"], preset["n_test"], seed)
    path = _cache_path(quality, seed)
    if path.exists():
        snn, accuracy = _load(path)
    else:
        x_train = encode_images(dataset.train_images).astype(np.float64)
        config = TrainingConfig(epochs=preset["epochs"], seed=seed)
        trainer = BNNTrainer(CROPPED_PIXELS, config)
        bnn = trainer.train(x_train, dataset.train_labels)
        snn = bnn_to_snn(bnn)
        x_test = encode_images(dataset.test_images)
        accuracy = float(
            (snn.to_model().classify(x_test) == dataset.test_labels).mean()
        )
        _save(path, snn, accuracy)
    model = ReferenceModel(snn=snn, dataset=dataset, test_accuracy=accuracy)
    _MEMORY_CACHE[key] = model
    return model
