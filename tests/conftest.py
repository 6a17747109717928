"""Shared fixtures: trained models and common hardware objects.

The "fast" reference model (1500 digits, 4 epochs) trains in a few
seconds and is cached on disk, so the integration tests stay quick
after the first run.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.data import digits, loader
from repro.learning import pretrained
from repro.learning.pretrained import ReferenceModel, get_reference_model
from repro.sram.electrical import TransposedPortModel
from repro.sram.readport import ReadPortModel
from repro.tile.backends import backend_names


@pytest.fixture(params=backend_names())
def backend(request) -> str:
    """Every engine-backend name, one at a time.

    Parametrized straight off the backend table, so a backend added to
    it runs through every test using this fixture (the conformance
    suite's closure property).  Tests using it are auto-marked
    ``backend`` — see pytest.ini and ``pytest_collection_modifyitems``
    below.
    """
    return request.param


@pytest.fixture()
def result_store(tmp_path):
    """A fresh, empty result store in this test's tmp directory.

    Tests using it are auto-marked ``store`` — see pytest.ini and
    ``pytest_collection_modifyitems`` below (the ``backend`` pattern).
    """
    from repro.store import ResultStore

    store = ResultStore(tmp_path / "store.sqlite")
    yield store
    store.close()


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        fixtures = getattr(item, "fixturenames", ())
        if "backend" in fixtures:
            item.add_marker(pytest.mark.backend)
        if "result_store" in fixtures:
            item.add_marker(pytest.mark.store)


@pytest.fixture(scope="session")
def fast_model() -> ReferenceModel:
    """Small trained network + dataset (cached across the session)."""
    return get_reference_model(quality="fast", seed=42)


@pytest.fixture()
def model_cache(tmp_path, monkeypatch) -> pathlib.Path:
    """An empty artifact directory and empty in-memory model and dataset
    caches, so a model load sees only what the test put there.  The
    caches other tests share stay untouched."""
    monkeypatch.setattr(pretrained, "_ARTIFACT_DIR", tmp_path)
    monkeypatch.setattr(pretrained, "_MEMORY_CACHE", {})
    monkeypatch.setattr(loader, "_CACHE", {})
    return tmp_path


@pytest.fixture()
def previous_format_artifact(fast_model, model_cache) -> pathlib.Path:
    """The fast model's artifact in ``model_cache`` as it was written
    before it kept a test split: weights and accuracy, compressed."""
    snn = fast_model.snn
    payload = {
        "n_layers": np.array(len(snn.weights)),
        "output_bias": snn.output_bias,
        "test_accuracy": np.array(fast_model.test_accuracy),
    }
    for k, (w, t) in enumerate(zip(snn.weights, snn.thresholds)):
        payload[f"w{k}"] = w
        payload[f"t{k}"] = t
    path = pretrained._cache_path("fast", 42)
    np.savez_compressed(path, **payload)
    return path


@pytest.fixture()
def rendered_digits(monkeypatch) -> list[int]:
    """The label of every digit rendered while the test runs."""
    rendered, render = [], digits._render

    def counting_render(labels, *args):
        rendered.extend(labels.tolist())
        return render(labels, *args)

    monkeypatch.setattr(digits, "_render", counting_render)
    return rendered


@pytest.fixture(scope="session")
def transposed_model() -> TransposedPortModel:
    return TransposedPortModel()


@pytest.fixture(scope="session")
def read_port_model() -> ReadPortModel:
    return ReadPortModel()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# One accept/reject table for every 0/1 input boundary (weight loads,
# column/row writes, the functional model, STDP, spike validation).

@pytest.fixture(params=[np.bool_, np.uint8, np.int64, np.float64],
                ids=["bool", "uint8", "int64", "float64"])
def binary_dtype(request):
    """A dtype in which 0/1 data must be accepted."""
    return request.param


@pytest.fixture(params=[2, -1, 0.5, np.nan, "1"],
                ids=["two", "minus_one", "half", "nan", "string"])
def non_binary(request):
    """Factory ``shape -> array``: zeros holding one rejected value.

    The array takes the bad value's dtype (int, float, or a string
    array of "0"/"1" characters), so every case must be refused by
    value or by dtype, never by shape.
    """
    value = request.param

    def make(shape) -> np.ndarray:
        arr = np.zeros(shape, dtype=np.int64).astype(np.asarray(value).dtype)
        arr.flat[-1] = value
        return arr

    return make
