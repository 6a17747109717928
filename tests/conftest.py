"""Shared fixtures: trained models and common hardware objects.

The "fast" reference model (1500 digits, 4 epochs) trains in a few
seconds and is cached on disk, so the integration tests stay quick
after the first run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.learning.pretrained import ReferenceModel, get_reference_model
from repro.sram.electrical import TransposedPortModel
from repro.sram.readport import ReadPortModel
from repro.tile.backends import backend_names


@pytest.fixture(params=backend_names())
def backend(request) -> str:
    """Every registered engine-backend name, one at a time.

    Parametrized straight off the registry, so registering a new
    backend automatically runs it through every test using this
    fixture (the conformance suite's closure property).  Tests using
    it are auto-marked ``backend`` — see pytest.ini and
    ``pytest_collection_modifyitems`` below.
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
