"""The package facades import what they re-export on first use only."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.learning

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The simulator, which loading the trained-model cache does not need.
SIMULATOR = ("repro.core", "repro.system", "repro.tile", "repro.sram")

_PROBE = """
import json, sys
import repro.learning.pretrained
loaded = sorted(sys.modules)
from repro import CellType, EsamSystem
from repro.learning import OnlineLearningEngine
print(json.dumps([loaded, EsamSystem.__module__, CellType.__module__,
                  OnlineLearningEngine.__module__]))
"""


def test_loading_the_model_cache_imports_no_simulator():
    """In a fresh interpreter, ``import repro.learning.pretrained`` loads
    no simulator module, and the facades still hand out their names."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60,
    )
    loaded, *modules = json.loads(result.stdout)
    assert [name for name in loaded
            if ".".join(name.split(".")[:2]) in SIMULATOR] == []
    assert modules == ["repro.core.esam", "repro.sram.bitcell",
                       "repro.learning.online"]


@pytest.mark.parametrize("package", [repro, repro.learning],
                         ids=lambda package: package.__name__)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in dir(package)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        package.nonexistent
