"""Smoke tests for the example, benchmark and perfbench scripts.

Running most examples and the benchmarks needs the full trained model.
Importing them, and checking every keyword they pass to the library
against the callee's signature, catches API drift, typos and missing
modules cheaply in CI.  The repo benchmark's scripts (``perfbench/``)
get the keyword check only: they are parsed, never imported.  The
online-learning demo builds random systems and runs in well under a
second, so it runs end to end against its golden capture.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLE_FILES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARK_FILES = sorted((ROOT / "benchmarks").glob("*.py"))
SCRIPT_FILES = EXAMPLE_FILES + BENCHMARK_FILES
PERFBENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def _load(path: pathlib.Path):
    name = f"{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _repro_names(tree: ast.AST) -> dict:
    """Local name -> object for every ``from repro... import`` in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "repro"):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            obj = getattr(module, alias.name, None)
            if obj is None:
                obj = importlib.import_module(f"{node.module}.{alias.name}")
            names[alias.asname or alias.name] = obj
    return names


def _callee(func: ast.expr, names: dict):
    """The library object a call resolves to: ``Name(...)`` or
    ``Name.method(...)`` for a name imported from ``repro``."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = names.get(func.value.id)
        return None if owner is None else getattr(owner, func.attr, None)
    return None


def stale_keywords(source: str, filename: str) -> tuple[int, list[str]]:
    """Check each keyword passed to a ``repro`` callable in ``source``.

    Returns how many keywords were checked and one message per keyword
    the callee does not accept.  Callees taking ``**kwargs`` are
    skipped, since any keyword is valid there, unless the callee is a
    dataclass: then its fields bound what the ``**kwargs`` take.
    """
    tree = ast.parse(source, filename=filename)
    names = _repro_names(tree)
    checked, stale = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee(node.func, names)
        if callee is None or not callable(callee):
            continue
        try:
            parameters = inspect.signature(callee).parameters
        except (TypeError, ValueError):
            continue
        accepted = {
            name for name, p in parameters.items()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        }
        if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
            if not (isinstance(callee, type)
                    and dataclasses.is_dataclass(callee)):
                continue
            accepted |= {f.name for f in dataclasses.fields(callee)}
        for keyword in node.keywords:
            if keyword.arg is None:  # a **mapping splat
                continue
            checked += 1
            if keyword.arg not in accepted:
                stale.append(
                    f"{filename}:{node.lineno}: {ast.unparse(node.func)}() "
                    f"takes no keyword {keyword.arg!r}"
                )
    return checked, stale


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
)
def test_example_imports_and_has_main(path):
    module = _load(path)
    assert callable(getattr(module, "main", None)), (
        f"{path.name} must define a main() entry point"
    )


@pytest.mark.learning
def test_online_learning_demo_prints_its_golden_capture(capsys):
    """The demo's whole output, learning costs included, is pinned to
    ``tests/golden/online_learning_demo.txt``; a change that moves a
    weight or a priced cost shows up as a diff here."""
    _load(ROOT / "examples" / "online_learning_demo.py").main()
    golden = ROOT / "tests" / "golden" / "online_learning_demo.txt"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize(
    "path", BENCHMARK_FILES, ids=[p.stem for p in BENCHMARK_FILES]
)
def test_benchmark_imports(path):
    _load(path)


@pytest.mark.parametrize(
    "path", SCRIPT_FILES + PERFBENCH_FILES,
    ids=[f"{p.parent.name}/{p.stem}" for p in SCRIPT_FILES + PERFBENCH_FILES],
)
def test_script_keywords_match_library_signatures(path):
    _, stale = stale_keywords(path.read_text(), path.name)
    assert not stale, "\n".join(stale)


def test_keyword_check_covers_the_scripts():
    """The check is not vacuous: the scripts pass many library keywords."""
    checked = sum(
        stale_keywords(path.read_text(), path.name)[0]
        for path in SCRIPT_FILES
    )
    assert checked >= 50


def test_keyword_check_covers_perfbench():
    """The benchmark's own library calls are checked too (campaign
    runner, cache, servers, design points), so a library change that
    breaks the benchmark fails here."""
    checked = sum(
        stale_keywords(path.read_text(), path.name)[0]
        for path in PERFBENCH_FILES
    )
    assert checked >= 18


def test_keyword_check_flags_a_stale_keyword():
    source = (
        "from repro.tile.network import EsamNetwork\n"
        "from repro.hw.config import HardwareConfig as HW\n"
        "EsamNetwork([], [], cell_type=None, config=HW())\n"
        "HW.replace(HW(), vprech=0.5)\n"
    )
    checked, stale = stale_keywords(source, "snippet.py")
    assert checked == 2  # replace takes **changes, so it is skipped
    assert stale == [
        "snippet.py:3: EsamNetwork() takes no keyword 'cell_type'"
    ]


def test_keyword_check_bounds_a_dataclass_kwargs_by_its_fields():
    source = (
        "from repro.reliability import FaultPoint\n"
        "from repro.sweep import DesignPoint\n"
        "FaultPoint(cell_type=None, bit_error_rate=0.1, trials=2)\n"
        "DesignPoint(cell_type=None, bit_error_rate=0.1)\n"
    )
    checked, stale = stale_keywords(source, "snippet.py")
    assert checked == 5
    assert stale == [
        "snippet.py:4: DesignPoint() takes no keyword 'bit_error_rate'"
    ]


def test_at_least_three_examples_present():
    """The release contract: a quickstart plus >=2 scenario examples."""
    assert len(EXAMPLE_FILES) >= 3
    assert any(p.stem == "quickstart" for p in EXAMPLE_FILES)
