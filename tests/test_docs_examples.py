"""Documentation cannot rot: execute every python block in the docs.

Extracts the fenced ```python code blocks from README.md and
``docs/*.md`` and executes them top to bottom.  Blocks within one file
share a namespace, so a guide can build state progressively the way a
reader would type it.  A snippet that raises fails this suite — which
means any API drift breaks CI instead of silently stranding the docs.
The ``python -m repro.<cli>`` lines of the fenced ```bash blocks, and
the lines that call a ``setup.py`` console script (``repro-serve``
and the like), are parsed by that CLI's own argument parser, so a
removed flag or subcommand cannot linger in the docs either.

Conventions for doc authors:

* fence runnable snippets as ```python — they must be self-contained
  per *file* (earlier blocks in the same file are visible);
* fence non-python or non-runnable material as ```text, ```bash, etc.;
  shell commands go in ```bash, where their CLI lines are checked;
* keep snippets fast: quality="fast" models and small sample sizes.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import shlex

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Every documentation file whose python blocks must execute.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md")),
    key=lambda p: p.name,
)

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
_BASH_BLOCK = re.compile(r"```bash\n(.*?)```", re.DOTALL)
_CLI_LINE = re.compile(
    r"^python -m repro\.(sweep|reliability|store|serve|obs)(\s|$)"
)

#: ``setup.py``'s console scripts, each to the CLI it runs, read from
#: its entry points (``repro-serve=repro.serve.__main__:main``).
CONSOLE_SCRIPTS = dict(re.findall(
    r"(repro-[\w-]+)=repro\.(\w+)\.__main__:main",
    (REPO_ROOT / "setup.py").read_text(),
))


def extract_python_blocks(path: pathlib.Path) -> list[str]:
    """The fenced ```python blocks of one markdown file, in order."""
    return [m.group(1) for m in _PYTHON_BLOCK.finditer(path.read_text())]


def test_documentation_suite_exists():
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "sweep.md").exists()
    assert (REPO_ROOT / "docs" / "reliability.md").exists()
    assert len(DOC_FILES) >= 4


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[p.name for p in DOC_FILES],
)
def test_doc_python_blocks_execute(doc, tmp_path, monkeypatch):
    blocks = extract_python_blocks(doc)
    assert blocks, f"{doc.name} has no runnable ```python blocks"
    # Snippets that write files do so relative to a scratch directory.
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": f"docs_{doc.stem}"}
    for index, block in enumerate(blocks):
        code = compile(block, f"{doc.name}[block {index}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs


def extract_cli_lines(path: pathlib.Path) -> list[tuple[str, str, list]]:
    """``(cli, line, argv)`` for each ``python -m repro.<cli>`` or
    console-script line of the fenced ```bash blocks, backslash
    continuations joined."""
    found = []
    for match in _BASH_BLOCK.finditer(path.read_text()):
        for line in match.group(1).replace("\\\n", " ").splitlines():
            line = line.strip()
            cli = _CLI_LINE.match(line)
            if cli:
                argv = shlex.split(line, comments=True)[3:]
                found.append((cli.group(1), line, argv))
            elif line.split(" ", 1)[0] in CONSOLE_SCRIPTS:
                script, *argv = shlex.split(line, comments=True)
                found.append((CONSOLE_SCRIPTS[script], line, argv))
    return found


#: The documentation files that show CLI lines.
CLI_DOC_FILES = [doc for doc in DOC_FILES if extract_cli_lines(doc)]


def cli_parsers() -> dict:
    """Each documented CLI's own argument-parser factory, by name."""
    from repro.obs.__main__ import build_parser as obs_parser
    from repro.reliability.__main__ import ReliabilityCli
    from repro.serve.__main__ import build_parser as serve_parser
    from repro.store.__main__ import build_parser as store_parser
    from repro.sweep.__main__ import SweepCli

    return {
        "sweep": SweepCli().build_parser,
        "reliability": ReliabilityCli().build_parser,
        "store": store_parser,
        "serve": serve_parser,
        "obs": obs_parser,
    }


def test_doc_cli_lines_cover_every_cli():
    documented = {cli for doc in CLI_DOC_FILES
                  for cli, _, _ in extract_cli_lines(doc)}
    assert documented == set(cli_parsers())


@pytest.mark.parametrize(
    "doc", CLI_DOC_FILES, ids=[p.name for p in CLI_DOC_FILES],
)
def test_doc_cli_lines_parse(doc):
    parsers = cli_parsers()
    stale = []
    for cli, line, argv in extract_cli_lines(doc):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                parsers[cli]().parse_args(argv)
        except SystemExit:
            error = stderr.getvalue().strip().splitlines()[-1]
            stale.append(f"{line}\n  {error}")
    assert not stale, (f"{doc.name} CLI lines the CLI rejects:\n"
                       + "\n".join(stale))
