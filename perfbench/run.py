"""The repository's benchmark: one command, every layer, correctness checked.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload repeated --seed 1 --seconds 30 --trace 1

This entry point only makes the program's ``src/`` importable and hands
over to :mod:`perfbench.bench`; without ``src/`` it exits with code 2
before measuring anything.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
