"""Smoke test of the benchmark itself, at the shortest run length.

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json`` with
``--seconds 1``, untraced and traced, and checks that the last line names
every declared metric with its declared unit, that every output check
passed and that no operation failed.  It also runs the benchmark from a
directory holding only ``BENCHMARK.json`` and the benchmark's own files,
where it must exit non-zero without printing a result.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def _run(cwd: pathlib.Path, workload: str, trace: int):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(workload: str, trace: int) -> list[str]:
    """Problems found in one short run (empty when it is sound)."""
    done = _run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{workload}/trace{trace}: exit {done.returncode}: "
                f"{done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("an output check failed")
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append("metric names differ from BENCHMARK.json")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: {got!r}, expected unit "
                            f"{metric['unit']}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{metric['name']}: value {got['value']!r}")
    return [f"{workload}/trace{trace}: {p}" for p in problems]


def check_bare_directory() -> list[str]:
    """Without the program's source the benchmark must fail, quietly."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = pathlib.Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, SPEC["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout "
                f"{done.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    problems = check_bare_directory()
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_run(workload["name"], trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
