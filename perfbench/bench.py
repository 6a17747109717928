"""The benchmark run: set-up, interleaved phases, checks and the result line.

``perfbench/run.py`` puts the program's ``src/`` on the import path and
calls :func:`main`.  Every run sets up the paper point (1RW+4R, 3 nm,
typical, Vprech 0.5 V, the 768:256:256:256:10 ``full`` reference model,
``fast`` engine) and then measures four phases, splitting ``--seconds``
between them:

* ``engine`` -- closed-loop ``classify_batch`` on 256-row batches;
* ``inproc`` -- ``InferenceServer`` driven by a paced ladder, then saturated;
* ``fleet`` -- the same traces through a one-worker ``FleetServer``;
* ``campaign`` -- the default reliability grid, cold and then warm.

The two workloads differ only in the rows fed to the engine and the
servers (see ``perfbench/inputs.py``).  With ``--trace 0`` the last line
of standard output is a JSON object carrying every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` a tracer records every span, the
spans are written as JSONL under ``.perfbench/`` next to the per-layer
numbers, and the last line carries every per-layer metric.  Lines before
it are a readable report.  The exit code is 0 only when the run finished;
``correct`` says whether every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker

import numpy as np

from repro.envinfo import environment_info
from repro.learning.pretrained import get_reference_model
from repro.obs import Tracer, set_tracer

from perfbench.campaign_phase import CampaignPhase
from perfbench.context import Context
from perfbench.engine_phase import (
    BATCH_ROWS,
    EnginePhase,
    build_network,
    cycle_check,
    simulate_headline,
)
from perfbench.inputs import WORKLOADS, RowPool
from perfbench.layers import self_time_table
from perfbench.serve_phase import ServePhase
from perfbench.stats import median, summarize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MODEL_QUALITY = "full"
MODEL_SEED = 42
#: Where ``repro.learning.pretrained`` caches the trained reference model.
ARTIFACT = ROOT / ".artifacts" / f"esam_bnn_{MODEL_QUALITY}_seed{MODEL_SEED}.npz"
#: Share of ``--seconds`` each phase measures for.
PHASE_SHARES = {"engine": 0.2, "inproc": 0.3, "fleet": 0.3, "campaign": 0.2}
#: Rounds per run; each phase measures one slice per round.
ROUNDS = 4
#: Batches timed on each side of the tracing-overhead ratio.
OVERHEAD_BATCHES = 30


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ensure_model() -> bool:
    """Train the reference model in a child process if it is missing.

    Training happens before anything is timed and in its own process, so
    the timed model load always reads the on-disk artifact.  Returns
    whether a model was trained.
    """
    if ARTIFACT.exists():
        return False
    subprocess.run(
        [sys.executable, "-c",
         "from repro.learning.pretrained import get_reference_model; "
         f"get_reference_model({MODEL_QUALITY!r}, {MODEL_SEED})"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT, check=True,
        timeout=600,
    )
    return True


def _trace_overhead(ctx, reference, pool, tracer) -> float:
    """Median traced batch time over median untraced, batches alternated.

    Every batch carries fresh rows, so neither side replays a batch the
    other has just warmed.
    """
    network = build_network(reference)
    stream = pool.stream(ctx.rng("overhead"))
    timings = {True: [], False: []}
    for i in range(2 * OVERHEAD_BATCHES):
        rows, _ = stream.take(BATCH_ROWS)
        traced = bool(i % 2)
        set_tracer(tracer if traced else None)
        started = time.perf_counter()
        network.classify_batch(rows)
        timings[traced].append(time.perf_counter() - started)
    set_tracer(tracer)
    ctx.count(2 * OVERHEAD_BATCHES)
    return median(timings[True]) / median(timings[False])


class HostReference:
    """A fixed task that uses no repository code, timed every round.

    Its median time (``env.host_ref_ms``) tracks how fast the host itself
    ran while the phases were measured, so a reader can tell a slow host
    from slow code when comparing runs.
    """

    REPEATS = 15

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 768))
        self._b = rng.random((768, 256))
        self.samples: list[float] = []

    def _task(self) -> None:
        self._a @ self._b
        total = 0
        for i in range(20000):
            total += i * i

    def sample(self) -> None:
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            self._task()
            self.samples.append(time.perf_counter() - started)


def run(args) -> Context:
    OUT_DIR.mkdir(exist_ok=True)
    trained = _ensure_model()
    started = time.perf_counter()
    reference = get_reference_model(MODEL_QUALITY, MODEL_SEED)
    model_load_s = time.perf_counter() - started

    ctx = Context(workload=args.workload, seed=args.seed)
    pool = RowPool(args.workload, reference.dataset.test_images)
    tracer = None
    if args.trace:
        tracer = Tracer()
        ctx.metric("obs.trace_overhead_ratio",
                   _trace_overhead(ctx, reference, pool, tracer), "x")
        ctx.tracer = tracer
    budget = {k: share * args.seconds for k, share in PHASE_SHARES.items()}
    servers = []
    try:
        simulate_headline(ctx, reference)
        cycle_check(ctx, reference, pool)
        # The fleet forks its worker before any other thread exists.
        fleet = ServePhase(ctx, reference, pool.stream(ctx.rng("rows/serve")),
                           "fleet", budget["fleet"], ROUNDS)
        servers.append(fleet)
        inproc = ServePhase(ctx, reference,
                            pool.stream(ctx.rng("rows/serve")), "inproc",
                            budget["inproc"], ROUNDS)
        servers.append(inproc)
        engine = EnginePhase(ctx, reference,
                             pool.stream(ctx.rng("rows/engine")))
        campaign = CampaignPhase(ctx, str(OUT_DIR))
        host = HostReference()
        # Every phase measures a slice of every round, so slow drift of
        # the host's speed spreads over all metrics alike.
        for index in range(ROUNDS):
            host.sample()
            engine.run_slice(budget["engine"] / ROUNDS)
            inproc.run_slice(index)
            fleet.run_slice(index)
            campaign.run_slice(budget["campaign"] / ROUNDS)
        for server in (inproc, fleet):
            servers.remove(server)
            server.close()
        engine.finish(reference)
        campaign.finish(reference)
    finally:
        for server in servers:
            server.server.stop(drain=False)
        if tracer is not None:
            set_tracer(None)

    setup = {
        "model_load_s": model_load_s,
        "network_build_s": median(engine.network_build_s
                                  + [inproc.network_build_s,
                                     fleet.network_build_s]),
        "engine_build_s": median(engine.engine_build_s),
        "inproc_start_s": median(inproc.start_s),
        "fleet_start_s": median(fleet.start_s),
    }
    ctx.metric("setup_s", sum(setup.values()), "s")
    # Peak of this process plus the largest child it waited for: the
    # fleet workers (and the model training step, when one ran).
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ctx.metric("rss_mb", peak_kb / 1024, "MB")
    ctx.metric("success_rate", 1.0 - ctx.failed / max(1, ctx.attempted),
               "ratio")
    ctx.metric("env.cpu_count", os.cpu_count() or 1, "count")
    ctx.metric("env.host_ref_ms", median(host.samples) * 1e3, "ms")
    ctx.report["setup"] = {**setup, "model_trained_first": trained}
    ctx.report["environment"] = {
        **environment_info(), "cpu_count": os.cpu_count(),
        "host_ref_ms": summarize([t * 1e3 for t in host.samples], "ms"),
    }
    ctx.report["checks"] = ctx.checks

    if tracer is not None:
        stem = f"{args.workload}-seed{args.seed}"
        spans = tracer.spans()
        tracer.write_jsonl(OUT_DIR / f"trace-{stem}.jsonl")
        ctx.report["self_time"] = self_time_table(spans)
        (OUT_DIR / f"layers-{stem}.json").write_text(json.dumps(
            {"metrics": ctx.metrics, "report": ctx.report}, indent=1,
            default=str) + "\n")
    return ctx


def _child_pids() -> list[int]:
    """Process ids of this process's living (or unreaped) children."""
    pids = []
    for task in pathlib.Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def _stop_children(grace_s: float = 5.0) -> None:
    """Stop every process the run started and wait until each has ended.

    The fleet's shared-memory ring starts multiprocessing's resource
    tracker, which would otherwise exit only after this process has, and
    nobody would wait for it.  Any other child still there (a fleet
    worker on an error path) is terminated, then killed after
    ``grace_s``.
    """
    resource_tracker._resource_tracker._stop()
    pids = _child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def main(argv) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        ctx = run(args)
    finally:
        _stop_children()
    for section, body in ctx.report.items():
        print(f"== {section}: {json.dumps(body, default=str)}")
    print(f"== checks: {'all passed' if ctx.correct else 'FAILED'}")
    metrics = {}
    for entry in declared:
        measured = ctx.metrics.get(entry["name"])
        if measured is None or measured["value"] is None:
            print(f"error: metric {entry['name']} was not measured",
                  file=sys.stderr)
            return 3
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": entry["unit"]}
    print(json.dumps({"correct": ctx.correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0
