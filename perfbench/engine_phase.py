"""Engine phase: closed-loop ``EsamNetwork.classify_batch`` on 256-row batches.

On ``distinct`` each pass over the 37 500-row translation pool runs on a
freshly built engine instance, so no engine ever sees a row twice: the
kernel does nearly all the work and a kernel change shows at full
strength.  On ``repeated`` one long-lived engine classifies rows drawn
with replacement from the test digits, as a server's engine would.

Also here: the exact simulated figures over the 1500 test digits (the
paper's headline numbers and the 6T baseline they are compared with) and
the per-run differential check of a fixed 32-row subsample against the
``cycle`` reference engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.hw.config import HardwareConfig
from repro.snn.encode import encode_images
from repro.sram.bitcell import CellType
from repro.system.energy import SystemEnergyModel
from repro.tile.network import EsamNetwork, InferenceTrace

from perfbench.inputs import RowPool, RowStream
from perfbench.layers import median_self_ms, select, self_times
from perfbench.stats import RowTracker, median, summarize

BATCH_ROWS = 256
CYCLE_CHECK_ROWS = 32
#: Relative tolerance on dynamic energy between engines: the engines sum
#: the same per-access energies in another order (the repository's
#: engine-equivalence suite uses the same bound).
ENERGY_REL_TOL = 1e-12
#: Batches timed for the informational bitpacked comparison.
ALT_BATCHES = 40
#: Extra engine builds timed for ``tile.engine_build_ms``.
ENGINE_BUILD_SAMPLES = 3

#: The paper's headline figures (abstract and section 4.4.2).
PAPER = {
    "throughput_minf_s": 44.0,
    "energy_pj_per_inf": 607.0,
    "power_mw": 29.0,
    "speedup_vs_1rw": 3.1,
    "energy_eff_vs_1rw": 2.2,
}


def build_network(reference, cell_type=CellType.C1RW4R) -> EsamNetwork:
    """The reference model on the paper point (or another cell option)."""
    snn = reference.snn
    return EsamNetwork(
        snn.weights, snn.thresholds, output_bias=snn.output_bias,
        config=HardwareConfig(cell_type=cell_type),
    )


def timed(fn) -> float:
    """Wall seconds one call of ``fn`` takes."""
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


class EnginePhase:
    """Timed 256-row batches, run in slices spread over the whole run."""

    def __init__(self, ctx, reference, stream: RowStream,
                 engine: str = "fast") -> None:
        self.ctx = ctx
        self.stream = stream
        self.engine = engine
        started = time.perf_counter()
        self.network = build_network(reference)
        self.network_build_s = [time.perf_counter() - started]
        self.engine_build_s = [
            timed(lambda: self.network.engine_backend(engine, refresh=True))
            for _ in range(ENGINE_BUILD_SAMPLES)
        ]
        self.tracker = RowTracker()
        self.batch_s: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.instances = 0
        self._fresh_engine()

    def _fresh_engine(self) -> None:
        """A new pass on a new engine instance (``distinct`` needs both)."""
        self.stream.restart()
        self.tracker.reset_engine()
        self.engine_build_s.append(timed(
            lambda: self.network.engine_backend(self.engine, refresh=True)))
        self.instances += 1

    def run_slice(self, budget_s: float,
                  max_batches: int | None = None) -> None:
        started = self.ctx.now()
        deadline = time.perf_counter() + budget_s
        done = 0
        while True:
            remaining = self.stream.remaining()
            if remaining is not None and remaining < BATCH_ROWS:
                self._fresh_engine()
            rows, _ = self.stream.take(BATCH_ROWS)
            with self.ctx.span("bench.batch", engine=self.engine):
                self.batch_s.append(timed(lambda: self.network.classify_batch(
                    rows, engine=self.engine)))
            self.tracker.observe(rows)
            done += 1
            if max_batches is not None and done >= max_batches:
                break
            if time.perf_counter() >= deadline:
                break
        self.ctx.count(done)
        self.windows.append((started, self.ctx.now()))

    @property
    def img_s(self) -> float:
        return BATCH_ROWS / median(self.batch_s)

    def finish(self, reference) -> None:
        ctx = self.ctx
        ctx.metric("batch_img_s", self.img_s, "img/s")
        ctx.metric("loadgen.dup_row_share.engine", self.tracker.share,
                   "ratio")
        ctx.metric("tile.network_build_ms",
                   median(self.network_build_s) * 1e3, "ms")
        ctx.metric("tile.engine_build_ms",
                   median(self.engine_build_s) * 1e3, "ms")
        ctx.report["engine"] = {
            "batch_ms": summarize([s * 1e3 for s in self.batch_s], "ms"),
            "rows": self.tracker.rows,
            "engine_instances": self.instances,
            "dup_row_share": self.tracker.share,
        }
        if ctx.tracer is None:
            return
        spans = ctx.tracer.spans()
        selfs = self_times(spans)
        for tile in range(len(self.network.tiles)):
            for stage in ("kernel", "replay"):
                chosen = select(spans, f"engine.{stage}",
                                windows=self.windows, tile=tile)
                ctx.metric(f"tile.{stage}_ms.tile{tile}",
                           median_self_ms(selfs, chosen), "ms")
        # Cold bitpacked throughput on rows of the same stream, for the
        # keep-or-delete question on that backend (informational).
        alt = EnginePhase(ctx, reference, self.stream, engine="bitpacked")
        alt.run_slice(float("inf"), max_batches=ALT_BATCHES)
        ctx.metric("tile.alt_bitpacked_img_s", alt.img_s, "img/s")


def _simulate(reference, cell_type, spikes):
    network = build_network(reference, cell_type)
    trace = InferenceTrace()
    predictions = network.classify_batch(spikes, trace)
    return predictions, trace, SystemEnergyModel(network).metrics(trace)


def simulate_headline(ctx, reference) -> None:
    """Simulated paper figures over the 1500 test digits (exact)."""
    spikes = encode_images(reference.dataset.test_images)
    labels = reference.dataset.test_labels
    predictions, trace, best = _simulate(reference, CellType.C1RW4R, spikes)
    _, _, base = _simulate(reference, CellType.C6T, spikes)
    ctx.count(2 * len(spikes))
    measured = {
        "throughput_minf_s": best.throughput_inf_s / 1e6,
        "energy_pj_per_inf": best.energy_per_inference_pj,
        "power_mw": best.power_mw,
        "speedup_vs_1rw": best.throughput_inf_s / base.throughput_inf_s,
        "energy_eff_vs_1rw": (
            base.energy_per_inference_pj / best.energy_per_inference_pj
        ),
    }
    ctx.metric("sim_minf_s", measured["throughput_minf_s"], "MInf/s")
    ctx.metric("sim_pj_per_inf", measured["energy_pj_per_inf"], "pJ")
    ctx.metric("accuracy", float((predictions == labels).mean()), "ratio")
    ctx.metric("sim.power_mw", measured["power_mw"], "mW")
    ctx.metric("sim.speedup_vs_1rw", measured["speedup_vs_1rw"], "x")
    ctx.metric("sim.energy_eff_vs_1rw", measured["energy_eff_vs_1rw"], "x")
    ctx.metric("tile.grants_per_inf", trace.total_grants / trace.images,
               "count")
    ctx.metric("tile.array_reads_per_inf",
               trace.total_array_reads / trace.images, "count")
    ctx.metric("tile.cycles_per_inf", best.cycles_per_inference, "count")
    ctx.report["paper_vs_simulated"] = {
        "note": "607 pJ/Inf is a calibration target "
                "(CLOCK_ENERGY_PER_TILE_CYCLE_PJ in repro/system/config.py), "
                "so the absolute figures are fitted; only the ratios against "
                "the 6T (1RW) network on the same 1500 images are held out",
        **{
            key: {
                "paper": PAPER[key],
                "simulated": value,
                "relative_error": (value - PAPER[key]) / PAPER[key],
            }
            for key, value in measured.items()
        },
    }


def cycle_check(ctx, reference, pool: RowPool) -> None:
    """A fixed 32-row subsample through ``fast`` and ``cycle``: must agree."""
    pick = ctx.rng("cycle-check").choice(
        pool.size, CYCLE_CHECK_ROWS, replace=False
    )
    rows = pool.rows[np.sort(pick)]
    outcome = {}
    for engine in ("fast", "cycle"):
        network = build_network(reference)
        trace = InferenceTrace()
        predictions = network.classify_batch(rows, trace, engine=engine)
        outcome[engine] = (
            predictions.tolist(),
            (trace.images, trace.per_tile_cycles, trace.total_spikes,
             trace.total_grants, trace.total_array_reads),
            network.dynamic_energy_pj(),
        )
    fast, cycle = outcome["fast"], outcome["cycle"]
    mismatched = sum(a != b for a, b in zip(fast[0], cycle[0]))
    ctx.count(CYCLE_CHECK_ROWS, mismatched)
    ctx.check("cycle_predictions", mismatched == 0,
              f"{mismatched} of {CYCLE_CHECK_ROWS} predictions differ")
    ctx.check("cycle_trace", fast[1] == cycle[1],
              f"trace totals differ: fast {fast[1]} cycle {cycle[1]}")
    ctx.check("cycle_energy",
              abs(fast[2] - cycle[2]) <= ENERGY_REL_TOL * abs(cycle[2]),
              f"dynamic energy differs: fast {fast[2]} cycle {cycle[2]}")
