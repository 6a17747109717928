"""System-level evaluation: Figure 8 and the headline claims.

Builds the paper's 768:256:256:256:10 network for each SRAM cell
option, runs the spike-by-spike simulator over a sample of encoded
digits, and rolls the activity up into throughput / power /
energy-per-inference / area — "the synthesis results, combined with the
SRAM macro outcomes, are utilized to simulate the network on a
spike-by-spike basis in Python" (section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.learning.convert import ConvertedSNN
from repro.learning.pretrained import get_reference_model
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.snn.encode import encode_images
from repro.system.energy import SystemEnergyModel, SystemMetrics
from repro.tile.network import EsamNetwork, InferenceTrace, validate_engine


@dataclass(frozen=True)
class Figure8Row:
    """One bar group of Figure 8."""

    cell_type: CellType
    metrics: SystemMetrics

    @property
    def throughput_minf_s(self) -> float:
        return self.metrics.throughput_inf_s / 1e6

    @property
    def energy_per_inf_pj(self) -> float:
        return self.metrics.energy_per_inference_pj

    @property
    def power_mw(self) -> float:
        return self.metrics.power_mw

    @property
    def area_mm2(self) -> float:
        return self.metrics.area_um2 / 1e6


@dataclass(frozen=True)
class HeadlineClaims:
    """Section 4.4.2 / abstract claims, measured."""

    speedup_vs_1rw: float
    energy_efficiency_vs_1rw: float
    throughput_minf_s: float
    energy_per_inf_pj: float
    power_mw: float
    area_ratio_vs_1rw: float
    accuracy: float


def claims_from_rows(rows: list[Figure8Row],
                     accuracy: float = float("nan")) -> HeadlineClaims:
    """Derive the abstract's claims from Figure-8 rows.

    Pure arithmetic over already-evaluated rows, so cached sweep
    results (:class:`repro.sweep.SweepResult`) can recompute the
    claims without touching the simulator.  ``accuracy`` is carried
    through verbatim — it comes from the functional model, not from
    the hardware rows.
    """
    by_cell = {row.cell_type: row for row in rows}
    if CellType.C6T not in by_cell or CellType.C1RW4R not in by_cell:
        raise ConfigurationError("figure-8 rows must include 1RW and 1RW+4R")
    base = by_cell[CellType.C6T]
    best = by_cell[CellType.C1RW4R]
    return HeadlineClaims(
        speedup_vs_1rw=best.throughput_minf_s / base.throughput_minf_s,
        energy_efficiency_vs_1rw=(
            base.energy_per_inf_pj / best.energy_per_inf_pj
        ),
        throughput_minf_s=best.throughput_minf_s,
        energy_per_inf_pj=best.energy_per_inf_pj,
        power_mw=best.power_mw,
        area_ratio_vs_1rw=best.area_mm2 / base.area_mm2,
        accuracy=accuracy,
    )


class SystemEvaluator:
    """Runs the Figure-8 sweep over the five cell options.

    ``config`` is the hardware every evaluation starts from (default:
    the paper's design point); its seed picks the trained model and the
    spike sample.  ``sample_images`` is how many images are simulated
    cycle-accurately for the energy/throughput estimate (accuracy uses
    the functional model over the full set).
    """

    def __init__(self, config: HardwareConfig | None = None,
                 sample_images: int = 64,
                 snn: ConvertedSNN | None = None,
                 quality: str = "full") -> None:
        if sample_images < 1:
            raise ConfigurationError("sample_images must be >= 1")
        self.config = config or HardwareConfig()
        self.sample_images = sample_images
        self.quality = quality
        if snn is None:
            reference = get_reference_model(quality, self.config.seed)
            self._snn = reference.snn
            self._accuracy = reference.test_accuracy
            self._dataset = reference.dataset
        else:
            self._snn = snn
            self._accuracy = float("nan")
            self._dataset = None
        self._spikes = self._sample_spikes()

    @property
    def snn(self) -> ConvertedSNN:
        """The converted network under evaluation."""
        return self._snn

    def _sample_spikes(self) -> np.ndarray:
        if self._dataset is not None:
            images = self._dataset.test_images[: self.sample_images]
            return encode_images(images)
        rng = np.random.default_rng(self.config.seed)
        n_in = self._snn.layer_sizes[0]
        return (
            rng.random((self.sample_images, n_in)) < 0.16
        ).astype(np.uint8)

    # -- single design point ------------------------------------------------------

    def build_network(self, cell_type: CellType | None = None,
                      hardware: HardwareConfig | None = None) -> EsamNetwork:
        """The network on a full ``hardware`` descriptor, else on this
        evaluator's config with ``cell_type`` swapped in (every other
        field carried)."""
        if hardware is None:
            if cell_type is None:
                raise ConfigurationError(
                    "need a cell_type or a hardware config"
                )
            hardware = self.config.replace(cell_type=cell_type)
        return EsamNetwork(
            self._snn.weights,
            self._snn.thresholds,
            output_bias=self._snn.output_bias,
            config=hardware,
        )

    def evaluate_cell(self, cell_type: CellType | None = None,
                      engine: str = "fast",
                      hardware: HardwareConfig | None = None) -> Figure8Row:
        """Hardware-accurate evaluation of one cell option.

        ``engine`` selects any registered backend (``"fast"`` default —
        identical traces and energies to every other backend, orders of
        magnitude faster than the per-cycle reference for the sweep).
        The hardware is this evaluator's config at ``cell_type``, or a
        full ``hardware`` descriptor — the sweep runner passes each
        point's, so no hardware field can be silently dropped.
        """
        # Fail on an unknown engine before building the network, not
        # deep inside the inference call stack.
        validate_engine(engine)
        network = self.build_network(cell_type, hardware)
        trace = InferenceTrace()
        network.infer_batch(self._spikes, trace, engine=engine)
        metrics = SystemEnergyModel(network).metrics(trace)
        return Figure8Row(cell_type=network.cell_type, metrics=metrics)

    # -- the full figure -----------------------------------------------------------

    def figure8(self, engine: str = "fast") -> list[Figure8Row]:
        """All five cell options (Figure 8's x-axis).

        Each row is :meth:`evaluate_cell` at this evaluator's config
        with only the cell option changed, so a clock override, node or
        corner holds for every bar.  ``engine`` selects any registered
        backend; every backend renders identical rows (pinned by the
        golden-parity suite).
        """
        return [self.evaluate_cell(cell, engine=engine) for cell in ALL_CELLS]

    def headline_claims(self, rows: list[Figure8Row] | None = None) -> HeadlineClaims:
        """The abstract's 3.1x / 2.2x / 44 MInf/s / 607 pJ / 29 mW set."""
        return claims_from_rows(rows or self.figure8(), self._accuracy)
