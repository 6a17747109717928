"""ESAM system facade — the library's main entry point.

Typical use::

    from repro import EsamSystem
    from repro.hw.config import HardwareConfig

    system = EsamSystem.from_pretrained(config=HardwareConfig())
    result = system.classify_images(images, labels)
    print(result.accuracy, result.report.summary())

The facade wires together the trained network, the cycle-accurate tile
simulator and the energy model, and exposes the online-learning path.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import ClassificationResult, HardwareReport
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.learning.convert import ConvertedSNN
from repro.learning.online import OnlineLearningEngine, OnlineLearningReport
from repro.learning.pretrained import get_reference_model
from repro.learning.stdp import StochasticSTDP
from repro.snn.encode import encode_images
from repro.snn.model import BinarySNN
from repro.system.energy import SystemEnergyModel
from repro.tile.network import EsamNetwork, InferenceTrace


class EsamSystem:
    """A configured ESAM accelerator holding one trained network."""

    def __init__(self, snn: ConvertedSNN,
                 config: HardwareConfig | None = None) -> None:
        self.snn = snn
        self.network = EsamNetwork(
            snn.weights, snn.thresholds, output_bias=snn.output_bias,
            config=config,
        )
        # The network reconciles layer_sizes with the actual weights.
        self.config = self.network.config
        self.cell_type = self.config.cell_type
        self.vprech = self.config.vprech
        self._energy_model = SystemEnergyModel(self.network)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_pretrained(cls, config: HardwareConfig | None = None,
                        quality: str = "full") -> "EsamSystem":
        """Build the paper's system with the cached trained network.

        ``config`` (default: the paper's design point) selects the
        hardware; its ``seed`` picks the trained model.
        """
        config = config or HardwareConfig()
        reference = get_reference_model(quality, config.seed)
        return cls(reference.snn, config=config)

    @classmethod
    def from_random(cls, layer_sizes: tuple[int, ...], seed: int = 0,
                    config: HardwareConfig | None = None) -> "EsamSystem":
        """Random binary network (workload studies, not classification)."""
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input + output layer")
        rng = np.random.default_rng(seed)
        weights = [
            rng.integers(0, 2, (fan_in, fan_out)).astype(np.uint8)
            for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        ]
        thresholds = [
            rng.integers(0, max(2, fan_in // 8), fan_out)
            for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        ]
        snn = ConvertedSNN(
            weights=weights,
            thresholds=thresholds,
            output_bias=np.zeros(layer_sizes[-1]),
        )
        return cls(snn, config=config)

    # -- inference ------------------------------------------------------------------

    def functional_model(self) -> BinarySNN:
        """The batched functional twin of the hardware network."""
        return self.snn.to_model()

    def classify_spikes(self, spikes: np.ndarray,
                        labels: np.ndarray | None = None,
                        engine: str = "fast") -> ClassificationResult:
        """Hardware-accurate classification of encoded spike vectors.

        ``engine`` selects any registered backend
        (:func:`repro.tile.backend_names`; ``"fast"`` default).  Predictions,
        traces and the hardware report are identical for every backend
        (proven trace-equivalent by the conformance suite) — keep
        ``"cycle"`` for auditing against the bit-true reference.
        """
        spikes = np.atleast_2d(np.asarray(spikes))
        self.network.reset_stats()
        trace = InferenceTrace()
        predictions = self.network.classify_batch(spikes, trace, engine=engine)
        metrics = self._energy_model.metrics(trace)
        report = HardwareReport(images=spikes.shape[0], metrics=metrics)
        return ClassificationResult(
            predictions=predictions,
            labels=None if labels is None else np.asarray(labels),
            report=report,
        )

    def classify_images(self, images: np.ndarray,
                        labels: np.ndarray | None = None,
                        engine: str = "fast") -> ClassificationResult:
        """Encode 28x28 images (crop + binarise) and classify them."""
        return self.classify_spikes(encode_images(images), labels, engine=engine)

    # -- online learning ---------------------------------------------------------------

    def online_learning_engine(self, layer: int = 0,
                               rule: StochasticSTDP | None = None,
                               ) -> OnlineLearningEngine:
        """STDP engine attached to one tile's transposed port."""
        if not 0 <= layer < len(self.network.tiles):
            raise ConfigurationError(f"layer {layer} out of range")
        return OnlineLearningEngine(self.network.tiles[layer], rule)

    def __repr__(self) -> str:
        sizes = ":".join(str(s) for s in self.snn.layer_sizes)
        return f"EsamSystem({sizes}, {self.cell_type.value}, vprech={self.vprech})"
