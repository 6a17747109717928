"""Offline BNN training, BNN->SNN conversion, and online STDP learning.

The names in ``__all__`` are imported on their first use, so loading
the trained-model cache (``repro.learning.pretrained``) does not load
the online-learning engine and the tile simulator beneath it.
"""

from repro._lazy import lazy_exports

#: Where each re-exported name lives.
_EXPORTS = {
    "BNNTrainer": "repro.learning.bnn",
    "TrainedBNN": "repro.learning.bnn",
    "TrainingConfig": "repro.learning.bnn",
    "bnn_to_snn": "repro.learning.convert",
    "ConvertedSNN": "repro.learning.convert",
    "StochasticSTDP": "repro.learning.stdp",
    "OnlineLearningEngine": "repro.learning.online",
    "OnlineLearningReport": "repro.learning.online",
    "ReferenceModel": "repro.learning.pretrained",
    "get_reference_model": "repro.learning.pretrained",
}

__all__ = [
    "BNNTrainer",
    "TrainedBNN",
    "TrainingConfig",
    "bnn_to_snn",
    "ConvertedSNN",
    "StochasticSTDP",
    "OnlineLearningEngine",
    "OnlineLearningReport",
    "ReferenceModel",
    "get_reference_model",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
