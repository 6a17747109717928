"""Synthetic MNIST-like handwritten-digit dataset.

The paper evaluates on MNIST; this environment has no network access,
so an equivalent 28x28 grayscale digit dataset is generated
procedurally (stroke-skeleton rendering with random affine jitter,
stroke-width variation and pixel noise).  The full pipeline — corner
cropping to 768 inputs, binarisation, BNN training, SNN conversion,
spike-by-spike hardware simulation — is identical to the paper's; only
the absolute accuracy value is dataset-dependent (see the note on the
MNIST substitute in PAPER.md).
"""

from repro.data.digits import DigitGenerator, render_digit
from repro.data.loader import DigitDataset, load_dataset

__all__ = ["DigitGenerator", "render_digit", "DigitDataset", "load_dataset"]
