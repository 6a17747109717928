"""Dataset assembly: train/test splits with caching.

Generation is deterministic per seed, so a dataset is fully described
by ``(seed, n_train, n_test)``.  A small in-process cache avoids
re-rendering across benchmarks in the same session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.digits import DigitGenerator
from repro.errors import ConfigurationError, _integer


@dataclass(frozen=True)
class DigitDataset:
    """Float images in [0, 1] plus integer labels.

    The test split is rendered when the dataset is built.  The training
    split is rendered on the first read of ``train_images``,
    ``train_labels`` or :meth:`class_balance`, since only training reads
    it.  The two splits draw from separate generators, so when the
    training split is rendered cannot change either split.
    """

    test_images: np.ndarray
    test_labels: np.ndarray
    n_train: int
    _train_seed: int

    @cached_property
    def _train_split(self) -> tuple[np.ndarray, np.ndarray]:
        return DigitGenerator(seed=self._train_seed).generate(self.n_train)

    @property
    def train_images(self) -> np.ndarray:
        return self._train_split[0]

    @property
    def train_labels(self) -> np.ndarray:
        return self._train_split[1]

    @property
    def n_test(self) -> int:
        return self.test_images.shape[0]

    def class_balance(self) -> np.ndarray:
        """Fraction of each class in the training split."""
        counts = np.bincount(self.train_labels, minlength=10)
        return counts / max(1, self.n_train)


_CACHE: dict[tuple[int, int, int], DigitDataset] = {}


def load_dataset(n_train: int = 6000, n_test: int = 1500,
                 seed: int = 42) -> DigitDataset:
    """Generate (or fetch from cache) a deterministic digit dataset.

    Every argument is checked here, since the training split renders
    only on its first read.
    """
    n_train = _integer("n_train", n_train)
    n_test = _integer("n_test", n_test)
    seed = _integer("seed", seed)
    if n_train < 1 or n_test < 1:
        raise ConfigurationError("n_train and n_test must be >= 1")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    key = (seed, n_train, n_test)
    if key not in _CACHE:
        test_images, test_labels = DigitGenerator(
            seed=seed + 1_000_003
        ).generate(n_test)
        _CACHE[key] = DigitDataset(
            test_images=test_images,
            test_labels=test_labels,
            n_train=n_train,
            _train_seed=seed,
        )
    return _CACHE[key]
