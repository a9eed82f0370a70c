"""Synthetic data generators.

The paper trains on ImageNet-1k (ViT) and Wikipedia (BERT/GPT); offline we
substitute learnable synthetic tasks with the same tensor shapes:

* ``synthetic_image_classification`` — images drawn as class prototypes
  plus Gaussian noise.  Linearly separable enough that accuracy climbs
  within a few epochs (what Fig 7 needs: *curves* that either coincide
  across parallel modes or don't), while noisy enough to need real
  optimization.
"""

from __future__ import annotations

import copy
from typing import Iterator, Optional, Tuple

import numpy as np


def synthetic_image_classification(
    n_samples: int,
    image_size: int = 32,
    channels: int = 3,
    n_classes: int = 10,
    noise: float = 0.7,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Returns (images [N, H, W, C] float32, labels [N] int64)."""
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((n_classes, image_size, image_size, channels))
    labels = rng.integers(0, n_classes, n_samples)
    images = prototypes[labels] + noise * rng.standard_normal(
        (n_samples, image_size, image_size, channels)
    )
    return images.astype(np.float32), labels.astype(np.int64)


class DataLoader:
    """Minimal epoch iterator over in-memory arrays with optional
    shuffling; yields (data, label) global batches (parallel bundles shard
    them per rank)."""

    def __init__(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        batch_size: int,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if len(data) != len(labels):
            raise ValueError("data/labels length mismatch")
        self.data = data
        self.labels = labels
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = np.random.default_rng(seed)
        self.drop_last = drop_last

    def __len__(self) -> int:
        n = len(self.data) // self.batch_size
        if not self.drop_last and len(self.data) % self.batch_size:
            n += 1
        return n

    def state_dict(self) -> dict:
        """Shuffle-RNG state; captured at epoch boundaries by the Trainer so
        a resumed run replays the exact same batch order."""
        return {"rng_state": copy.deepcopy(self.rng.bit_generator.state)}

    def load_state_dict(self, state: dict) -> None:
        self.rng.bit_generator.state = copy.deepcopy(state["rng_state"])

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        idx = np.arange(len(self.data))
        if self.shuffle:
            self.rng.shuffle(idx)
        end = len(self.data) - (len(self.data) % self.batch_size if self.drop_last else 0)
        for start in range(0, end, self.batch_size):
            sel = idx[start : start + self.batch_size]
            yield self.data[sel], self.labels[sel]
