"""Dataset container, neighbour-enhanced batch composition, augmentation.

Labels ride along for evaluation only; the training path strips them by
construction and never looks at them.  ``Dataset`` validates its arrays;
``epoch_batches``, ``compose_batch`` and ``augment`` are ``distill``'s step
kernels and take what ``distill`` checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knn import NeighborIndex, sample_neighbors
from .linalg import as_matrix


@dataclass(eq=False)
class Dataset:
    inputs: np.ndarray                    # (n, dim) float64
    labels: np.ndarray | None = None      # (n,) int64, evaluation only

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs, "inputs")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.inputs.shape[0],):
                raise ValueError("labels length must equal the sample count")
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be nonnegative")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def without_labels(self) -> "Dataset":
        """Label-stripped view handed to the distillation loop."""
        return Dataset(self.inputs, None)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        if not np.array_equal(self.inputs, other.inputs):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


def epoch_batches(n: int, b: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Chunk a seeded permutation of [0, n) into ceil(n/b) batches.

    The final batch may be short; every sample anchors exactly one batch
    per epoch.  Takes the ``1 <= b <= n`` that ``distill`` checked.
    """
    perm = rng.permutation(n)
    return [perm[start : start + b] for start in range(0, n, b)]


def compose_batch(anchors, index: NeighborIndex, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sample indices of one neighbour-enhanced batch; k=0 reproduces the plain batch.

    The anchors come first, then the k sampled neighbours of each anchor in
    anchor order, so every batch is reproducible from the rng stream alone.
    Takes ``distill``'s int64 anchors and its checked ``0 <= k <= index.pool``.
    """
    picks = sample_neighbors(index, anchors, k, rng)
    return np.concatenate([anchors, picks.ravel()])


def augment(X, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise, entrywise: X + sigma * G.

    Takes ``distill``'s checked batch and ``sigma >= 0``, and draws the
    noise in the batch's dtype, so a float32 batch gets float32 draws.  It
    draws even when ``sigma`` is 0; ``distill`` skips the call then.
    """
    return X + sigma * rng.standard_normal(X.shape, dtype=X.dtype)
