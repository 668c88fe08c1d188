"""Offline neighbour pre-processing over teacher embeddings.

The index stores, for every sample, the ``pool`` most similar other
samples under teacher cosine similarity.  Training later subsamples
``k <= pool`` of them per anchor, so the index is built once, up front,
from un-augmented data.  ``build_index`` validates the embeddings and the
pool, and ``NeighborIndex`` its rows; ``sample_neighbors`` is ``distill``'s
step kernel and trusts what ``distill`` checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import cosine_top_k, l2_normalize


@dataclass(eq=False)
class NeighborIndex:
    """Per-sample candidate neighbours ranked by descending similarity."""

    neighbors: np.ndarray  # (n, pool) int64

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]

    @property
    def pool(self) -> int:
        return self.neighbors.shape[1]

    def __post_init__(self):
        self.neighbors = np.asarray(self.neighbors, dtype=np.int64)
        if self.neighbors.ndim != 2:
            raise ValueError("neighbors must be a 2-D (n, pool) array")
        if self.pool < 1:
            raise ValueError("pool ≥ 1")
        if self.pool > self.n - 1:
            raise ValueError("pool too large")
        if self.neighbors.min() < 0 or self.neighbors.max() >= self.n:
            raise ValueError("neighbor index out of range")
        rows = np.arange(self.n)[:, None]
        if np.any(self.neighbors == rows):
            raise ValueError("row contains its own sample index")
        ordered = np.sort(self.neighbors, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise ValueError("duplicate neighbor index in row")

    def __eq__(self, other):
        if not isinstance(other, NeighborIndex):
            return NotImplemented
        return np.array_equal(self.neighbors, other.neighbors)


def build_index(teacher_emb, pool: int) -> NeighborIndex:
    """Rank every sample's ``pool`` nearest others by teacher cosine similarity.

    Ties are broken by lower sample index; a sample never appears in its
    own row.  A tie is one in the *computed* cosine of the C-ordered,
    ``l2_normalize``d rows (see ``linalg.cosine_top_k``), not in exact
    cosine: parallel rows of different length can round apart.
    ``cosine_top_k`` gives the whole ``(n, pool)`` ranking and never builds
    the N x N similarity matrix, yet equals the dense definition.
    """
    E = l2_normalize(teacher_emb)
    n = E.shape[0]
    if pool < 1:
        raise ValueError("pool ≥ 1")
    if pool >= n:
        raise ValueError("pool too large")
    return NeighborIndex(cosine_top_k(E, E, pool, exclude_self=True))


def sample_neighbors(index: NeighborIndex, anchors, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` distinct neighbours of every anchor, uniformly without replacement.

    Row r of the ``(len(anchors), k)`` int64 result holds the picks for
    ``anchors[r]``.  The draw takes the generator through exactly the
    states that ``rng.permutation(index.pool)[:k]`` once per anchor, in
    anchor order, would: ``Generator.permuted`` shuffles each row as
    ``permutation`` does.  k = 0 draws nothing.  ``distill``'s step kernel:
    takes its int64 anchors in ``[0, index.n)`` and ``0 <= k <= index.pool``.
    """
    if k == 0:
        return np.empty((len(anchors), 0), dtype=np.int64)
    slots = np.broadcast_to(np.arange(index.pool), (len(anchors), index.pool))
    pick = rng.permuted(slots, axis=1)[:, :k]
    return index.neighbors[anchors[:, None], pick]
