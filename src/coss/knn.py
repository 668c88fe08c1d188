"""Offline neighbour pre-processing over teacher embeddings.

The index stores, for every sample, the ``pool`` most similar other
samples under teacher cosine similarity.  Training later subsamples
``k <= pool`` of them per anchor, so the index is built once, up front,
from un-augmented data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import cosine_top_k, l2_normalize


@dataclass(eq=False)
class NeighborIndex:
    """Per-sample candidate neighbours ranked by descending similarity."""

    n: int
    pool: int
    neighbors: np.ndarray = field(repr=False)  # (n, pool) int64

    def __post_init__(self):
        self.neighbors = np.asarray(self.neighbors, dtype=np.int64)
        if self.neighbors.shape != (self.n, self.pool):
            raise ValueError("neighbors shape does not match (n, pool)")
        if self.pool < 1:
            raise ValueError("pool ≥ 1")
        if self.pool > self.n - 1:
            raise ValueError("pool too large")
        if self.neighbors.size:
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
        return (
            self.n == other.n
            and self.pool == other.pool
            and np.array_equal(self.neighbors, other.neighbors)
        )


def build_index(teacher_emb, pool: int) -> NeighborIndex:
    """Rank every sample's ``pool`` nearest others by teacher cosine similarity.

    Ties are broken by lower sample index; a sample never appears in its
    own row.  A tie is one in the *computed* cosine of the C-ordered,
    ``l2_normalize``d rows (see ``linalg.cosine_top_k``), not in exact
    cosine: parallel rows of different length can round apart.
    Similarities are computed blockwise so the full N x N matrix is never
    materialised, but the result is identical to the dense definition.
    """
    E = l2_normalize(teacher_emb)
    n = E.shape[0]
    if pool < 1:
        raise ValueError("pool ≥ 1")
    if pool >= n:
        raise ValueError("pool too large")
    blocks = cosine_top_k(E, E, pool, exclude_self=True)
    return NeighborIndex(n=n, pool=pool, neighbors=np.concatenate([top for _, top in blocks]))


def sample_neighbors(index: NeighborIndex, anchors, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` distinct neighbours of every anchor, uniformly without replacement.

    Row r of the ``(len(anchors), k)`` int64 result holds the picks for
    ``anchors[r]``.  The draw takes the generator through exactly the
    states that ``rng.permutation(index.pool)[:k]`` once per anchor, in
    anchor order, would: ``Generator.permuted`` shuffles each row as
    ``permutation`` does.  k = 0 draws nothing.  An anchor outside
    ``[0, index.n)`` raises ValueError, whatever k.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    if anchors.size and (anchors.min() < 0 or anchors.max() >= index.n):
        raise ValueError("anchor out of range")
    if k < 0:
        raise ValueError("k ≥ 0")
    if k > index.pool:
        raise ValueError("k exceeds pool")
    if k == 0:
        return np.empty((len(anchors), 0), dtype=np.int64)
    slots = np.broadcast_to(np.arange(index.pool), (len(anchors), index.pool))
    pick = rng.permuted(slots, axis=1)[:, :k]
    return index.neighbors[anchors[:, None], pick]
