"""Dense linear-algebra primitives the rest of the package builds on.

All functions operate on 2-D float64 arrays (rows = samples, columns =
feature dimensions), never mutate their inputs, and reject non-finite
values at the boundary.  float32 appears only inside the file formats.
"""

from __future__ import annotations

import numpy as np

# Norm guard: vectors shorter than this are treated as zero rather than
# blowing up the division.  Zero embeddings normalise to zero.
DEFAULT_EPS = 1e-12


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce ``M`` to a 2-D float64 array with at least one row and column."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite input")
    return A


def row_norms(A: np.ndarray) -> np.ndarray:
    """L2 norm of every row."""
    return np.sqrt(np.einsum("ij,ij->i", A, A))


def l2_normalize(M, axis: str = "rows", eps: float = DEFAULT_EPS) -> np.ndarray:
    """Scale each row (or column) of ``M`` to unit L2 norm.

    Vectors whose norm is below ``eps`` are divided by ``eps`` instead, so
    an all-zero vector passes through as zeros instead of erroring.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    A = as_matrix(M)
    if axis == "rows":
        norms = row_norms(A)[:, None]
    elif axis == "cols":
        norms = np.sqrt(np.einsum("ij,ij->j", A, A))[None, :]
    else:
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    return A / np.maximum(norms, eps)


def mean_rowwise_dot(S, T) -> float:
    """Mean over rows of the row-wise dot product ``S_i . T_i``."""
    A = as_matrix(S, "S")
    B = as_matrix(T, "T")
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    return float(np.mean(np.einsum("ij,ij->i", A, B)))


def top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` largest entries of every row, largest first.

    Ties go to the lower column, so the result equals
    ``np.argsort(-sims, axis=1, kind="stable")[:, :k]`` exactly, but only
    the entries at or above each row's k-th largest value get sorted.
    Needs ``1 <= k <= sims.shape[1]`` and no NaN.
    """
    m, n = sims.shape
    if k == 1:
        kth = sims.max(axis=1)
    else:
        kth = np.partition(sims, n - k, axis=1)[:, n - k]
    # every row has at least k candidates, more when ties cross the threshold
    # (flatnonzero is several times faster than a 2-D nonzero)
    rows, cols = np.divmod(np.flatnonzero(sims >= kth[:, None]), n)
    order = np.lexsort((cols, -sims[rows, cols], rows))
    counts = np.bincount(rows, minlength=m)
    first = np.cumsum(counts) - counts
    return cols[order][first[:, None] + np.arange(k)]


# Similarities held at once by cosine_top_k when no block size is given.
BLOCK_SIMS = 1 << 20


def cosine_top_k(Q: np.ndarray, G: np.ndarray, k: int, exclude_self: bool = False,
                 block_rows: int | None = None):
    """Yield ``(start, top)`` per block of rows of ``Q``, ranking the rows of ``G``.

    ``Q`` and ``G`` hold unit rows; ``top[r]`` lists the ``k`` rows of ``G``
    most cosine-similar to ``Q[start + r]``, best first, ties to the lower
    index.  With ``exclude_self``, row i of ``Q`` never ranks row i of ``G``.
    Blocks have ``block_rows`` rows (default: about ``BLOCK_SIMS``
    similarities), so no ``len(Q) x len(G)`` array is ever built.
    """
    n_q, n_g = Q.shape[0], G.shape[0]
    step = block_rows or max(1, BLOCK_SIMS // n_g)
    for start in range(0, n_q, step):
        stop = min(start + step, n_q)
        # einsum, not BLAS matmul: each similarity depends on its two rows
        # alone, so identical candidates tie exactly and no block size or
        # query count can change a ranking
        sims = np.einsum("id,jd->ij", Q[start:stop], G)
        if exclude_self:
            sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        top = top_k(sims, k)
        del sims  # free this block before the next one is computed
        yield start, top


def pairwise_cosine(M) -> np.ndarray:
    """All-pairs cosine similarity between the rows of ``M``.

    Returns an exactly symmetric N x N matrix clamped to [-1, 1]; the
    diagonal is 1 for nonzero rows and 0 for zero rows.
    """
    A = l2_normalize(M, axis="rows")
    S = A @ A.T
    S = 0.5 * (S + S.T)
    np.clip(S, -1.0, 1.0, out=S)
    np.fill_diagonal(S, np.where(row_norms(as_matrix(M)) > 0.0, 1.0, 0.0))
    return S
