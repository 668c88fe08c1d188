"""Dense linear-algebra primitives the rest of the package builds on.

All functions operate on 2-D arrays (rows = samples, columns = feature
dimensions) and never mutate their inputs.  Only ``as_matrix`` and
``l2_normalize`` validate; the kernels take arrays that passed ``as_matrix``,
which are C-ordered, so no kernel decides a memory layout again.  Column
cosines are ``row_cosines`` of the transposed views, never of copies.
The kernels compute in their inputs' dtype: float64 everywhere but in
training, which ``distill`` runs on ``float32_copy``s.  The index and eval
rankings are float64; float32 appears there only in ``cosine_top_k``'s BLAS
screen, which picks candidates and never decides an order.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Norm guard: vectors shorter than this are treated as zero rather than
# blowing up the division.  Zero embeddings normalise to zero.
DEFAULT_EPS = 1e-12


def as_matrix(M, name: str = "matrix", dtype=np.float64) -> np.ndarray:
    """Coerce ``M`` to a C-ordered 2-D ``dtype`` array with at least one row and column.

    A C-ordered array of ``dtype`` comes back as itself.  einsum rounds by
    memory layout, so this is the one place that fixes it.  Every public
    entry takes the float64 default; only ``forward`` passes float32, for
    float32 rows.
    """
    A = np.asarray(M, dtype=dtype, order="C")
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(A)):
        raise NumericalError("non-finite input")
    return A


def float32_copy(A: np.ndarray, what: str) -> np.ndarray:
    """A float32 copy of the finite ``A``, or NumericalError if float32 cannot hold a value.

    A finite value beyond float32's range would round to inf.
    """
    with np.errstate(over="ignore"):
        out = A.astype(np.float32)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"{what} has values float32 cannot hold")
    return out


def unit_rows(A: np.ndarray):
    """``(norms, A_hat)``: every row's L2 norm and the rows scaled to unit norm.

    Rows whose norm is below ``DEFAULT_EPS`` are divided by it instead, so an
    all-zero row passes through as zeros.  einsum rounds by memory layout.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    return norms, A / np.maximum(norms, DEFAULT_EPS)[:, None]


def row_cosines(S: np.ndarray, T: np.ndarray):
    """``(ns, nt, S_hat, T_hat, cos)``: ``unit_rows`` of both and each row pair's cosine.

    ``l_co`` averages ``cos`` over the rows of a pair, ``l_ss`` over its transposes.
    """
    ns, S_hat = unit_rows(S)
    nt, T_hat = unit_rows(T)
    return ns, nt, S_hat, T_hat, np.einsum("ij,ij->i", S_hat, T_hat)


def l2_normalize(M) -> np.ndarray:
    """Validate ``M`` and scale each row to unit L2 norm (see ``unit_rows``)."""
    return unit_rows(as_matrix(M))[1]


def _candidates(sims: np.ndarray, k: int, margin: float = 0.0):
    """Row and column of every entry at least its row's bound minus ``margin``.

    The bound is the row's maximum for k = 1, else the k-th largest of its
    g = min(n, max(8k, 128)) group maxima, column j in group j mod g (the
    last n mod g columns left out).  Those are g distinct entries of the
    row, so every row has at least k candidates, more when ties, the bound
    or the margin let them in.
    """
    m, n = sims.shape
    if k == 1:
        kth = sims.max(axis=1)
    else:
        # the max runs an inner loop g wide, several times slower below 128
        g = min(n, max(8 * k, 128))
        maxima = sims[:, : n - n % g].reshape(m, n // g, g).max(axis=1)
        kth = np.partition(maxima, g - k, axis=1)[:, g - k]
    # taken in float64, whose rounding is far inside the margin's slack, then
    # rounded down in the block's type, so no rounding narrows the margin
    bound = np.nextafter((kth - np.float64(margin)).astype(sims.dtype), -np.inf)
    # flatnonzero is several times faster than a 2-D nonzero
    return np.divmod(np.flatnonzero(sims >= bound[:, None]), n)


def _first_k(rows, cols, vals, m: int, k: int) -> np.ndarray:
    """The ``k`` best candidates of each of ``m`` rows by (-value, column).

    ``(rows, cols, vals)`` list each row's candidates, at least ``k`` per row,
    in (row, column) order, as ``_candidates`` gives them.
    """
    counts = np.bincount(rows, minlength=m)
    first = np.cumsum(counts) - counts
    # one row per query, its candidates' -values in column order, then +inf
    # padding: a stable sort keeps ties, -0.0/0.0 and barred -inf entries in
    # column order and the padding after them all.  It is m x (a row's most
    # candidates), at most the size of a dense float64 block.
    keys = np.full((m, counts.max()), np.inf)
    keys[rows, np.arange(len(rows)) - first[rows]] = -vals
    return cols[first[:, None] + np.argsort(keys, axis=1, kind="stable")[:, :k]]


def top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` largest entries of every row, largest first.

    Ties go to the lower column, so the result equals
    ``np.argsort(-sims, axis=1, kind="stable")[:, :k]`` exactly, but only
    the entries at or above a lower bound on each row's k-th largest value
    get sorted (see ``_candidates``).
    Needs ``1 <= k <= sims.shape[1]`` and no NaN.
    """
    rows, cols = _candidates(sims, k)
    return _first_k(rows, cols, sims[rows, cols], sims.shape[0], k)


# cosine_top_k's blocks hold at most BLOCK_ROWS query rows and about BLOCK_SIMS
# similarities (measured on a 2-core VM, one BLAS thread).  Blocks this small
# stay in cache: 2560 rows against 50k took 0.62 s in 256-row float64 blocks
# (102 MB), 0.43 s in 20-row ones (8 MB).  The row cap keeps small-n blocks
# small: 1000-row blocks at n = 1000 raised a 1k pipeline's peak RSS by 7.5 %.
BLOCK_ROWS = 256
BLOCK_SIMS = 1 << 20

# Unit roundoffs of float64 and float32, and float32's smallest normal number.
UNIT_ROUNDOFF = 2.0**-53
UNIT_ROUNDOFF_32 = 2.0**-24
TINY_32 = 2.0**-126


def _gamma(d: int, u: float) -> float:
    """Higham's bound gamma_d on the relative rounding error of a d-term dot product."""
    return d * u / (1 - d * u)


def _screen_margin(d: int) -> float:
    """How far below a row's bound the float32 screen keeps candidates of d-D rows.

    Rows q, g of norm at most 1.14 have float32 images q', g'.  The BLAS
    value a = fl32(q'.g') and the einsum value s = fl64(q.g) both lie near
    q.g, and their distance E comes from three sources:
      - rounding to float32 moves each component by at most u32 of itself
        plus TINY_32 (a part below float32's normal range may be lost
        whole), so q'.g' is within (2 u32 + u32^2) |q||g| + 3 d TINY_32
        of q.g;
      - float32 BLAS adds at most gamma_d(u32) |q'||g'|, plus TINY_32 for
        each product or sum it flushes to zero;
      - float64 einsum is within gamma_d(u64) |q||g| of q.g.
    As u32 <= gamma_d(u32), E < (3.01 gamma32 + gamma64) |q||g| + 6 d TINY_32.
    A column einsum ranks in the top k has s at least the k-th largest einsum
    value, which is at least the k-th largest BLAS value minus E, itself at
    least the row's bound minus E.  So that column's a is at least the bound
    minus 2E, and the margin below covers 2E while |q||g| <= 1.32.
    """
    return 8 * (_gamma(d, UNIT_ROUNDOFF_32) + _gamma(d, UNIT_ROUNDOFF)) + 12 * d * TINY_32


def cosine_top_k(Q: np.ndarray, G: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
    """The ``(len(Q), k)`` int64 ranking of the rows of ``G`` for every row of ``Q``.

    ``Q`` and ``G`` hold C-ordered rows of norm about 1 (``l2_normalize``
    output); row i lists the ``k`` rows of ``G`` most cosine-similar to
    ``Q[i]``, best first.  Similarity is the *computed* cosine,
    ``np.einsum("id,jd->ij")`` of those rows, not the exact one:
    rows that tie in exact arithmetic but round apart are ordered by their
    computed values, and only computed ties go to the lower index.  Each
    similarity depends on its two rows alone, so no block size or query
    count can change a ranking.  With ``exclude_self``, row i of ``Q``
    never ranks row i of ``G``.  The rows of ``Q`` are ranked in blocks of
    at most ``BLOCK_ROWS`` rows and about ``BLOCK_SIMS`` similarities, so
    no ``len(Q) x len(G)`` array is ever built.

    A float32 BLAS matmul of float32 copies of the rows screens each block,
    4 bytes a similarity.  It keeps every column within
    ``_screen_margin`` of a lower bound on the row's k-th value, which its
    float32 rounding cannot push a top-k column below; the einsum values of
    those candidates alone decide the order.
    """
    G32 = G.astype(np.float32)
    (n_q, d), n_g = Q.shape, G.shape[0]
    margin = _screen_margin(d)
    step = max(1, min(BLOCK_ROWS, BLOCK_SIMS // n_g))
    top = np.empty((n_q, k), dtype=np.int64)
    # every block reuses this: a fresh one would cost a page fault per page
    # (a third of the ranking time at 5000 x 5000)
    buffer = np.empty((min(step, n_q), n_g), dtype=np.float32)
    for start in range(0, n_q, step):
        Qb = Q[start : start + step]
        m = len(Qb)
        approx = buffer[:m]
        # BLAS only screens: it rounds in float32, and by the block shape and
        # kernel tiling, so exact duplicates can get different values and it
        # cannot judge ties.  Every column einsum ranks in the top k stays
        # within _screen_margin of the row's bound, and einsum then judges
        # them all.
        np.matmul(Qb.astype(np.float32), G32.T, out=approx)
        if exclude_self:
            approx[np.arange(m), np.arange(start, start + m)] = -np.inf
        rows, cols = _candidates(approx, k, margin)
        if len(rows) * d > m * n_g:
            # ties flood the candidate set: gathering their rows would take
            # more memory than the dense block
            sims = np.einsum("id,jd->ij", Qb, G)[rows, cols]
        else:
            # on C-ordered rows this rounds exactly as the dense einsum does
            sims = np.einsum("id,id->i", Qb[rows], G[cols])
        if exclude_self:
            sims[rows + start == cols] = -np.inf
        top[start : start + m] = _first_k(rows, cols, sims, m, k)
    return top
