"""Embedding-quality evaluation: k-NN vote, linear probe, retrieval, alignment.

Everything here runs on frozen embeddings.  Cosine is the distance
throughout, matching the geometry the distillation losses optimise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .linalg import DEFAULT_EPS, as_matrix, column_cosines, cosine_top_k, l2_normalize
from .losses import _check_pair, loss_co


def check_k_eval(k_eval: int) -> None:
    """Raise ValueError unless ``knn_predict`` can vote among ``k_eval`` neighbours."""
    if k_eval < 1:
        raise ValueError("k_eval ≥ 1")


def _labelled(emb, labels, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``(as_matrix(emb), labels as int64)``, or ValueError unless there is one label per row.

    ``what`` names the pair in errors: ``train``, ``test``, ``query`` or ``gallery``.
    """
    X = as_matrix(emb, f"{what}_emb")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"labels length must equal {what} size")
    return X, y


def knn_predict(train_emb, train_labels, test_emb, k_eval: int = 1) -> np.ndarray:
    """Majority vote among the k nearest train embeddings by cosine.

    Neighbour ties break toward the lower train index, vote ties toward
    the lower class id.  Negative train labels are rejected.
    """
    check_k_eval(k_eval)
    X, labels = _labelled(train_emb, train_labels, "train")
    if labels.min() < 0:
        raise ValueError("train labels must be nonnegative")
    Q = as_matrix(test_emb, "test_emb")
    if Q.shape[1] != X.shape[1]:
        raise ValueError("shape mismatch")
    E, Q = l2_normalize(X), l2_normalize(Q)
    k_eval = min(k_eval, E.shape[0])
    n_classes = int(labels.max()) + 1
    pred = np.empty(Q.shape[0], dtype=np.int64)
    for start, nearest in cosine_top_k(Q, E, k_eval):
        votes = labels[nearest]
        # one bincount over (query, label) pairs; argmax takes the lowest class id on ties
        m = len(votes)
        pairs = np.arange(m)[:, None] * n_classes + votes
        counts = np.bincount(pairs.ravel(), minlength=m * n_classes).reshape(m, n_classes)
        pred[start : start + m] = counts.argmax(axis=1)
    return pred


def knn_classify(train_emb, train_labels, test_emb, test_labels, k_eval: int = 1) -> float:
    """Accuracy of the k-NN vote against the held-out labels."""
    Q, truth = _labelled(test_emb, test_labels, "test")
    return float(np.mean(knn_predict(train_emb, train_labels, Q, k_eval) == truth))


def holdout_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train, test) split of [0, n): a fifth of a permutation, at least one, is held out."""
    perm = np.random.default_rng(seed).permutation(n)
    n_test = max(1, round(0.2 * n))
    return perm[n_test:], perm[:n_test]


def _fit_probe(X: np.ndarray, t: np.ndarray, C: int, epochs: int, lr: float,
               seed: int) -> np.ndarray:
    """Weights (d + 1, C) of softmax regression on ``X`` and class ids ``t``, by full-batch GD.

    Every epoch works in place in one (n, C) buffer.  The row maximum is
    C elementwise maxima over the columns, which is exact in any order;
    the row sum keeps ``np.sum``'s order and ``Xb.T`` keeps its layout,
    since either change would round differently.
    """
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 0.01, size=(d + 1, C))
    onehot = np.zeros((n, C))
    onehot[np.arange(n), t] = 1.0
    P = np.empty((n, C))
    m = np.empty(n)
    s = np.empty((n, 1))
    g = np.empty_like(W)
    for _ in range(epochs):
        np.matmul(Xb, W, out=P)
        np.copyto(m, P[:, 0])
        for c in range(1, C):
            np.maximum(m, P[:, c], out=m)
        P -= m[:, None]
        np.exp(P, out=P)
        np.sum(P, axis=1, keepdims=True, out=s)
        P /= s
        P -= onehot
        np.matmul(Xb.T, P, out=g)
        g *= lr
        g /= n
        W -= g
    return W


def linear_probe(train_emb, train_labels, test_emb, test_labels, epochs: int = 200,
                 lr: float = 0.5, seed: int = 0) -> float:
    """Softmax regression on frozen embeddings, trained by full-batch GD.

    Deterministic for a fixed seed; returns test accuracy.  Raises
    ValueError before the fit on a bad argument, a test width other than
    the train width too, and ``NumericalError`` when the fit diverges.
    """
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError("probe lr must be finite and > 0")
    if epochs < 0:
        raise ValueError("probe epochs ≥ 0")
    X, y = _labelled(train_emb, train_labels, "train")
    Xt, truth = _labelled(test_emb, test_labels, "test")
    if Xt.shape[1] != X.shape[1]:
        raise ValueError("shape mismatch")
    classes, t = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("single-class train set")

    W = _fit_probe(X, t, classes.size, epochs, lr, seed)
    if not np.isfinite(W).all():
        raise NumericalError("linear probe diverged to non-finite weights")
    logits = np.hstack([Xt, np.ones((Xt.shape[0], 1))]) @ W
    pred = classes[np.argmax(logits, axis=1)]
    return float(np.mean(pred == truth))


def recall_at_k(query_emb, gallery_emb, query_labels, gallery_labels, K: int = 1,
                exclude_self: bool = False) -> float:
    """Fraction of queries whose top-K cosine hits contain a same-label item.

    With ``exclude_self`` the query and gallery must be the same set; hit i
    is barred from retrieving gallery item i.
    """
    if K < 1:
        raise ValueError("K ≥ 1")
    G, gl = _labelled(gallery_emb, gallery_labels, "gallery")
    Q, ql = _labelled(query_emb, query_labels, "query")
    if Q.shape[1] != G.shape[1]:
        raise ValueError("shape mismatch")
    if exclude_self and Q.shape[0] != G.shape[0]:
        raise ValueError("exclude_self needs query and gallery of equal size")
    K = min(K, G.shape[0] - (1 if exclude_self else 0))
    if K < 1:
        raise ValueError("K ≥ 1")
    G, Q = l2_normalize(G), l2_normalize(Q)
    hits = np.empty(Q.shape[0], dtype=bool)
    for start, top in cosine_top_k(Q, G, K, exclude_self=exclude_self):
        stop = start + len(top)
        hits[start:stop] = (gl[top] == ql[start:stop, None]).any(axis=1)
    return float(np.mean(hits))


@dataclass
class AlignmentDiagnostics:
    """How well the student's feature space mirrors the teacher's, per dimension."""

    per_dim_cosine: np.ndarray = field(repr=False)  # (d,) in [-1, 1]
    per_dim_scale: np.ndarray = field(repr=False)   # (d,) student/teacher column-norm ratio
    mean_row_cosine: float = 0.0


def alignment_diagnostics(A_s, A_t) -> AlignmentDiagnostics:
    """Column cosines, column-norm ratios, and the mean per-sample cosine.

    The column cosines, clipped to [-1, 1], are the terms whose mean is
    ``-loss_ss``; ``mean_row_cosine`` is ``-loss_co``.
    """
    S, T = _check_pair(A_s, A_t)
    sn, tn, _, _, cosines = column_cosines(S, T)
    np.clip(cosines, -1.0, 1.0, out=cosines)
    scales = np.where(tn > DEFAULT_EPS, sn / np.maximum(tn, DEFAULT_EPS), 0.0)
    return AlignmentDiagnostics(
        per_dim_cosine=cosines, per_dim_scale=scales, mean_row_cosine=-loss_co(S, T)
    )
