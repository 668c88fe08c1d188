"""Embedding-quality evaluation: k-NN vote, linear probe, retrieval, alignment.

Everything here runs on frozen embeddings.  Cosine is the distance
throughout, matching the geometry the distillation losses optimise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_EPS, as_matrix, column_cosines, cosine_top_k, l2_normalize
from .losses import _check_pair, loss_co


def check_k_eval(k_eval: int) -> None:
    """Raise ValueError unless ``knn_predict`` can vote among ``k_eval`` neighbours."""
    if k_eval < 1:
        raise ValueError("k_eval ≥ 1")


def knn_predict(train_emb, train_labels, test_emb, k_eval: int = 1) -> np.ndarray:
    """Majority vote among the k nearest train embeddings by cosine.

    Neighbour ties break toward the lower train index, vote ties toward
    the lower class id.
    """
    check_k_eval(k_eval)
    if np.asarray(train_emb, dtype=np.float64).shape[0] == 0:
        raise ValueError("empty train set")
    E = l2_normalize(train_emb)
    labels = np.asarray(train_labels, dtype=np.int64)
    if labels.shape != (E.shape[0],):
        raise ValueError("labels length must equal train size")
    Q = l2_normalize(test_emb)
    if Q.shape[1] != E.shape[1]:
        raise ValueError("shape mismatch")
    k_eval = min(k_eval, E.shape[0])
    n_classes = int(labels.max()) + 1
    pred = np.empty(Q.shape[0], dtype=np.int64)
    for start, nearest in cosine_top_k(Q, E, k_eval):
        votes = labels[nearest]
        if votes.min() < 0:
            # the error a per-query np.bincount vote gives
            raise ValueError("'list' argument must have no negative elements")
        # one bincount over (query, label) pairs; argmax takes the lowest class id on ties
        m = len(votes)
        pairs = np.arange(m)[:, None] * n_classes + votes
        counts = np.bincount(pairs.ravel(), minlength=m * n_classes).reshape(m, n_classes)
        pred[start : start + m] = counts.argmax(axis=1)
    return pred


def knn_classify(train_emb, train_labels, test_emb, test_labels, k_eval: int = 1) -> float:
    """Accuracy of the k-NN vote against the held-out labels."""
    pred = knn_predict(train_emb, train_labels, test_emb, k_eval)
    truth = np.asarray(test_labels, dtype=np.int64)
    if truth.shape != pred.shape:
        raise ValueError("labels length must equal test size")
    return float(np.mean(pred == truth))


def holdout_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train, test) split of [0, n): a fifth of a permutation, at least one, is held out."""
    perm = np.random.default_rng(seed).permutation(n)
    n_test = max(1, round(0.2 * n))
    return perm[n_test:], perm[:n_test]


def holdout_knn_accuracy(emb, labels, seed: int, k_eval: int) -> float:
    """``knn_classify`` of the held-out rows of ``emb`` against the rest, split by ``holdout_split``."""
    labels = np.asarray(labels)
    train_idx, test_idx = holdout_split(len(labels), seed)
    return knn_classify(emb[train_idx], labels[train_idx], emb[test_idx], labels[test_idx], k_eval)


def linear_probe(train_emb, train_labels, test_emb, test_labels, epochs: int = 200,
                 lr: float = 0.5, seed: int = 0) -> float:
    """Softmax regression on frozen embeddings, trained by full-batch GD.

    Deterministic for a fixed seed; returns test accuracy.
    """
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError("probe lr must be finite and > 0")
    if epochs < 0:
        raise ValueError("probe epochs ≥ 0")
    X = as_matrix(train_emb, "train_emb")
    y = np.asarray(train_labels, dtype=np.int64)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("single-class train set")
    class_of = {c: i for i, c in enumerate(classes)}
    t = np.array([class_of[c] for c in y])
    n, d = X.shape
    C = classes.size

    Xb = np.hstack([X, np.ones((n, 1))])
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 0.01, size=(d + 1, C))
    onehot = np.zeros((n, C))
    onehot[np.arange(n), t] = 1.0
    for _ in range(epochs):
        logits = Xb @ W
        logits -= logits.max(axis=1, keepdims=True)
        P = np.exp(logits)
        P /= P.sum(axis=1, keepdims=True)
        W -= lr * (Xb.T @ (P - onehot)) / n

    Xt = as_matrix(test_emb, "test_emb")
    logits = np.hstack([Xt, np.ones((Xt.shape[0], 1))]) @ W
    pred = classes[np.argmax(logits, axis=1)]
    truth = np.asarray(test_labels, dtype=np.int64)
    return float(np.mean(pred == truth))


def recall_at_k(query_emb, gallery_emb, query_labels, gallery_labels, K: int = 1,
                exclude_self: bool = False) -> float:
    """Fraction of queries whose top-K cosine hits contain a same-label item.

    With ``exclude_self`` the query and gallery must be the same set; hit i
    is barred from retrieving gallery item i.
    """
    if K < 1:
        raise ValueError("K ≥ 1")
    if np.asarray(gallery_emb, dtype=np.float64).shape[0] == 0:
        raise ValueError("empty gallery")
    G = l2_normalize(gallery_emb)
    gl = np.asarray(gallery_labels, dtype=np.int64)
    Q = l2_normalize(query_emb)
    ql = np.asarray(query_labels, dtype=np.int64)
    if exclude_self and Q.shape[0] != G.shape[0]:
        raise ValueError("exclude_self needs query and gallery of equal size")
    K = min(K, G.shape[0] - (1 if exclude_self else 0))
    if K < 1:
        raise ValueError("K ≥ 1")
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
