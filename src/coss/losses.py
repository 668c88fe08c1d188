"""Distillation objectives and their analytic gradients.

Two cosine terms make up the combined objective: a per-sample (row)
alignment and a per-dimension (column) alignment computed on the
transposed views of the embedding matrices.  The column terms come from
one ``row_cosines`` pass, which gives both the logged value and the
gradient.  The combined loss is

    total = row_term + lam * column_term

Gradients are taken with respect to the student matrix only; the teacher
branch never receives one.  A batch-normalisation variant that matches
the teacher's unnormalised embeddings via a per-dimension affine map is
provided alongside.  ``objective`` is what training evaluates: every term
and the configured gradient in one pass over already validated inputs.
The per-term functions validate their inputs and are its references.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_EPS, as_matrix, row_cosines


def _check_pair(A_s, A_t):
    S = as_matrix(A_s, "A_s")
    T = as_matrix(A_t, "A_t")
    if S.shape != T.shape:
        raise ValueError("shape mismatch")
    return S, T


def loss_co(A_s, A_t) -> float:
    """Negative mean cosine between matching rows of the two matrices."""
    return -float(np.mean(row_cosines(*_check_pair(A_s, A_t))[4]))


def loss_ss(A_s, A_t) -> float:
    """Negative mean cosine between matching columns; the row loss on transposes, up to rounding."""
    S, T = _check_pair(A_s, A_t)
    return -float(np.mean(row_cosines(S.T, T.T)[4]))


def _neg_cosine_row_grad(ns, nt, S_hat, T_hat, cos) -> np.ndarray:
    """Row-wise gradient of -cosine(S_i, T_i) with respect to S (unaveraged).

    Takes ``linalg.row_cosines``'s output.  Rows of S whose norm is under the
    guard eps = ``DEFAULT_EPS`` behave as S_i . T_hat / eps, whose exact
    gradient is -T_hat / eps.
    """
    G = cos[:, None] * S_hat
    G[ns <= DEFAULT_EPS] = 0.0
    np.subtract(T_hat, G, out=G)
    G /= -np.maximum(ns, DEFAULT_EPS)[:, None]  # rounds as -(T_hat - G) / dns
    return G


def _space_grad(col, d: int) -> np.ndarray:
    """Gradient of the column term from ``row_cosines`` of the transposes of a d-wide pair."""
    G = _neg_cosine_row_grad(*col)
    return np.divide(G, d, out=G).T


def grad_co(A_s, A_t) -> np.ndarray:
    """Gradient of the row term with respect to the student matrix."""
    S, T = _check_pair(A_s, A_t)
    return _neg_cosine_row_grad(*row_cosines(S, T)) / S.shape[0]


def grad_ss(A_s, A_t) -> np.ndarray:
    """Gradient of the column term with respect to the student matrix."""
    S, T = _check_pair(A_s, A_t)
    return _space_grad(row_cosines(S.T, T.T), S.shape[1])


def loss_bn(X_s, X_t, gamma, beta_shift, eps):
    """Match affinely rescaled, batch-standardised student embeddings to raw teacher ones.

    ``gamma`` and ``beta_shift`` are the (d,) scale and shift of the affine
    map.  Standardisation uses the population sigma per dimension, guarded
    from below by ``eps`` > 0.  Returns the mean per-sample squared L2
    distance plus gradients for the student input, ``gamma`` and
    ``beta_shift``.
    """
    S, T = _check_pair(X_s, X_t)
    if S.shape[0] < 2:
        raise ValueError("batch too small for BN")
    gamma = np.asarray(gamma, dtype=np.float64)
    beta_shift = np.asarray(beta_shift, dtype=np.float64)
    if gamma.ndim != 1 or gamma.shape != beta_shift.shape:
        raise ValueError("gamma and beta_shift must be 1-D with equal length")
    if gamma.shape[0] != S.shape[1]:
        raise ValueError("BN parameter length does not match feature count")
    if not (np.isfinite(gamma).all() and np.isfinite(beta_shift).all()):
        raise ValueError("non-finite input")
    if not eps > 0:
        raise ValueError("eps must be positive")
    return _bn_terms(S, T, gamma, beta_shift, eps)


def _bn_terms(S: np.ndarray, T: np.ndarray, gamma, beta_shift, eps: float):
    """``loss_bn`` on validated matrices of one shape, at least 2 rows, and a map as wide."""
    b = S.shape[0]
    mu = S.mean(axis=0)
    std = np.sqrt(S.var(axis=0))
    sigma = np.maximum(std, eps)
    X_hat = (S - mu) / sigma
    Z = gamma * X_hat + beta_shift
    R = Z - T
    loss = float(np.mean(np.einsum("ij,ij->i", R, R)))

    dZ = (2.0 / b) * R
    dgamma = np.einsum("ij,ij->j", dZ, X_hat)
    dbeta_shift = dZ.sum(axis=0)
    dX_hat = dZ * gamma
    mean_g = dX_hat.mean(axis=0)
    mean_gx = np.einsum("ij,ij->j", dX_hat, X_hat) / b
    # dims where the guard kicked in have constant sigma: no variance path
    var_term = np.where(std > eps, X_hat * mean_gx, 0.0)
    dX = (dX_hat - mean_g - var_term) / sigma
    return loss, dX, dgamma, dbeta_shift


def objective(A_s: np.ndarray, A_t: np.ndarray, cfg, bn=()):
    """Both cosine terms, the configured loss and its gradient for one batch.

    ``A_s`` and ``A_t`` are finite, C-ordered matrices of one shape and
    one dtype, which every term and gradient keeps (``bn`` of that dtype
    too); nothing here checks that.  ``cfg`` supplies ``loss_variant``,
    ``lam`` and ``bn_eps``; ``bn`` is the ``(gamma, beta_shift)`` pair of
    the ``bn`` variant's affine map.
    Returns ``(l_co, l_ss, l_total, G, bn_grads)``: both terms (always
    logged), the configured loss, its gradient with respect to ``A_s`` and,
    for ``bn``, the gradients of ``gamma`` and ``beta_shift``.  Every
    value is bit-identical to the per-term functions' (``loss_co``,
    ``loss_ss``, ``grad_co``, ``grad_ss``, ``loss_bn``).
    """
    row, col = row_cosines(A_s, A_t), row_cosines(A_s.T, A_t.T)
    l_co, l_ss = -float(np.mean(row[4])), -float(np.mean(col[4]))
    bn_grads = []
    if cfg.loss_variant == "bn":
        l_total, G, *bn_grads = _bn_terms(A_s, A_t, *bn, cfg.bn_eps)
    elif cfg.loss_variant == "ss_only":
        G, l_total = _space_grad(col, A_s.shape[1]), l_ss
    else:
        G, l_total = _neg_cosine_row_grad(*row), l_co
        G /= A_s.shape[0]
        # lam == 0 goes through the same arithmetic as co_only, so the two
        # stay bit-identical under a shared seed
        if cfg.loss_variant == "coss" and cfg.lam != 0.0:
            G += cfg.lam * _space_grad(col, A_s.shape[1])
            l_total = l_co + cfg.lam * l_ss
    return l_co, l_ss, l_total, G, bn_grads
