"""Reference computations the benchmark holds the program's outputs to.

Every oracle here is brute force over dense cosine similarities and shares
no code with ``coss``.  Results may differ from the program's only where
similarities tie within rounding (``TIE_TOL``), since the program and the
oracle sum in different orders.
"""

from __future__ import annotations

import struct

import numpy as np

TIE_TOL = 1e-9
STUDENT_TEACHER_RATIO = 0.9  # the repo's acceptance property for knn accuracy


def unit_rows(E: np.ndarray) -> np.ndarray:
    return E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-12)


def index_mismatch(emb: np.ndarray, neighbors: np.ndarray, rows: np.ndarray) -> str | None:
    """Compare index rows with the dense-cosine ranking, ties to the lower index."""
    U = unit_rows(emb)
    pool = neighbors.shape[1]
    for start in range(0, len(rows), 256):
        block = rows[start : start + 256]
        sims = U[block] @ U.T
        sims[np.arange(len(block)), block] = -np.inf
        want = np.argsort(-sims, axis=1, kind="stable")[:, :pool]
        got = neighbors[block]
        for r in np.flatnonzero((want != got).any(axis=1)):
            i = block[r]
            if i in got[r] or len(set(got[r].tolist())) != pool:
                return f"index row {i} holds itself or a duplicate"
            if not np.allclose(sims[r, got[r]], sims[r, want[r]], rtol=0.0, atol=TIE_TOL):
                return f"index row {i} differs from the oracle beyond tied similarities"
    return None


def knn_vote(train_emb, train_labels, query_emb, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-NN majority vote (lower class wins a tied vote) and which queries sit on a tie.

    A query is ambiguous when its k-th and (k+1)-th similarities tie within
    rounding, so the neighbour set itself is not decided.
    """
    sims = unit_rows(query_emb) @ unit_rows(train_emb).T
    rows = np.arange(len(sims))[:, None]
    top = np.argpartition(-sims, k, axis=1)[:, : k + 1]
    top_sims = sims[rows, top]
    order = np.argsort(-top_sims, axis=1, kind="stable")
    top, top_sims = top[rows, order], top_sims[rows, order]
    votes = np.zeros((len(sims), int(train_labels.max()) + 1), dtype=np.int64)
    np.add.at(votes, (rows, train_labels[top[:, :k]]), 1)
    return votes.argmax(axis=1), top_sims[:, k - 1] - top_sims[:, k] <= TIE_TOL


def knn_accuracy(train_emb, train_labels, test_emb, test_labels, k: int) -> tuple[float, int]:
    pred, ambiguous = knn_vote(train_emb, train_labels, test_emb, k)
    return float(np.mean(pred == test_labels)), int(ambiguous.sum())


def recall_at_1(emb: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Recall@1 over every query against the rest of the set, and the count of tied tops."""
    U = unit_rows(emb)
    hits = 0
    ties = 0
    for start in range(0, len(U), 1024):
        stop = min(start + 1024, len(U))
        rows = np.arange(stop - start)
        sims = U[start:stop] @ U.T
        sims[rows, np.arange(start, stop)] = -np.inf
        top = sims.argmax(axis=1)  # the first maximum: the lower index wins a tie
        best = sims[rows, top]
        sims[rows, top] = -np.inf
        hits += int(np.sum(labels[top] == labels[start:stop]))
        ties += int(np.sum(best - sims.max(axis=1) <= TIE_TOL))
    return hits / len(U), ties


def losses_mismatch(l_total: np.ndarray, *terms: np.ndarray) -> str | None:
    for values in (l_total, *terms):
        if not np.all(np.isfinite(values)):
            return "a logged loss is not finite"
    if not l_total[-1] < l_total[0]:
        return f"last l_total {float(l_total[-1])!r} is not below the first {float(l_total[0])!r}"
    return None


def mean_dim_cosine(S: np.ndarray, T: np.ndarray) -> float:
    dots = np.einsum("ij,ij->j", S, T)
    return float(np.mean(dots / (np.linalg.norm(S, axis=0) * np.linalg.norm(T, axis=0))))


# -- .cssm checkpoints, decoded without the program -------------------------------

_ACTIVATIONS = {0: lambda Y: Y, 1: lambda Y: np.maximum(Y, 0.0), 2: np.tanh}


def read_checkpoint(path) -> list[tuple[np.ndarray, np.ndarray, int]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CSSM":
        raise ValueError(f"{path}: not a CSSM checkpoint")
    _version, count = struct.unpack_from("<II", blob, 4)
    pos = 12
    layers = []
    for _ in range(count):
        out_dim, in_dim, act = struct.unpack_from("<IIB", blob, pos)
        pos += 9
        W = np.frombuffer(blob, "<f4", out_dim * in_dim, pos).reshape(out_dim, in_dim)
        pos += 4 * out_dim * in_dim
        b = np.frombuffer(blob, "<f4", out_dim, pos)
        pos += 4 * out_dim
        layers.append((W.astype(np.float64), b.astype(np.float64), act))
    return layers


def mlp_forward(layers, X: np.ndarray) -> np.ndarray:
    for W, b, act in layers:
        X = _ACTIVATIONS[act](X @ W.T + b)
    return X


def read_report(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())
