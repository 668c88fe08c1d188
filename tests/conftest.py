"""Shared oracle helpers.

These deliberately avoid the package's vectorised code paths: gradients
come from central finite differences, and neighbour ranking from an
explicit O(N^2) loop, so each test compares two independent routes to
the same number.
"""

import numpy as np


def finite_diff(f, X, h=1e-6):
    """Central-difference gradient of scalar f at X, entry by entry."""
    X = np.asarray(X, dtype=np.float64)
    G = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        Xp = X.copy()
        Xp[i] += h
        Xm = X.copy()
        Xm[i] -= h
        G[i] = (f(Xp) - f(Xm)) / (2.0 * h)
    return G


def assert_grad_close(analytic, numeric, rtol, atol=1e-8):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    err = np.abs(analytic - numeric)
    bound = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol
    worst = float((err - bound).max())
    assert np.all(err <= bound), f"gradient mismatch, worst excess {worst:.3e}"


def brute_cosine(u, v):
    nu = sum(x * x for x in u) ** 0.5
    nv = sum(x * x for x in v) ** 0.5
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def brute_topk_neighbors(emb, pool):
    """O(N^2) neighbour ranking: descending cosine, ties to the lower index."""
    emb = [list(map(float, row)) for row in np.asarray(emb)]
    n = len(emb)
    out = []
    for i in range(n):
        sims = [(-brute_cosine(emb[i], emb[j]), j) for j in range(n) if j != i]
        sims.sort()
        out.append([j for _, j in sims[:pool]])
    return np.array(out, dtype=np.int64)


def distinct_directions(n, dim, rng):
    """``n`` integer-valued rows, no two of them pointing the same way.

    Rows drawn from these tie in cosine only when they are exact copies:
    parallel rows of different length tie in exact arithmetic but not
    always after rounding, which would make a brute-force oracle and the
    package disagree on order for reasons unrelated to tie-breaking.
    """
    while True:
        base = np.round(rng.normal(size=(n, dim)) * 100)
        unit = base / np.maximum(np.linalg.norm(base, axis=1, keepdims=True), 1.0)
        cos = unit @ unit.T
        if np.all(cos[~np.eye(n, dtype=bool)] < 1.0 - 1e-12):
            return base


def brute_loss_co(S, T):
    S = np.asarray(S, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    return -sum(brute_cosine(S[i], T[i]) for i in range(S.shape[0])) / S.shape[0]


def brute_loss_ss(S, T):
    return brute_loss_co(np.asarray(S).T, np.asarray(T).T)


def reference_probe_weights(X, y, epochs, lr, seed):
    """The linear probe's softmax-regression loop as first written, one fresh array per step.

    ``evaluate._fit_probe`` does the same arithmetic in place; its weights
    must match these bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = np.unique(y)
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
    return W


# --- random valid payload factories for the serialisation round-trips ------

def random_dataset(rng):
    from coss.data import Dataset

    n = int(rng.integers(1, 16))
    dim = int(rng.integers(1, 8))
    inputs = rng.normal(size=(n, dim))
    labels = rng.integers(0, 7, size=n) if rng.random() < 0.5 else None
    return Dataset(inputs, labels)


def random_index(rng):
    from coss.knn import build_index

    n = int(rng.integers(3, 20))
    dim = int(rng.integers(1, 6))
    pool = int(rng.integers(1, n))
    return build_index(rng.normal(size=(n, dim)), pool)


def random_model(rng):
    from coss.models import MlpSpec, init_model

    depth = int(rng.integers(1, 4))
    dims = tuple(int(rng.integers(1, 9)) for _ in range(depth + 1))
    hidden = ["identity", "relu", "tanh"][int(rng.integers(3))]
    out = ["identity", "relu", "tanh"][int(rng.integers(3))]
    return init_model(
        MlpSpec(dims, hidden_activation=hidden, output_activation=out),
        seed=int(rng.integers(2**31)),
    )


def corruptions(blob: bytes, seed: int, count: int) -> list[bytes]:
    """``count`` seeded damaged copies of ``blob``: every third a truncation, the rest
    1-3 flipped bits, alternately all within the first 40 bytes and anywhere."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 3 == 0:
            out.append(blob[: int(rng.integers(0, len(blob)))])
            continue
        span = min(40, len(blob)) if i % 3 == 1 else len(blob)
        damaged = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            damaged[int(rng.integers(span))] ^= 1 << int(rng.integers(8))
        out.append(bytes(damaged))
    return out
