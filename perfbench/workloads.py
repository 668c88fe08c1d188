"""Workload inputs, sizes and configs, all made from the benchmark's seed.

Nothing here imports ``coss``: the worker times ``import coss`` in a fresh
interpreter first and only then loads this module.  The program receives
the arrays and configs made here, never the seed itself.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("paper1k", "scale", "wide_cli")

# paper1k: the bundled benchmark (fixed data and teacher); the run seed only
# picks the training seeds.
PAPER_TRAIN_SEEDS = 3

# scale: 10 Gaussian clusters at an equal distance from each other.  Fixed
# centres and a fixed teacher leave knn_acc only the sampling's spread, about
# 1 % between seeds (3-4 % with centres drawn per seed).  At n = 5000 a round
# takes about 14 s, so a 20 s run holds two; at n = 8000 a run held one
# round and its timings spread 9-13 % from run to run.
SCALE_N = 5000
SCALE_DIM = 32
SCALE_CLUSTERS = 10
SCALE_RADIUS = 4.5
SCALE_SIGMA = 0.8
SCALE_TEACHER_DIMS = (SCALE_DIM, 48, 16)
SCALE_TEACHER_SEED = 2077
SCALE_CONFIG = dict(epochs=12, batch_size=64, student_dim=16)

# wide_cli: wide inputs, an embedding-dump teacher and a student as wide as
# the teacher, trained on large batches.
WIDE_N = 4096
WIDE_DIM = 256
WIDE_CLUSTERS = 16
WIDE_RADIUS = 3.0
WIDE_SIGMA = 0.3
WIDE_TEACHER_DIM = 64
WIDE_CONFIG = dict(
    k=3, pool=8, batch_size=256, epochs=13, lr=0.2, aug_sigma=0.0,
    student_hidden=(128,), student_dim=WIDE_TEACHER_DIM,
)

K_EVAL = 5
TEST_FRACTION = 0.2
CENTERS_SEED = 99


def clustered(rng: np.random.Generator, n: int, dim: int, n_clusters: int,
              radius: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian clusters whose centres are orthogonal and ``radius`` from the origin.

    The centres are the same for every seed, so the seed moves only the
    sampling and knn_acc spreads little between seeds.
    """
    basis, _ = np.linalg.qr(np.random.default_rng(CENTERS_SEED).normal(size=(dim, n_clusters)))
    centers = radius * basis.T
    labels = rng.integers(0, n_clusters, size=n)
    return centers[labels] + rng.normal(0.0, sigma, size=(n, dim)), labels


def training_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 1]).integers(2**31, size=count)]


def scale_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    inputs, labels = clustered(rng, SCALE_N, SCALE_DIM, SCALE_CLUSTERS, SCALE_RADIUS, SCALE_SIGMA)
    perm = rng.permutation(SCALE_N)
    n_test = round(TEST_FRACTION * SCALE_N)
    return dict(inputs=inputs, labels=labels, train_idx=perm[n_test:], test_idx=perm[:n_test],
                train_seed=training_seeds(seed, 1)[0])


def wide_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    inputs, labels = clustered(rng, WIDE_N, WIDE_DIM, WIDE_CLUSTERS, WIDE_RADIUS, WIDE_SIGMA)
    proj = rng.normal(size=(WIDE_DIM, WIDE_TEACHER_DIM)) / math.sqrt(WIDE_DIM)
    return dict(inputs=inputs, labels=labels, teacher_emb=np.tanh(inputs @ proj),
                train_seed=training_seeds(seed, 1)[0], split_seed=int(rng.integers(2**31)))


def cli_split(n: int, split_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The train/test split ``coss eval --split-seed`` uses (20 % held out)."""
    perm = np.random.default_rng(split_seed).permutation(n)
    n_test = max(1, int(round(TEST_FRACTION * n)))
    return perm[n_test:], perm[:n_test]


def wide_total_steps() -> int:
    return WIDE_CONFIG["epochs"] * -(-WIDE_N // WIDE_CONFIG["batch_size"])
