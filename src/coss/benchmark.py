"""Bundled desk-scale benchmark: Gaussian clusters plus a frozen random teacher.

Everything here is generated from fixed seeds so the benchmark is the
same bytes on every machine: 1000 samples in 10 clusters of 32-D, a
frozen 2-layer teacher embedding to 16-D, and a 2-layer student to 8-D
that needs a projection head to reach the teacher's width.
"""

from __future__ import annotations

import numpy as np

from .config import DistillConfig
from .data import Dataset
from .evaluate import holdout_split, knn_classify
from .models import MlpModel, MlpSpec, forward, init_model

N_SAMPLES = 1000
N_CLUSTERS = 10
INPUT_DIM = 32
TEACHER_DIM = 16
K_EVAL = 5

_DATA_SEED = 61804
_TEACHER_SEED = 2077
_SPLIT_SEED = 415


def make_benchmark_dataset() -> Dataset:
    """10 moderately separated Gaussian clusters, 100 samples each."""
    rng = np.random.default_rng(_DATA_SEED)
    centers = rng.normal(0.0, 1.0, size=(N_CLUSTERS, INPUT_DIM))
    per_cluster = N_SAMPLES // N_CLUSTERS
    inputs = np.concatenate(
        [
            centers[c] + rng.normal(0.0, 0.55, size=(per_cluster, INPUT_DIM))
            for c in range(N_CLUSTERS)
        ]
    )
    labels = np.repeat(np.arange(N_CLUSTERS), per_cluster)
    shuffle = np.random.default_rng(_DATA_SEED + 1).permutation(N_SAMPLES)
    return Dataset(inputs[shuffle], labels[shuffle])


def make_benchmark_teacher() -> MlpModel:
    return init_model(
        MlpSpec((INPUT_DIM, 48, TEACHER_DIM), hidden_activation="relu"),
        seed=_TEACHER_SEED,
    )


def benchmark_split() -> tuple[np.ndarray, np.ndarray]:
    """Fixed train/test split used by every benchmark evaluation (``--split-seed 415``)."""
    return holdout_split(N_SAMPLES, _SPLIT_SEED)


def benchmark_config(**overrides) -> DistillConfig:
    """The benchmark's training config: the ``DistillConfig`` defaults plus ``overrides``."""
    return DistillConfig(**overrides)


def model_accuracy(model: MlpModel, dataset: Dataset, k_eval: int = K_EVAL) -> float:
    """k-NN accuracy of the model's embedding of ``dataset`` under the fixed split."""
    emb, _ = forward(model, dataset.inputs)
    train, test = benchmark_split()
    return knn_classify(emb[train], dataset.labels[train], emb[test], dataset.labels[test], k_eval)
