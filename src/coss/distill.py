"""End-to-end distillation loop plus the ablation driver.

One step: compose the neighbour-enhanced batch, augment it, run the
frozen teacher and the trainable student on the same inputs, evaluate
the configured loss, backpropagate through the student (and projection
head, if any), and take one SGD step.  All randomness flows from a
single seeded generator, so a run is a pure function of
(config, dataset, teacher, index).  Training runs in float32, and
``distill`` is the one place that picks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DistillConfig, config_hash
from .data import Dataset, augment, compose_batch, epoch_batches
from .errors import ConfigError, NumericalError
from .knn import NeighborIndex
from .linalg import as_matrix, float32_copy
from .losses import BnParams, objective
# not called here; perfbench --trace 1 wraps these names on this module
from .losses import grad_co, grad_ss, loss_co, loss_ss  # noqa: F401
from .models import MlpModel, MlpSpec, backward, forward, init_model, sgd_step


@dataclass(frozen=True)
class StepRecord:
    """One step's losses; its global step is its position in ``RunLog.steps``."""

    l_co: float
    l_ss: float
    l_total: float


@dataclass
class RunLog:
    steps: list[StepRecord] = field(default_factory=list)
    epoch_metrics: list[dict] = field(default_factory=list)
    steps_per_epoch: int = 0


def teacher_embeddings(teacher, inputs: np.ndarray) -> np.ndarray:
    """The frozen teacher's embedding of every row of ``inputs``.

    ``teacher`` is an MlpModel, which is run on ``inputs``, or a
    precomputed (n, d_t) embedding dump with one row per input row.
    """
    if isinstance(teacher, MlpModel):
        return forward(teacher, inputs)[0]
    dump = as_matrix(teacher, "teacher dump")
    if dump.shape[0] != inputs.shape[0]:
        raise ValueError("teacher dump size does not match dataset")
    return dump


def distill(
    config: DistillConfig,
    dataset: Dataset,
    teacher,
    index: NeighborIndex,
    eval_hook=None,
) -> tuple[MlpModel, RunLog]:
    """Train a student against a frozen teacher; returns the head-stripped student.

    ``teacher`` is a frozen MlpModel or a precomputed (n, d_t) embedding
    matrix (the latter only with aug_sigma = 0).  ``eval_hook``, when
    given, is called as ``eval_hook(student, epoch)`` after every epoch
    and its result is appended to the log.  ``config`` checked itself when
    built; the rest is checked here, before the first draw.  The step
    kernels (``epoch_batches``, ``compose_batch``, ``sample_neighbors``,
    ``augment``, ``backward``, ``sgd_step``) trust both.

    Training is float32.  On entry the inputs, a dump, the student chain
    (head included), the ``bn`` affine map and the velocities become
    float32 copies, so no step converts a batch.  A teacher model stays as
    given: ``forward`` runs it on each float32 batch through float32 casts
    of its weights.  One that sees every row unchanged (aug_sigma = 0) is
    run once here instead, in float64, and its embeddings are used as a
    dump's are.  Inputs or dumps that float32 cannot hold raise
    NumericalError.  The student returned, and each one ``eval_hook``
    gets, is a float64 copy, equal to the float32 one value for value, so
    it equals its own checkpoint.
    """
    X = dataset.inputs  # training never touches dataset.labels
    n, input_dim = X.shape
    if index.n != n:
        raise ValueError("index/dataset size mismatch")
    if config.pool != index.pool:
        raise ConfigError(f"config pool {config.pool} ≠ index pool {index.pool}")
    if config.batch_size > n:
        raise ConfigError(f"batch_size {config.batch_size} > sample count {n}")
    last_rows = (n % config.batch_size or config.batch_size) * (1 + config.k)
    if config.loss_variant == "bn" and last_rows < 2:
        raise ConfigError(f"bn needs ≥ 2 rows per batch, the epoch's last batch has {last_rows}")
    dump = None
    if not isinstance(teacher, MlpModel) or config.aug_sigma == 0.0:
        dump = teacher_embeddings(teacher, X)
        if config.aug_sigma != 0.0:
            raise ConfigError("aug_sigma = 0 for embedding-dump teacher")
        dump = float32_copy(dump, "teacher embeddings")
    d_t = teacher.output_dim if dump is None else dump.shape[1]
    X = float32_copy(X, "inputs")

    rng = np.random.default_rng(config.seed)
    student = _float32_model(init_model(
        config.student_spec(input_dim), seed=int(rng.integers(2**31))
    ))
    # the head trains as more layers of one chain that shares the student's Layers
    chain = student
    if student.output_dim != d_t:
        # one linear layer bridges the student and teacher widths
        head = init_model(MlpSpec((student.output_dim, d_t)), seed=int(rng.integers(2**31)))
        chain = MlpModel(student.layers + _float32_model(head).layers)

    bn = None
    if config.loss_variant == "bn":
        bn = BnParams(np.ones(d_t), np.zeros(d_t), eps=config.bn_eps)
        bn.gamma, bn.beta_shift = bn.gamma.astype(np.float32), bn.beta_shift.astype(np.float32)

    params = chain.parameters()
    if bn is not None:
        params = params + [bn.gamma, bn.beta_shift]
    velocities = [np.zeros_like(p) for p in params]

    log = RunLog(steps_per_epoch=-(-n // config.batch_size))

    for epoch in range(config.epochs):
        for anchors in epoch_batches(n, config.batch_size, rng):
            rows = compose_batch(anchors, index, config.k, rng)
            # X[rows] is a fresh copy already; here alone zero noise draws nothing
            X_aug = augment(X[rows], config.aug_sigma, rng) if config.aug_sigma else X[rows]
            A_t = forward(teacher, X_aug)[0] if dump is None else dump[rows]

            A_s, cache = forward(chain, X_aug)
            # the dump passed float32_copy on entry; a teacher's output may overflow
            if not (np.isfinite(A_s).all() and (dump is not None or np.isfinite(A_t).all())):
                raise NumericalError(f"non-finite embeddings at step {len(log.steps)}")

            l_co, l_ss, l_total, G, bn_grads = objective(A_s, A_t, config, bn)

            if not np.isfinite(l_total):
                raise NumericalError(f"non-finite loss at step {len(log.steps)}")

            sgd_step(params, backward(chain, cache, G) + bn_grads, velocities, config)

            log.steps.append(StepRecord(l_co=l_co, l_ss=l_ss, l_total=l_total))
        if eval_hook is not None:
            log.epoch_metrics.append(eval_hook(student.copy(), epoch))

    return student.copy(), log


def _float32_model(model: MlpModel) -> MlpModel:
    """A float32 copy of ``model`` for training; ``MlpModel.copy`` gives float64 ones."""
    out = model.copy()
    for layer in out.layers:
        layer.weight = float32_copy(layer.weight, "model")
        layer.bias = float32_copy(layer.bias, "model")
    return out


# The paper's two ablations.  Each grid names its table's key column, the
# config field that column shows, and the config overrides of each run.
ABLATION_GRIDS = {
    "components": ("variant", "loss_variant",
                   [{"loss_variant": v} for v in ("co_only", "ss_only", "coss")]),
    "lambda": ("lambda", "lam",
               [{"loss_variant": "coss", "lam": lam} for lam in (0.0, 0.25, 0.5, 1.0)]),
}


def ablate(base_config: DistillConfig, dataset: Dataset, teacher, index: NeighborIndex,
           eval_fn, grid: str) -> list[dict]:
    """Train one student per run of ``ABLATION_GRIDS[grid]``, everything else fixed.

    ``eval_fn(student)`` scores each trained student (typically k-NN
    accuracy on held-out labels).  Returns one row per run, in grid order.
    """
    key_col, field_name, runs = ABLATION_GRIDS[grid]
    # every run's config is built, and so checked, before the first one trains
    configs = [base_config.replace(**overrides) for overrides in runs]
    rows = []
    for cfg in configs:
        student, log = distill(cfg, dataset, teacher, index)
        last = log.steps[-1]
        rows.append(
            {
                key_col: getattr(cfg, field_name),
                "accuracy": float(eval_fn(student)),
                "config_hash": config_hash(cfg),
                "final_l_co": last.l_co,
                "final_l_ss": last.l_ss,
                "final_l_total": last.l_total,
            }
        )
    return rows
