"""End-to-end distillation loop plus the ablation driver.

One step: compose the neighbour-enhanced batch, augment it, run the
frozen teacher and the trainable student on the same inputs, evaluate
the configured loss, backpropagate through the student (and projection
head, if any), and take one SGD step.  All randomness flows from a
single seeded generator, so a run is a pure function of
(config, dataset, teacher, index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DistillConfig, config_hash, validate_config
from .data import Dataset, augment, compose_batch, epoch_batches
from .errors import ConfigError, NumericalError
from .knn import NeighborIndex
from .linalg import as_matrix
from .losses import BnParams, objective
# not called here; perfbench --trace 1 wraps these names on this module
from .losses import grad_co, grad_ss, loss_co, loss_ss  # noqa: F401
from .models import MlpModel, MlpSpec, SgdState, backward, forward, init_model, sgd_step


@dataclass(frozen=True)
class StepRecord:
    step: int          # global step, 0-based
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
    and its result is appended to the log.
    """
    validate_config(config)
    X = dataset.inputs  # training never touches dataset.labels
    n, input_dim = X.shape
    if index.n != n:
        raise ValueError("index/dataset size mismatch")
    if config.pool != index.pool:
        raise ConfigError(f"config pool {config.pool} ≠ index pool {index.pool}")
    last_rows = (n % config.batch_size or config.batch_size) * (1 + config.k)
    if config.loss_variant == "bn" and last_rows < 2:
        raise ConfigError(f"bn needs ≥ 2 rows per batch, the epoch's last batch has {last_rows}")
    dump = None
    if not isinstance(teacher, MlpModel):
        dump = teacher_embeddings(teacher, X)
        if config.aug_sigma != 0.0:
            raise ConfigError("aug_sigma = 0 for embedding-dump teacher")
    d_t = teacher.output_dim if dump is None else dump.shape[1]

    rng = np.random.default_rng(config.seed)
    student = init_model(
        config.student_spec(input_dim), seed=int(rng.integers(2**31))
    )
    # the head trains as more layers of one chain that shares the student's Layers
    chain = student
    if student.output_dim != d_t:
        # one linear layer bridges the student and teacher widths
        head = init_model(MlpSpec((student.output_dim, d_t)), seed=int(rng.integers(2**31)))
        chain = MlpModel(student.layers + head.layers)

    bn = None
    if config.loss_variant == "bn":
        bn = BnParams(np.ones(d_t), np.zeros(d_t), eps=config.bn_eps)

    params = chain.parameters()
    if bn is not None:
        params = params + [bn.gamma, bn.beta_shift]
    opt = SgdState(lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay)

    log = RunLog(steps_per_epoch=-(-n // config.batch_size))
    global_step = 0

    for epoch in range(config.epochs):
        for anchors in epoch_batches(n, config.batch_size, rng):
            rows = compose_batch(anchors, index, config.k, rng)
            # X[rows] is a fresh copy already, and zero noise draws nothing
            X_aug = augment(X[rows], config.aug_sigma, rng) if config.aug_sigma else X[rows]
            A_t = forward(teacher, X_aug)[0] if dump is None else dump[rows]

            A_s, cache = forward(chain, X_aug)
            # the dump passed as_matrix on entry; a teacher's output may overflow
            if not (np.isfinite(A_s).all() and (dump is not None or np.isfinite(A_t).all())):
                raise NumericalError(f"non-finite embeddings at step {global_step}")

            l_co, l_ss, l_total, G, bn_grads = objective(A_s, A_t, config, bn)

            if not np.isfinite(l_total):
                raise NumericalError(f"non-finite loss at step {global_step}")

            sgd_step(params, backward(chain, cache, G) + bn_grads, opt)

            log.steps.append(StepRecord(step=global_step, l_co=l_co, l_ss=l_ss, l_total=l_total))
            global_step += 1
        if eval_hook is not None:
            log.epoch_metrics.append(eval_hook(student.copy(), epoch))

    return student, log


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
    rows = []
    for overrides in runs:
        cfg = base_config.replace(**overrides)
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
