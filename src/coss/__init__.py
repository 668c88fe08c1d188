"""Unsupervised knowledge distillation via feature and space cosine similarity.

The package trains a small student network to mimic a frozen teacher's
embeddings without labels, by aligning both the per-sample feature rows
and the per-dimension columns of the batch embedding matrices, with
batches enhanced by precomputed nearest neighbours.

The functions exported here check their arguments.  ``distill``'s step
kernels and ``objective``, the fused loss, trust its checks, so they are
imported from their modules, as ``linalg``'s kernels are.
"""

from .config import DistillConfig, config_hash, load_config, render_config
from .data import Dataset
from .distill import ABLATION_GRIDS, RunLog, StepRecord, ablate, distill
from .errors import ConfigError, FormatError, NumericalError
from .evaluate import (
    AlignmentDiagnostics,
    alignment_diagnostics,
    knn_classify,
    knn_predict,
    linear_probe,
    recall_at_k,
)
from .knn import NeighborIndex, build_index
from .linalg import l2_normalize
from .losses import grad_co, grad_ss, loss_bn, loss_co, loss_ss
from .models import MlpModel, MlpSpec, forward, init_model

__version__ = "0.1.0"
