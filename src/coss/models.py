"""Small MLPs with explicit forward/backward passes and SGD-with-momentum.

The teacher is one of these, frozen; the student is another, trained.
Reverse-mode gradients are hand-written.  A ``Layer`` built through its
constructor holds float64 arrays, as users and the decoders build them;
``distill`` trains float32 copies.  ``forward`` computes in the dtype of
its input rows, ``backward`` and ``sgd_step`` in that of the arrays they
are given, so the same code that trains in float32 stays checkable
against finite differences at float64.  ``Layer``, ``MlpModel``,
``MlpSpec`` and ``forward`` validate; ``backward`` and ``sgd_step`` are
``distill``'s step kernels and trust what it built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .linalg import as_matrix

ACTIVATIONS = ("identity", "relu", "tanh")


def _apply_activation(name: str, Y: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(Y, 0.0)
    if name == "tanh":
        return np.tanh(Y)
    return Y


def _activation_backward(name: str, Y: np.ndarray, G: np.ndarray, own: bool) -> np.ndarray:
    """``G`` times the activation's derivative at ``Y``, written into ``G`` if ``own``."""
    if name == "identity":
        return G
    deriv = Y > 0.0 if name == "relu" else 1.0 - np.tanh(Y) ** 2
    return np.multiply(G, deriv, out=G if own else None)


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    activation: str

    def __post_init__(self):
        self.weight = as_matrix(self.weight, "layer weight")
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError("bias length must equal the layer's output size")
        if not np.all(np.isfinite(self.bias)):
            raise NumericalError("non-finite layer bias")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(eq=False)
class MlpModel:
    layers: list[Layer] = field(repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live views."""
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def copy(self) -> "MlpModel":
        """A float64 copy, as every ``Layer`` built through its constructor is."""
        return MlpModel(
            [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )

    def __eq__(self, other):
        if not isinstance(other, MlpModel):
            return NotImplemented
        return len(self.layers) == len(other.layers) and all(
            a.activation == b.activation
            and np.array_equal(a.weight, b.weight)
            and np.array_equal(a.bias, b.bias)
            for a, b in zip(self.layers, other.layers)
        )


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description: dimension chain plus activation names."""

    layer_dims: tuple[int, ...]  # (input, hidden..., output)
    hidden_activation: str = "relu"
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError("spec needs input and output dimensions")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError("all layer dimensions must be ≥ 1")
        if self.hidden_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.hidden_activation!r}")
        if self.output_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.output_activation!r}")


def init_model(spec: MlpSpec, seed: int) -> MlpModel:
    """Initialise weights and biases from Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    rng = np.random.default_rng(seed)
    layers = []
    n = len(spec.layer_dims) - 1
    for i in range(n):
        fan_in = spec.layer_dims[i]
        fan_out = spec.layer_dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        act = spec.output_activation if i == n - 1 else spec.hidden_activation
        layers.append(Layer(W, b, act))
    return MlpModel(layers)


def forward(model: MlpModel, X) -> tuple[np.ndarray, list]:
    """Run the affine+activation chain; the cache feeds :func:`backward`.

    A float32 array ``X`` runs in float32, and anything else in float64, as
    ``as_matrix`` makes it.  Weights of the other dtype are cast per call:
    ``distill``'s float32 batches run its float64 teacher through float32
    casts of the teacher's weights, and its float32 student not at all.
    """
    dtype = np.float32 if getattr(X, "dtype", None) == np.float32 else np.float64
    A = as_matrix(X, "X", dtype)
    if A.shape[1] != model.input_dim:
        raise ValueError(
            f"input has {A.shape[1]} columns, model expects {model.input_dim}"
        )
    cache = []
    for layer in model.layers:
        Y = A @ layer.weight.astype(dtype, copy=False).T
        Y += layer.bias.astype(dtype, copy=False)
        cache.append((A, Y))
        A = _apply_activation(layer.activation, Y)
    return A, cache


def backward(model: MlpModel, cache: list, G) -> list[np.ndarray]:
    """Exact reverse-mode gradients of the chain's parameters.

    ``G`` is the loss gradient at the model output, one row per cached
    input row, in the model's dtype; it is left unchanged.  ``cache`` is
    this model's :func:`forward` cache, as ``distill`` passes them.  Returns
    the gradients in :meth:`MlpModel.parameters` order.  Nothing reads a
    gradient for the model input, so none is formed.
    """
    grads: list[np.ndarray] = [None] * (2 * len(model.layers))
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        X_in, Y = cache[i]
        dY = _activation_backward(layer.activation, Y, G, own=i < len(model.layers) - 1)
        grads[2 * i] = dY.T @ X_in
        grads[2 * i + 1] = dY.sum(axis=0)
        if i:
            G = dY @ layer.weight
    return grads


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray],
             velocities: list[np.ndarray], cfg) -> None:
    """v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v.

    Parameters and velocity buffers are updated in place; ``cfg`` supplies
    ``lr``, ``momentum`` and ``weight_decay``, as Python floats, which keep
    the arrays' dtype.  Takes one gradient and one velocity per parameter,
    of its shape and dtype, as ``distill`` builds them.
    """
    for p, g, v in zip(params, grads, velocities):
        v *= cfg.momentum
        if cfg.weight_decay != 0.0:
            v += g + cfg.weight_decay * p
        else:
            v += g
        p -= cfg.lr * v
