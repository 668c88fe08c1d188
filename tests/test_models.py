"""MLP forward/backward correctness and the SGD-with-momentum update rule."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coss.config import DistillConfig
from coss.errors import NumericalError
from coss.losses import objective
from coss.models import (
    Layer,
    MlpModel,
    MlpSpec,
    backward,
    forward,
    init_model,
    sgd_step,
)

from conftest import assert_grad_close


def linear_model(W, b):
    return MlpModel([Layer(np.asarray(W), np.asarray(b), "identity")])


class TestForward:
    def test_identity_layer_passes_input_through(self):
        model = linear_model(np.eye(3), np.zeros(3))
        X = np.arange(6.0).reshape(2, 3)
        out, _ = forward(model, X)
        np.testing.assert_array_equal(out, X)

    def test_relu_clamps_negative_preactivations(self):
        model = MlpModel([Layer(np.eye(2), np.zeros(2), "relu")])
        out, _ = forward(model, [[-1.0, 2.0]])
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_two_layer_chain_matches_scalar_recomputation(self):
        model = MlpModel(
            [
                Layer([[1.0, 2.0], [0.0, 1.0]], [0.5, -0.5], "tanh"),
                Layer([[1.0, -1.0]], [0.25], "identity"),
            ]
        )
        out, _ = forward(model, [[1.0, 2.0]])
        # scalar arithmetic, independent of the matrix path
        h1 = math.tanh(1.0 * 1 + 2.0 * 2 + 0.5)
        h2 = math.tanh(0.0 * 1 + 1.0 * 2 - 0.5)
        np.testing.assert_allclose(out, [[h1 - h2 + 0.25]], rtol=1e-15)

    def test_fortran_order_gives_the_c_order_bytes(self):
        model = init_model(MlpSpec((24, 48, 8), hidden_activation="tanh"), seed=5)
        X = np.random.default_rng(5).normal(size=(64, 24))
        out, cache = forward(model, X)
        out_f, cache_f = forward(model, np.asfortranarray(X))
        assert out_f.tobytes() == out.tobytes()
        for (A, Y), (A_f, Y_f) in zip(cache, cache_f):
            assert A_f.tobytes() == A.tobytes() and Y_f.tobytes() == Y.tobytes()

    def test_column_mismatch_rejected(self):
        model = linear_model(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="model expects 3"):
            forward(model, np.ones((2, 4)))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(4)),
            elements=st.floats(-1e3, 1e3),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_finite_input_gives_finite_output(self, X):
        model = init_model(MlpSpec((4, 5, 3), hidden_activation="tanh"), seed=7)
        out, _ = forward(model, X)
        assert np.isfinite(out).all()


class TestBackward:
    def test_identity_network_gradient_structure(self):
        W = np.array([[2.0, 1.0], [0.0, 3.0]])
        model = linear_model(W, np.zeros(2))
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        _, cache = forward(model, X)
        grads = backward(model, cache, G)
        assert len(grads) == 2
        np.testing.assert_array_equal(grads[0], G.T @ X)
        np.testing.assert_array_equal(grads[1], G.sum(axis=0))

    def test_zero_output_gradient_gives_zero_parameter_gradients(self):
        model = init_model(MlpSpec((3, 4, 2)), seed=0)
        X = np.random.default_rng(1).normal(size=(5, 3))
        out, cache = forward(model, X)
        grads = backward(model, cache, np.zeros_like(out))
        assert len(grads) == 4
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("hidden_activation", ["tanh", "relu"])
    def test_distillation_loss_matches_parameter_finite_differences(
        self, hidden_activation
    ):
        rng = np.random.default_rng(42)
        student = init_model(
            MlpSpec((5, 7, 4), hidden_activation=hidden_activation), seed=3
        )
        teacher = init_model(MlpSpec((5, 6, 4), hidden_activation="tanh"), seed=9)
        X = rng.normal(size=(6, 5))
        T, _ = forward(teacher, X)
        cfg = DistillConfig(lam=0.7)

        def total_loss():
            S, _ = forward(student, X)
            return objective(S, T, cfg)[2]

        S, cache = forward(student, X)
        G = objective(S, T, cfg)[3]
        analytic = backward(student, cache, G)

        h = 1e-6
        for p, g in zip(student.parameters(), analytic):
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                fp = total_loss()
                p[idx] = orig - h
                fm = total_loss()
                p[idx] = orig
                numeric[idx] = (fp - fm) / (2.0 * h)
            assert_grad_close(g, numeric, rtol=1e-5)


def separate_backward(model, cache, G):
    """Backward as training ran it before the chain: every layer's input
    gradient is formed, so a head hands ``dY @ W`` on to the student."""
    grads = [None] * (2 * len(model.layers))
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        X_in, Y = cache[i]
        if layer.activation == "relu":
            deriv = (Y > 0.0).astype(np.float64)
        elif layer.activation == "tanh":
            t = np.tanh(Y)
            deriv = 1.0 - t * t
        else:
            deriv = np.ones_like(Y)
        dY = G * deriv
        grads[2 * i] = dY.T @ X_in
        grads[2 * i + 1] = dY.sum(axis=0)
        G = dY @ layer.weight
    return grads, G


class TestChain:
    """The student and its projection head train as one chain of layers."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("with_head", [True, False])
    def test_chain_gradients_are_bitwise_the_separate_passes(self, activation, with_head):
        rng = np.random.default_rng(5)
        student = init_model(MlpSpec((6, 9, 4 if with_head else 5), hidden_activation=activation),
                             seed=11)
        head = init_model(MlpSpec((4, 5)), seed=12) if with_head else None
        X = rng.normal(size=(40, 6))
        T = rng.normal(size=(40, 5))

        emb, cache_s = forward(student, X)
        A_s, cache_h = forward(head, emb) if with_head else (emb, None)
        G = objective(A_s, T, DistillConfig(lam=0.7))[3]
        head_grads, G_s = separate_backward(head, cache_h, G) if with_head else ([], G)
        expected = separate_backward(student, cache_s, G_s)[0] + head_grads

        chain = MlpModel(student.layers + head.layers) if with_head else student
        out, cache = forward(chain, X)
        assert out.tobytes() == A_s.tobytes()
        grads = backward(chain, cache, G)
        assert len(grads) == len(expected)
        for got, want in zip(grads, expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_student_and_head_match_finite_differences(self, activation):
        rng = np.random.default_rng(8)
        student = init_model(MlpSpec((5, 6, 3), hidden_activation=activation), seed=4)
        chain = MlpModel(student.layers + init_model(MlpSpec((3, 4)), seed=6).layers)
        X = rng.normal(size=(7, 5))
        T = rng.normal(size=(7, 4))
        cfg = DistillConfig(lam=0.6)

        def total_loss():
            return objective(forward(chain, X)[0], T, cfg)[2]

        S, cache = forward(chain, X)
        analytic = backward(chain, cache, objective(S, T, cfg)[3])
        assert len(analytic) == 6
        h = 1e-6
        for p, g in zip(chain.parameters(), analytic):
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                fp = total_loss()
                p[idx] = orig - h
                fm = total_loss()
                p[idx] = orig
                numeric[idx] = (fp - fm) / (2.0 * h)
            assert_grad_close(g, numeric, rtol=1e-5)

    def test_chain_parameters_are_the_parts_live_views(self):
        student = init_model(MlpSpec((3, 4, 2)), seed=0)
        head = init_model(MlpSpec((2, 5)), seed=1)
        chain = MlpModel(student.layers + head.layers)
        for got, part in zip(chain.parameters(), student.parameters() + head.parameters()):
            assert got is part

    def test_backward_allocates_less_than_a_first_layer_input_gradient(self):
        # an input gradient of the first layer alone would be 1024 x 256 float64
        rng = np.random.default_rng(0)
        model = init_model(MlpSpec((256, 128, 64), hidden_activation="relu"), seed=1)
        _, cache = forward(model, rng.normal(size=(1024, 256)))
        G = rng.normal(size=(1024, 64))
        tracemalloc.start()
        try:
            backward(model, cache, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 256 * 8

    def test_caller_gradient_is_not_modified(self):
        model = init_model(MlpSpec((3, 4, 2), output_activation="tanh"), seed=0)
        _, cache = forward(model, np.random.default_rng(1).normal(size=(5, 3)))
        G = np.random.default_rng(2).normal(size=(5, 2))
        before = G.copy()
        backward(model, cache, G)
        np.testing.assert_array_equal(G, before)


class TestSgdStep:
    @staticmethod
    def step(p, g, velocity=None, **config):
        """One ``sgd_step`` of the single parameter ``p`` under ``DistillConfig(**config)``."""
        velocity = np.zeros_like(p) if velocity is None else velocity
        sgd_step([p], [g], [velocity], DistillConfig(**config))

    def test_vanilla_step(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        self.step(p, g.copy(), lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p, [0.95, 2.05], rtol=1e-15)

    def test_two_momentum_steps_follow_hand_recursion(self):
        # v1 = g, v2 = 0.9 g + g: total displacement 2.9 * lr * g
        p = np.array([1.0])
        g = np.array([2.0])
        velocity = np.zeros_like(p)
        self.step(p, g, velocity, lr=0.1, momentum=0.9)
        self.step(p, g, velocity, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p, [1.0 - 2.9 * 0.1 * 2.0], rtol=1e-14)

    def test_zero_learning_rate_freezes_parameters(self):
        p = np.array([[1.0, -1.0]])
        self.step(p, np.full_like(p, 9.0), lr=0.0, momentum=0.5)
        np.testing.assert_array_equal(p, [[1.0, -1.0]])

    def test_weight_decay_pulls_toward_zero(self):
        p = np.array([10.0])
        self.step(p, np.zeros(1), lr=0.1, momentum=0.0, weight_decay=0.5)
        np.testing.assert_allclose(p, [10.0 - 0.1 * 0.5 * 10.0], rtol=1e-15)


class TestInit:
    def test_same_seed_reproduces_weights(self):
        spec = MlpSpec((6, 5, 4))
        assert init_model(spec, seed=11) == init_model(spec, seed=11)

    def test_different_seeds_differ(self):
        spec = MlpSpec((6, 5, 4))
        assert init_model(spec, seed=11) != init_model(spec, seed=12)

    def test_fan_in_bound(self):
        model = init_model(MlpSpec((4, 8)), seed=5)
        assert np.abs(model.layers[0].weight).max() < 0.5
        assert np.abs(model.layers[0].bias).max() < 0.5

    def test_activation_assignment(self):
        model = init_model(
            MlpSpec((3, 4, 5, 2), hidden_activation="tanh"), seed=0
        )
        assert [l.activation for l in model.layers] == ["tanh", "tanh", "identity"]

    def test_projection_head_is_single_linear_layer(self):
        # the head distill bridges widths with: the default output is linear
        head = init_model(MlpSpec((3, 5)), seed=2)
        assert len(head.layers) == 1
        assert head.layers[0].activation == "identity"
        assert (head.input_dim, head.output_dim) == (3, 5)

    def test_spec_needs_two_dims(self):
        with pytest.raises(ValueError, match="input and output"):
            MlpSpec((4,))

    def test_spec_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError, match="≥ 1"):
            MlpSpec((4, 0, 2))


class TestModelContainer:
    def test_broken_chain_rejected(self):
        good = Layer(np.ones((3, 2)), np.zeros(3), "relu")
        bad = Layer(np.ones((2, 4)), np.zeros(2), "identity")
        with pytest.raises(ValueError, match="chain"):
            MlpModel([good, bad])

    def test_bias_length_must_match(self):
        with pytest.raises(ValueError, match="bias length"):
            Layer(np.ones((3, 2)), np.zeros(2), "relu")

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,)])
    def test_weight_must_be_a_nonempty_matrix(self, shape):
        with pytest.raises(ValueError, match="layer weight must"):
            Layer(np.ones(shape), np.zeros(shape[0]), "relu")

    @pytest.mark.parametrize("part", ["weight", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_are_numerical_errors(self, part, value):
        params = {"weight": np.ones((2, 3)), "bias": np.zeros(2)}
        params[part].flat[1] = value
        with pytest.raises(NumericalError, match="non-finite"):
            Layer(params["weight"], params["bias"], "relu")

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            Layer(np.ones((2, 2)), np.zeros(2), "gelu")

    def test_parameters_are_live_views(self):
        model = init_model(MlpSpec((2, 2)), seed=0)
        model.parameters()[0][:] = 0.0
        assert np.all(model.layers[0].weight == 0.0)

    def test_copy_is_independent(self):
        model = init_model(MlpSpec((2, 3)), seed=0)
        clone = model.copy()
        clone.layers[0].weight[:] = 99.0
        assert np.abs(model.layers[0].weight).max() < 1.0
        assert model != clone
