import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coss.linalg as linalg_mod
import coss.losses as losses_mod
from conftest import assert_grad_close, brute_loss_co, brute_loss_ss, finite_diff
from coss.config import DistillConfig
from coss.errors import ConfigError
from coss.linalg import UNIT_ROUNDOFF, _gamma
from coss.losses import (
    BnParams,
    grad_co,
    grad_ss,
    loss_bn,
    loss_co,
    loss_ss,
    objective,
)

# entries bounded away from zero so no row or column can vanish
nonzero_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(0.1, 10),
)


def random_pair(seed, shape=(5, 4)):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape), rng.normal(size=shape)


class TestLossCo:
    def test_self_similarity(self):
        A = np.random.default_rng(0).normal(size=(6, 3)) + 0.1
        assert loss_co(A, A) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert loss_co([[1.0, 0.0]], [[0.0, 1.0]]) == 0.0

    def test_frozen_example(self):
        # oracle: -(cos45 + 1)/2
        got = loss_co([[1.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
        assert got == pytest.approx(-0.8535533905932737, abs=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            loss_co([[1.0, 2.0]], [[1.0], [2.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_loop_oracle(self, seed):
        S, T = random_pair(seed)
        assert loss_co(S, T) == pytest.approx(brute_loss_co(S, T), abs=1e-12)


class TestLossSs:
    def test_column_scale_identity(self):
        got = loss_ss([[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 1.0]])
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_frozen_example(self):
        got = loss_ss([[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert got == pytest.approx(-0.6053274785083769, abs=1e-4)

    def test_antipodal_column_cancels(self):
        A_t = np.array([[1.0, 2.0], [3.0, 1.0]])
        A_s = A_t * np.array([-1.0, 1.0])
        assert loss_ss(A_s, A_t) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_loop_oracle(self, seed):
        S, T = random_pair(seed)
        assert loss_ss(S, T) == pytest.approx(brute_loss_ss(S, T), abs=1e-12)


def total(S, T, lam):
    return objective(np.asarray(S, dtype=np.float64), np.asarray(T, dtype=np.float64),
                     DistillConfig(lam=lam))


class TestLossCoss:
    def test_both_terms_at_minimum(self):
        A = np.random.default_rng(1).uniform(0.5, 2.0, size=(4, 4))
        assert total(A, A, 1.0)[2] == pytest.approx(-2.0, abs=1e-12)

    def test_lambda_zero_reduces_to_co(self):
        S, T = random_pair(7)
        l_co, _, l_total, _, _ = total(S, T, 0.0)
        assert l_total == l_co

    def test_frozen_combination(self):
        l_total = total([[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]], 0.5)[2]
        assert l_total == pytest.approx(-0.9262705370041674, abs=1e-10)

    def test_breakdown_invariant(self):
        S, T = random_pair(13)
        l_co, l_ss, l_total, _, _ = total(S, T, 0.7)
        assert l_total == l_co + 0.7 * l_ss
        assert -1.0 <= l_co <= 1.0
        assert -1.0 <= l_ss <= 1.0

    def test_rejects_bad_weights(self):
        # the weight is checked once, where a config enters the program
        with pytest.raises(ConfigError, match="lambda"):
            DistillConfig(lam=-0.1)


class TestInvariances:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_row_scale_invariance_of_co(self, seed):
        rng = np.random.default_rng(seed)
        S, T = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        d_s = rng.uniform(0.1, 10.0, size=(6, 1))
        d_t = rng.uniform(0.1, 10.0, size=(6, 1))
        assert loss_co(S * d_s, T) == pytest.approx(loss_co(S, T), abs=1e-10)
        assert loss_co(S, T * d_t) == pytest.approx(loss_co(S, T), abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_column_scale_invariance_of_ss(self, seed):
        rng = np.random.default_rng(seed)
        S, T = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        d_c = rng.uniform(0.1, 10.0, size=(1, 4))
        assert loss_ss(S * d_c, T) == pytest.approx(loss_ss(S, T), abs=1e-10)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 16))
    @settings(max_examples=60)
    def test_transpose_duality(self, seed, b, d):
        # loss_ss runs on the transposed views, loss_co on C-ordered copies of
        # them, and einsum rounds by memory layout: equal up to b-term sums
        S, T = random_pair(seed, shape=(b, d))
        assert abs(loss_ss(S, T) - loss_co(S.T, T.T)) <= 4 * _gamma(b, UNIT_ROUNDOFF)
        # the logged l_ss is the per-term function's, bit for bit
        assert total(S, T, 1.0)[1] == loss_ss(S, T)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_simultaneous_permutations(self, seed):
        rng = np.random.default_rng(seed)
        S, T = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        rows = rng.permutation(6)
        cols = rng.permutation(4)
        for f in (loss_co, loss_ss):
            assert f(S[rows], T[rows]) == pytest.approx(f(S, T), abs=1e-10)
            assert f(S[:, cols], T[:, cols]) == pytest.approx(f(S, T), abs=1e-10)

    @given(nonzero_matrices)
    def test_self_loss_is_minus_one(self, A):
        assert loss_co(A, A) == pytest.approx(-1.0, abs=1e-10)
        assert loss_ss(A, A) == pytest.approx(-1.0, abs=1e-10)


class TestGradCoss:
    def test_stationary_at_positive_scaling(self):
        A_t = np.random.default_rng(3).normal(size=(5, 4))
        G = grad_co(2.5 * A_t, A_t)
        np.testing.assert_allclose(G, 0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        A_s, A_t = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        lam = rng.uniform(0.0, 2.0)
        analytic = total(A_s, A_t, lam)[3]
        numeric = finite_diff(lambda X: total(X, A_t, lam)[2], A_s)
        assert_grad_close(analytic, numeric, rtol=1e-6)

    def test_lambda_zero_isolates_row_term(self):
        S, T = random_pair(17)
        np.testing.assert_array_equal(total(S, T, 0.0)[3], grad_co(S, T))

    def test_term_decomposition(self):
        S, T = random_pair(19)
        np.testing.assert_array_equal(
            total(S, T, 0.4)[3], grad_co(S, T) + 0.4 * grad_ss(S, T)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_fortran_order_gives_the_c_order_bytes(self, seed):
        rng = np.random.default_rng(seed)
        S, T = rng.normal(size=(64, 24)), rng.normal(size=(64, 24))
        F_s, F_t = np.asfortranarray(S), np.asfortranarray(T)
        for fn in (loss_co, loss_ss, grad_co, grad_ss):
            assert np.asarray(fn(F_s, F_t)).tobytes() == np.asarray(fn(S, T)).tobytes(), fn

    def test_guarded_zero_row_gradient(self):
        # rows under the norm guard fall back to the exact derivative of s.t/eps
        A_s = np.array([[0.0, 0.0], [1.0, 2.0]])
        A_t = np.array([[1.0, 1.0], [2.0, 1.0]])
        analytic = grad_co(A_s, A_t)
        t_hat = A_t[0] / np.linalg.norm(A_t[0])
        np.testing.assert_allclose(analytic[0], -t_hat / (1e-12 * 2), rtol=1e-12)
        # a sub-guard step probes the linear branch without leaving it
        numeric0 = finite_diff(
            lambda R: loss_co(np.vstack([R, A_s[1:]]), A_t), A_s[:1], h=1e-13
        )
        assert_grad_close(analytic[:1], numeric0, rtol=1e-6)
        numeric1 = finite_diff(
            lambda R: loss_co(np.vstack([A_s[:1], R]), A_t), A_s[1:], h=1e-6
        )
        assert_grad_close(analytic[1:], numeric1, rtol=1e-6)
        expected_zero_row = -(A_t[0] / np.linalg.norm(A_t[0])) / 1e-12 / 2.0
        np.testing.assert_allclose(analytic[0], expected_zero_row, rtol=1e-12)


class TestLossBn:
    def test_hand_constructed_zero(self):
        loss, dX, dg, db = loss_bn(
            [[1.0], [3.0]], [[-1.0], [3.0]], BnParams([2.0], [1.0])
        )
        assert loss == 0.0

    def test_self_consistency_zero(self):
        rng = np.random.default_rng(23)
        X_s = rng.normal(size=(6, 3))
        p = BnParams(rng.normal(size=3), rng.normal(size=3))
        mu = X_s.mean(axis=0)
        sigma = np.maximum(np.sqrt(X_s.var(axis=0)), p.eps)
        X_t = p.gamma * (X_s - mu) / sigma + p.beta_shift
        loss, *_ = loss_bn(X_s, X_t, p)
        assert loss == pytest.approx(0.0, abs=1e-20)

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="batch too small for BN"):
            loss_bn([[1.0, 2.0]], [[1.0, 2.0]], BnParams([1.0, 1.0], [0.0, 0.0]))

    def test_parameter_length_must_match_the_width(self):
        with pytest.raises(ValueError, match="BN parameter length does not match feature count"):
            loss_bn(np.eye(3), np.eye(3), BnParams([1.0, 1.0], [0.0, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        X_s, X_t = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        p = BnParams(rng.normal(size=4), rng.normal(size=4))
        loss, dX, dg, db = loss_bn(X_s, X_t, p)
        h = 3e-5
        assert_grad_close(
            dX, finite_diff(lambda X: loss_bn(X, X_t, p)[0], X_s, h), rtol=1e-6, atol=1e-9
        )
        assert_grad_close(
            dg,
            finite_diff(lambda g: loss_bn(X_s, X_t, BnParams(g, p.beta_shift, p.eps))[0], p.gamma, h),
            rtol=1e-6,
            atol=1e-9,
        )
        assert_grad_close(
            db,
            finite_diff(lambda b: loss_bn(X_s, X_t, BnParams(p.gamma, b, p.eps))[0], p.beta_shift, h),
            rtol=1e-6,
            atol=1e-9,
        )

    def test_guarded_constant_column(self):
        # a constant column has zero variance; sigma clamps to eps
        rng = np.random.default_rng(31)
        X_s = rng.normal(size=(5, 2))
        X_s[:, 0] = 2.0
        X_t = rng.normal(size=(5, 2))
        p = BnParams([1.5, -0.5], [0.3, 0.1])
        _, dX, _, _ = loss_bn(X_s, X_t, p)
        numeric = finite_diff(lambda X: loss_bn(X, X_t, p)[0], X_s, h=1e-7)
        assert_grad_close(dX, numeric, rtol=1e-4, atol=1e-6)

    def test_gamma_may_be_zero(self):
        X_s, X_t = random_pair(41, shape=(4, 2))
        loss, dX, dg, db = loss_bn(X_s, X_t, BnParams([0.0, 0.0], [0.0, 0.0]))
        np.testing.assert_array_equal(dX, 0.0)
        assert np.any(dg != 0.0)


def per_term(S, T, cfg, bn):
    """The training step's arithmetic spelled out with the validated per-term functions."""
    l_co, l_ss = loss_co(S, T), loss_ss(S, T)
    if cfg.loss_variant == "bn":
        l_total, G, d_gamma, d_beta = loss_bn(S, T, bn)
        return l_co, l_ss, l_total, G, [d_gamma, d_beta]
    if cfg.loss_variant == "ss_only":
        return l_co, l_ss, l_ss, grad_ss(S, T), []
    if cfg.loss_variant == "coss" and cfg.lam != 0.0:
        G = grad_co(S, T) + cfg.lam * grad_ss(S, T)
        return l_co, l_ss, l_co + cfg.lam * l_ss, G, []
    return l_co, l_ss, l_co, grad_co(S, T), []


def bits(values):
    """The bytes of every float and array in ``values``, flattened."""
    out = []
    for v in values:
        if isinstance(v, list):
            out += bits(v)
        else:
            out.append(np.asarray(v, dtype=np.float64).tobytes())
    return out


OBJECTIVE_CONFIGS = {
    "coss": dict(lam=0.7),
    "co_only": dict(loss_variant="co_only", lam=0.7),
    "ss_only": dict(loss_variant="ss_only", lam=0.7),
    "lam0": dict(lam=0.0),
    "bn": dict(loss_variant="bn", lam=0.7, bn_eps=1e-5),
}


class TestObjective:
    @pytest.mark.parametrize("variant", OBJECTIVE_CONFIGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 40),
        cols=st.integers(1, 17),
        zero_rows=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_term_functions_bitwise(self, variant, seed, rows, cols, zero_rows):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(rows, cols)) * rng.uniform(0.01, 100.0, size=(rows, 1))
        T = rng.normal(size=(rows, cols))
        S[rng.choice(rows, size=min(zero_rows, rows - 1), replace=False)] = 0.0
        cfg = DistillConfig(**OBJECTIVE_CONFIGS[variant])
        bn = BnParams(rng.normal(size=cols), rng.normal(size=cols), eps=cfg.bn_eps)
        got = objective(S, T, cfg, bn if variant == "bn" else None)
        assert bits(got) == bits(per_term(S, T, cfg, bn))

    @pytest.mark.parametrize("variant", OBJECTIVE_CONFIGS)
    def test_makes_one_row_and_one_column_pass(self, monkeypatch, variant):
        # the logged l_ss and the space gradient share the column pass
        calls = []
        real = linalg_mod.row_cosines

        def counted(*args):
            calls.append(1)
            return real(*args)

        for module in (losses_mod, linalg_mod):
            monkeypatch.setattr(module, "row_cosines", counted)
        S, T = random_pair(3, shape=(6, 3))
        cfg = DistillConfig(**OBJECTIVE_CONFIGS[variant])
        bn = BnParams(np.ones(3), np.zeros(3), eps=cfg.bn_eps) if variant == "bn" else None
        objective(S, T, cfg, bn)
        assert len(calls) == 2

    def test_bn_total_is_the_bn_loss(self):
        S, T = random_pair(7, shape=(6, 3))
        cfg = DistillConfig(loss_variant="bn")
        bn = BnParams(np.ones(3), np.zeros(3), eps=cfg.bn_eps)
        assert objective(S, T, cfg, bn)[2] == loss_bn(S, T, bn)[0]
