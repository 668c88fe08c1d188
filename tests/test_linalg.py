import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coss.linalg import cosine_top_k, l2_normalize, mean_rowwise_dot, pairwise_cosine, top_k

# zero entries are fine; magnitudes inside (0, eps) are not a meaningful
# embedding scale and break the eps-guard semantics
generic_floats = st.one_of(
    st.just(0.0), st.floats(1e-6, 10), st.floats(-10, -1e-6)
)
finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=generic_floats,
)
positive_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(0.1, 10),
)


class TestL2Normalize:
    def test_pythagorean_row(self):
        out = l2_normalize([[3.0, 4.0]], axis="rows")
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_stays_zero(self):
        out = l2_normalize([[0.0, 0.0]], axis="rows")
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_per_column(self):
        out = l2_normalize([[1.0, 0.0], [0.0, 2.0]], axis="cols")
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite input"):
            l2_normalize([[np.nan, 1.0]])

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            l2_normalize([[1.0]], axis="diag")

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            l2_normalize([[1.0]], eps=0.0)

    @given(finite_matrices)
    def test_idempotent(self, M):
        once = l2_normalize(M)
        twice = l2_normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @given(positive_matrices)
    def test_unit_norms(self, M):
        out = l2_normalize(M, axis="rows")
        np.testing.assert_allclose(
            np.sqrt((out * out).sum(axis=1)), 1.0, atol=1e-12
        )


class TestMeanRowwiseDot:
    def test_identity_rows(self):
        assert mean_rowwise_dot([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]) == 1.0

    def test_orthogonal(self):
        assert mean_rowwise_dot([[1.0, 0.0]], [[0.0, 1.0]]) == 0.0

    def test_plain_dot(self):
        assert mean_rowwise_dot([[0.6, 0.8]], [[1.0, 0.0]]) == pytest.approx(0.6, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mean_rowwise_dot([[1.0, 2.0]], [[1.0], [2.0]])

    @given(finite_matrices, st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_symmetric(self, S, seed):
        T = np.random.default_rng(seed).normal(size=S.shape)
        assert mean_rowwise_dot(S, T) == pytest.approx(mean_rowwise_dot(T, S), abs=1e-12)


class TestPairwiseCosine:
    def test_orthonormal(self):
        np.testing.assert_array_equal(
            pairwise_cosine([[1.0, 0.0], [0.0, 1.0]]), np.eye(2)
        )

    def test_duplicate_rows(self):
        np.testing.assert_allclose(
            pairwise_cosine([[1.0, 0.0], [1.0, 0.0]]), np.ones((2, 2)), atol=1e-15
        )

    def test_45_degrees(self):
        S = pairwise_cosine([[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            S, [[1.0, 0.70710678], [0.70710678, 1.0]], atol=1e-4
        )

    @given(positive_matrices)
    def test_row_scale_invariant(self, M):
        scales = np.linspace(0.5, 3.0, M.shape[0])[:, None]
        np.testing.assert_allclose(
            pairwise_cosine(M * scales), pairwise_cosine(M), atol=1e-12
        )

    @given(finite_matrices)
    def test_symmetric_and_bounded(self, M):
        S = pairwise_cosine(M)
        np.testing.assert_array_equal(S, S.T)
        assert S.min() >= -1.0 and S.max() <= 1.0

    def test_zero_row_diagonal(self):
        S = pairwise_cosine([[0.0, 0.0], [1.0, 2.0]])
        assert S[0, 0] == 0.0
        assert S[1, 1] == 1.0


# few distinct values, so rows are full of exact ties; -inf and -0.0 included
tied_blocks = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 30)),
    elements=st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
)


class TestTopK:
    @given(tied_blocks, st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort(self, sims, data):
        k = data.draw(st.integers(1, sims.shape[1]))
        np.testing.assert_array_equal(
            top_k(sims, k), np.argsort(-sims, axis=1, kind="stable")[:, :k]
        )

    def test_ties_go_to_the_lower_column(self):
        sims = np.array([[0.5, 1.0, 0.5, 1.0, 0.5]])
        np.testing.assert_array_equal(top_k(sims, 3), [[1, 3, 0]])
        np.testing.assert_array_equal(top_k(sims, 1), [[1]])


class TestCosineTopK:
    def ranked(self, Q, G, k, **kwargs):
        return np.concatenate([top for _, top in cosine_top_k(Q, G, k, **kwargs)])

    def test_block_rows_never_change_the_ranking(self):
        rng = np.random.default_rng(7)
        base = l2_normalize(rng.integers(-4, 5, size=(6, 3)).astype(float))
        Q = base[rng.integers(0, 6, size=40)]
        G = base[rng.integers(0, 6, size=25)]
        dense = self.ranked(Q, G, 5, block_rows=len(Q))
        for block_rows in (1, 2, 3, 7, 39):
            np.testing.assert_array_equal(self.ranked(Q, G, 5, block_rows=block_rows), dense)

    def test_exclude_self_bars_the_diagonal(self):
        E = l2_normalize(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(
            self.ranked(E, E, 2, exclude_self=True, block_rows=2), [[1, 2], [0, 2], [0, 1]]
        )

    def test_default_blocks_hold_about_block_sims(self, monkeypatch):
        import coss.linalg

        monkeypatch.setattr(coss.linalg, "BLOCK_SIMS", 30)
        Q = l2_normalize(np.random.default_rng(8).normal(size=(25, 2)))
        starts = [start for start, _ in cosine_top_k(Q, Q[:10], 1)]  # 3 rows of 10
        assert starts == list(range(0, 25, 3))


def test_transpose_involution():
    M = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(M.T.T, M)
