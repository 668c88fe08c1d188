import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coss.linalg
from coss.errors import NumericalError
from coss.knn import build_index
from coss.linalg import (
    TINY_32,
    UNIT_ROUNDOFF,
    _candidates,
    _first_k,
    _screen_margin,
    as_matrix,
    cosine_top_k,
    float32_copy,
    l2_normalize,
    top_k,
)

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


class TestAsMatrix:
    def test_c_float64_input_comes_back_as_itself(self):
        M = np.random.default_rng(1).normal(size=(6, 4))
        assert as_matrix(M) is M

    @pytest.mark.parametrize("make", [
        np.asfortranarray,
        lambda M: M[:, ::2],
        lambda M: M.T,
        lambda M: M.astype(np.float32),
    ])
    def test_any_other_layout_becomes_a_c_ordered_float64_copy(self, make):
        M = make(np.random.default_rng(2).normal(size=(6, 4)))
        A = as_matrix(M)
        assert A.dtype == np.float64 and A.flags.c_contiguous
        assert not np.shares_memory(A, M)
        np.testing.assert_array_equal(A, M)

    def test_c_input_of_the_asked_dtype_comes_back_as_itself(self):
        M = np.random.default_rng(3).normal(size=(6, 4)).astype(np.float32)
        assert as_matrix(M, dtype=np.float32) is M
        assert as_matrix(M.T, dtype=np.float32).flags.c_contiguous


class TestFloat32Copy:
    def test_values_float32_holds_round_to_nearest(self):
        M = np.random.default_rng(4).normal(size=(3, 5))
        out = float32_copy(M, "M")
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, M.astype(np.float32))

    def test_a_value_beyond_float32_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="big has values float32 cannot hold"):
            float32_copy(np.array([1.0, -1e39]), "big")


class TestL2Normalize:
    def test_pythagorean_row(self):
        out = l2_normalize([[3.0, 4.0]])
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_stays_zero(self):
        out = l2_normalize([[0.0, 0.0]])
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite input"):
            l2_normalize([[np.nan, 1.0]])

    @given(finite_matrices)
    def test_idempotent(self, M):
        once = l2_normalize(M)
        twice = l2_normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_fortran_order_rounds_like_c_order(self):
        M = np.random.default_rng(3).normal(size=(40, 17))
        np.testing.assert_array_equal(l2_normalize(np.asfortranarray(M)), l2_normalize(M))

    @given(positive_matrices)
    def test_unit_norms(self, M):
        out = l2_normalize(M)
        np.testing.assert_allclose(
            np.sqrt((out * out).sum(axis=1)), 1.0, atol=1e-12
        )


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

    def test_first_k_keeps_signed_zeros_and_minus_inf_in_column_order(self):
        # candidates in (row, column) order, as _candidates lists them, with
        # uneven counts per row: padding must sort after a row's -inf entries
        inf = np.inf
        rows = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3])
        cols = np.array([0, 2, 3, 5, 1, 4, 6, 0, 1, 2, 3, 4, 0, 1, 2, 6])
        vals = np.array([-0.0, 0.0, -inf, 0.0, -inf, -inf, 1.0, 0.5, -inf, -0.0, 0.5, 0.0,
                         -inf, -inf, -inf, -inf])
        expected = [[0, 2, 5], [6, 1, 4], [0, 3, 2], [0, 1, 2]]
        np.testing.assert_array_equal(_first_k(rows, cols, vals, 4, 3), expected)
        # (-value, column) order: -0.0 == 0.0, so signed zeros tie
        by_key = [sorted(zip(-vals[rows == r], cols[rows == r]))[:3] for r in range(4)]
        assert [[c for _, c in row] for row in by_key] == expected


def mostly_minus_inf(rng, n, k, g):
    """Rows of -inf with at most k + 1 finite entries, so whole groups are -inf.

    The last row keeps its finite entries in the n mod g columns the group
    maxima leave out.
    """
    sims = np.full((8, n), -np.inf)
    for row in sims[:-1]:
        cols = rng.choice(n, size=min(n, int(rng.integers(0, k + 2))), replace=False)
        row[cols] = rng.integers(0, 3, size=len(cols))
    sims[-1, n - n % g :] = rng.integers(0, 3, size=n % g)
    return sims


class TestTopKBound:
    """Only entries at or above a bound from group maxima get sorted; the
    grouping starts to matter once a row is wider than max(8k, 128) columns."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 17])
    def test_equals_stable_argsort_across_group_counts(self, k):
        rng = np.random.default_rng(k)
        g = max(8 * k, 128)
        widths = {
            k, k + 1, 8 * k - 1, 8 * k, 8 * k + 1, g - 1, g, g + 1, 2 * g + 3, 300,
            *rng.integers(k, 301, size=10).tolist(),
        }
        for n in sorted(widths):
            blocks = [
                rng.normal(size=(8, n)),
                # few distinct values: rows full of exact ties
                rng.integers(0, 3, size=(8, n)).astype(float),
                np.zeros((2, n)),
                mostly_minus_inf(rng, n, k, min(n, g)),
            ]
            for sims in blocks:
                np.testing.assert_array_equal(
                    top_k(sims, k), np.argsort(-sims, axis=1, kind="stable")[:, :k], err_msg=f"n={n}"
                )


class TestCosineTopK:
    def test_block_rows_never_change_the_ranking(self, monkeypatch):
        rng = np.random.default_rng(7)
        base = l2_normalize(rng.integers(-4, 5, size=(6, 3)).astype(float))
        Q = base[rng.integers(0, 6, size=40)]
        G = base[rng.integers(0, 6, size=25)]
        dense = cosine_top_k(Q, G, 5)  # one block
        for rows in (1, 2, 3, 7, 39):
            monkeypatch.setattr(coss.linalg, "BLOCK_ROWS", rows)
            np.testing.assert_array_equal(cosine_top_k(Q, G, 5), dense)

    def test_exclude_self_bars_the_diagonal(self, monkeypatch):
        monkeypatch.setattr(coss.linalg, "BLOCK_ROWS", 2)
        E = l2_normalize(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(
            cosine_top_k(E, E, 2, exclude_self=True), [[1, 2], [0, 2], [0, 1]]
        )

    def test_returns_one_int64_row_per_query(self):
        rng = np.random.default_rng(9)
        Q, G = l2_normalize(rng.normal(size=(13, 4))), l2_normalize(rng.normal(size=(7, 4)))
        top = cosine_top_k(Q, G, 3)
        assert isinstance(top, np.ndarray)
        assert (top.shape, top.dtype) == ((13, 3), np.int64)

    def test_default_blocks_hold_about_block_sims(self, monkeypatch):
        Q = l2_normalize(np.random.default_rng(8).normal(size=(25, 2)))
        first_k = coss.linalg._first_k

        def block_rows():
            rows = []

            def recording(r, c, v, m, k):
                rows.append(m)
                return first_k(r, c, v, m, k)

            monkeypatch.setattr(coss.linalg, "_first_k", recording)
            cosine_top_k(Q, Q[:10], 1)
            return rows

        monkeypatch.setattr(coss.linalg, "BLOCK_SIMS", 30)
        assert block_rows() == [3] * 8 + [1]  # 3 rows of 10
        monkeypatch.setattr(coss.linalg, "BLOCK_ROWS", 2)
        assert block_rows() == [2] * 12 + [1]


def dense_ranking(Q, G, k, exclude_self=False):
    """The definition cosine_top_k must equal: one dense einsum, one stable argsort."""
    sims = np.einsum("id,jd->ij", Q, G)
    if exclude_self:
        np.fill_diagonal(sims, -np.inf)
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


class TestBlasScreen:
    """The BLAS screen keeps every row einsum ranks, so the output is the einsum ranking."""

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("d", [1, 3, 17, 256])
    def test_equals_the_dense_einsum_ranking(self, d, exclude_self, monkeypatch):
        rng = np.random.default_rng(d)
        for _ in range(4):
            # small integer rows, many of them exact copies, some parallel
            base = rng.integers(-2, 3, size=(int(rng.integers(2, 12)), d)).astype(float)
            X = base[rng.integers(0, len(base), size=60)] * rng.integers(1, 3, size=(60, 1))
            E = l2_normalize(X)
            G = E if exclude_self else E[rng.permutation(60)[:45]]
            k = int(rng.integers(1, 21))
            expected = dense_ranking(E, G, k, exclude_self)
            for rows in (1, 7, 32, 60):
                monkeypatch.setattr(coss.linalg, "BLOCK_ROWS", rows)
                np.testing.assert_array_equal(cosine_top_k(E, G, k, exclude_self=exclude_self), expected)
            # a full ranking puts the barred self pair last, as the dense one does
            n_g = len(G)
            monkeypatch.setattr(coss.linalg, "BLOCK_ROWS", 7)
            np.testing.assert_array_equal(
                cosine_top_k(E, G, n_g, exclude_self=exclude_self),
                dense_ranking(E, G, n_g, exclude_self),
            )

    def test_all_duplicate_rows_stay_within_the_dense_memory(self):
        rng = np.random.default_rng(4)
        # copies of 3 vectors: every row ties with a third of the gallery, and
        # gathering those candidates' 16-D rows would outweigh the dense block
        E = l2_normalize(rng.normal(size=(3, 16))[rng.integers(0, 3, size=1000)])
        expected = dense_ranking(E, E, 16, exclude_self=True)

        tracemalloc.start()
        try:
            # the dense path: one einsum block and one top_k at a time
            for start in range(0, len(E), 256):
                sims = np.einsum("id,jd->ij", E[start : start + 256], E)
                sims[np.arange(len(sims)), np.arange(start, start + len(sims))] = -np.inf
                top_k(sims, 16)
                del sims
            dense_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            got = cosine_top_k(E, E, 16, exclude_self=True)  # 256-row blocks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        np.testing.assert_array_equal(got, expected)
        assert peak <= 1.5 * dense_peak, (peak, dense_peak)

    def test_screen_keeps_few_candidates_per_row(self):
        # a float64 BLAS screen of build_index's rows in 256-row blocks (the
        # float32 one cosine_top_k runs is TestFloat32Screen's): the bound from
        # 128 group maxima keeps about 17 per row at k = 16, one from 32 maxima
        # about 21.6
        n, k, d, block = 4000, 16, 16, 256
        E = l2_normalize(np.random.default_rng(16).normal(size=(n, d)))
        gamma = d * UNIT_ROUNDOFF / (1 - d * UNIT_ROUNDOFF)
        kept = 0
        for start in range(0, n, block):
            approx = E[start : start + block] @ E.T
            approx[np.arange(len(approx)), np.arange(start, start + len(approx))] = -np.inf
            kept += len(_candidates(approx, k, 4 * gamma)[0])
        assert kept / n <= 1.25 * k, kept / n

    def test_build_index_holds_little_more_than_one_block(self):
        # one 256 x n float64 BLAS block, and no copy of it for a partition
        n = 4000
        X = np.random.default_rng(17).normal(size=(n, 16))
        tracemalloc.start()
        try:
            build_index(X, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = 256 * n * 8
        assert peak <= 1.5 * block_bytes, peak / block_bytes

    def test_large_build_index_blocks_hold_about_block_sims(self):
        # at 20k rows a 256-row block would be 41 MB; BLOCK_SIMS caps it at 8 MB
        X = np.random.default_rng(18).normal(size=(20_000, 16))
        tracemalloc.start()
        try:
            build_index(X, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * coss.linalg.BLOCK_SIMS * 8, peak / 2**20

    @pytest.mark.parametrize("d", [1, 3, 16, 17, 64, 256])
    def test_gathered_einsum_rounds_like_the_dense_one(self, d):
        # the screen recomputes candidates one pair at a time and relies on
        # this to equal the dense block bit for bit
        rng = np.random.default_rng(d)
        Q = l2_normalize(rng.normal(size=(30, d)))
        G = l2_normalize(rng.normal(size=(40, d)))
        rows = rng.integers(0, 30, size=500)
        cols = rng.integers(0, 40, size=500)
        np.testing.assert_array_equal(
            np.einsum("id,id->i", Q[rows], G[cols]), np.einsum("id,jd->ij", Q, G)[rows, cols]
        )


def screen_stress_rows(rng, n, d, k):
    """n rows of norm about 1 that stress the float32 screen of row 0's ranking.

    - ``l2_normalize`` outputs, those of norm above 1 first;
    - a cluster of rows whose cosines with row 0 lie an eighth of a margin
      apart, over more than 4k of them, so that around row 0's k-th value
      some fall just inside the margin and some just outside;
    - copies of rows that differ from them in their last float64 bits, so
      that they tie in float32 but not in float64;
    - rows float32 holds exactly, and rows the cast to float32 moves by
      almost half a float32 spacing in every component;
    - components, or whole rows, below float32's smallest normal number.
    """
    margin = _screen_margin(d)
    pool = l2_normalize(rng.normal(size=(4 * n, d)))
    norms = np.sqrt(np.einsum("ij,ij->i", pool, pool))
    rows = [pool[np.argsort(norms <= 1, kind="stable")[:n]]]
    if d > 1:
        a = rows[0][0]
        v = rng.normal(size=(4 * k + 8, d))
        v = l2_normalize(v - np.outer(v @ a, a))
        c = rng.uniform(0.5, 1 - 4 * margin)
        t = c + margin / 8 * np.arange(8 - len(v), 8)
        rows.append(l2_normalize(t[:, None] * a + np.sqrt(1 - t * t)[:, None] * v))
    X = np.concatenate(rows)[rng.permutation(n + (4 * k + 8 if d > 1 else 0))[:n]]
    X[0] = rows[0][0]
    # last-bit near duplicates of other rows
    for i in rng.integers(0, n, size=n // 4):
        j = int(rng.integers(0, n))
        ulps = rng.integers(-2, 3, size=d)
        X[i] = X[j] + ulps * np.spacing(X[j])
    # rows that float32 holds exactly, and rows whose every component the
    # cast moves by almost half a float32 spacing, the most it can
    X32 = X.astype(np.float32)
    for i in rng.integers(0, n, size=n // 4):
        X[i] = X32[i]
    for i in rng.integers(0, n, size=n // 4):
        up = np.nextafter(X32[i], np.float32(np.inf)).astype(np.float64)
        X[i] = X32[i] + 0.4995 * (up - X32[i])
    # components and rows below 2^-126
    tiny = TINY_32 * np.array([0.75, 2.0**-10, 2.0**-23, 2.0**-30, 1e-300 / TINY_32])
    for i in rng.integers(1, n, size=n // 8):
        X[i, rng.integers(0, d, size=max(1, d // 4))] = rng.choice(tiny) * rng.choice([-1, 1])
    X[rng.integers(1, n, size=2)] = rng.choice(tiny) * rng.normal(size=(2, d))
    return X


class TestFloat32Screen:
    """The float32 screen keeps every column the float64 einsum ranks in the top k."""

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("k", [1, 5, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 16, 64, 257])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(17, 300), n_q=st.integers(1, 40))
    @settings(max_examples=12, deadline=None)
    def test_equals_the_dense_einsum_ranking(self, d, k, exclude_self, seed, n, n_q):
        rng = np.random.default_rng(seed)
        G = screen_stress_rows(rng, n, d, k)
        if exclude_self:
            Q = G
        else:
            # row 0, its near duplicates and a few others, as queries
            Q = G[np.concatenate([[0], rng.integers(0, n, size=n_q)])]
            Q[1::2] += rng.integers(-1, 2, size=Q[1::2].shape) * np.spacing(Q[1::2])
        np.testing.assert_array_equal(
            cosine_top_k(Q, G, k, exclude_self=exclude_self), dense_ranking(Q, G, k, exclude_self)
        )

    def test_screen_keeps_few_candidates_per_row(self):
        # build_index's float32 screen at k = 16: about 17 candidates per row,
        # as many as the float64 screen kept
        n, k, d = 4000, 16, 16
        E = l2_normalize(np.random.default_rng(16).normal(size=(n, d)))
        E32 = E.astype(np.float32)
        step = coss.linalg.BLOCK_SIMS // n
        kept = 0
        for start in range(0, n, step):
            approx = E32[start : start + step] @ E32.T
            approx[np.arange(len(approx)), np.arange(start, start + len(approx))] = -np.inf
            kept += len(_candidates(approx, k, _screen_margin(d))[0])
        assert kept / n <= 1.25 * k, kept / n


def test_transpose_involution():
    M = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(M.T.T, M)
