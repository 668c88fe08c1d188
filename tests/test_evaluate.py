"""k-NN vote, linear probe, retrieval recall, and alignment diagnostics."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coss.evaluate
import coss.linalg
from coss.errors import NumericalError
from coss.benchmark import (benchmark_split, make_benchmark_dataset, make_benchmark_teacher,
                            model_accuracy)
from coss.evaluate import (
    _fit_probe,
    alignment_diagnostics,
    holdout_split,
    knn_classify,
    knn_predict,
    linear_probe,
    recall_at_k,
)
from coss.knn import build_index
from coss.losses import loss_co, loss_ss
from coss.models import forward

from conftest import brute_cosine, distinct_directions, reference_probe_weights


def brute_vote(train_emb, train_labels, q, k):
    """Explicit-loop k-NN vote: sort by (-cosine, index), min label on ties."""
    scored = sorted(
        (( -brute_cosine(q, e), i) for i, e in enumerate(train_emb)),
    )
    top = [train_labels[i] for _, i in scored[:k]]
    counts = {}
    for label in top:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    return min(label for label, c in counts.items() if c == best)


def brute_recall(query_emb, gallery_emb, query_labels, gallery_labels, K):
    hits = 0
    for q, ql in zip(query_emb, query_labels):
        scored = sorted(
            ((-brute_cosine(q, g), j) for j, g in enumerate(gallery_emb)),
        )
        if any(gallery_labels[j] == ql for _, j in scored[:K]):
            hits += 1
    return hits / len(query_emb)


def tied_embeddings(seed, n_query, n_gallery, n_base=6, dim=3):
    """Integer rows drawn from a few distinct ones, so exact duplicates tie."""
    rng = np.random.default_rng(seed)
    base = distinct_directions(n_base, dim, rng)
    return (
        base[rng.integers(0, n_base, size=n_query)],
        base[rng.integers(0, n_base, size=n_gallery)],
        rng.integers(0, 3, size=n_query),
        rng.integers(0, 3, size=n_gallery),
    )


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of a few query rows, so every call crosses block boundaries."""
    monkeypatch.setattr(coss.linalg, "BLOCK_SIMS", 100)


class TestKnnClassify:
    def test_exact_train_point_recovers_its_label(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        labels = [4, 2, 7]
        pred = knn_predict(train, labels, [[0.0, 1.0]], k_eval=1)
        assert pred.tolist() == [2]

    def test_separated_clusters_are_perfect(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 3)) * 0.05 + np.array([10.0, 0.0, 0.0])
        b = rng.normal(size=(20, 3)) * 0.05 + np.array([0.0, 10.0, 0.0])
        train = np.vstack([a[:15], b[:15]])
        labels = [0] * 15 + [1] * 15
        test = np.vstack([a[15:], b[15:]])
        truth = [0] * 5 + [1] * 5
        for k_eval in (1, 5, 15):
            assert knn_classify(train, labels, test, truth, k_eval) == 1.0

    def test_matches_brute_force_vote(self):
        rng = np.random.default_rng(17)
        train = rng.normal(size=(20, 4))
        labels = rng.integers(0, 2, size=20).tolist()
        test = rng.normal(size=(8, 4))
        pred = knn_predict(train, labels, test, k_eval=3)
        expect = [brute_vote(train, labels, q, 3) for q in test]
        assert pred.tolist() == expect

    def test_vote_tie_breaks_to_lower_class_id(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0]])
        pred = knn_predict(train, [1, 0], [[1.0, 1.0]], k_eval=2)
        assert pred.tolist() == [0]

    def test_neighbour_tie_breaks_to_lower_train_index(self):
        train = np.array([[1.0, 0.0], [1.0, 0.0]])
        pred = knn_predict(train, [5, 2], [[2.0, 0.0]], k_eval=1)
        assert pred.tolist() == [5]

    def test_k_eval_clamped_to_train_size(self):
        train = np.array([[1.0, 0.0], [0.9, 0.1]])
        pred = knn_predict(train, [3, 3], [[1.0, 0.0]], k_eval=50)
        assert pred.tolist() == [3]

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="train_emb must have at least one row"):
            knn_predict(np.zeros((0, 2)), [], [[1.0, 0.0]], k_eval=1)

    def test_negative_train_label_rejected_even_if_never_voted(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="train labels must be nonnegative"):
            knn_predict(train, [-1, 0], [[0.0, 1.0]], k_eval=1)

    def test_test_labels_checked_before_the_vote(self, monkeypatch):
        def no_vote(*args, **kwargs):
            raise AssertionError("voted before checking the test labels")

        monkeypatch.setattr(coss.evaluate, "knn_predict", no_vote)
        with pytest.raises(ValueError, match="labels length must equal test size"):
            knn_classify(np.eye(2), [0, 1], np.eye(2), [0], k_eval=1)

    def test_nonpositive_k_eval_rejected(self):
        with pytest.raises(ValueError, match="k_eval"):
            knn_predict(np.eye(2), [0, 1], [[1.0, 0.0]], k_eval=0)

    @given(st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_invariant_to_positive_row_scaling(self, seed):
        rng = np.random.default_rng(seed)
        train = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        test = rng.normal(size=(5, 3))
        base = knn_predict(train, labels, test, k_eval=3)
        scaled = knn_predict(
            train * rng.uniform(0.1, 10.0, size=(12, 1)),
            labels,
            test * rng.uniform(0.1, 10.0, size=(5, 1)),
            k_eval=3,
        )
        assert base.tolist() == scaled.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_across_blocks_match_brute_force_vote(self, seed, small_blocks):
        query, train, _, labels = tied_embeddings(seed, 45, 30)
        for k_eval in (1, 4, 7):
            pred = knn_predict(train, labels, query, k_eval)
            expect = [brute_vote(train, labels.tolist(), q, k_eval) for q in query]
            assert pred.tolist() == expect

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_train_rows_tie_wherever_they_sit(self, seed):
        # 235 train rows is no multiple of a BLAS kernel's tile width; a
        # matmul can round a duplicate in the edge tile apart from its twin
        query, train, _, labels = tied_embeddings(seed, 100, 235, n_base=8, dim=4)
        pred = knn_predict(train, labels, query, k_eval=1)
        assert pred.tolist() == [brute_vote(train, labels.tolist(), q, 1) for q in query]

    def test_block_size_never_changes_predictions(self, monkeypatch):
        query, train, _, labels = tied_embeddings(9, 60, 40)
        dense = knn_predict(train, labels, query, k_eval=5)  # one block
        for block_sims in (1, 40, 130):
            monkeypatch.setattr(coss.linalg, "BLOCK_SIMS", block_sims)
            np.testing.assert_array_equal(knn_predict(train, labels, query, k_eval=5), dense)


class TestHoldoutSplit:
    @pytest.mark.parametrize("n", [1, 2, 7, 20, 1000])
    def test_partition_holds_out_a_fifth(self, n):
        train, test = holdout_split(n, 3)
        assert len(test) == max(1, round(n / 5))
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(n))

    def test_benchmark_split_keeps_its_bytes(self):
        # SHA-256 of benchmark_split() as it was before it shared holdout_split
        train, test = benchmark_split()
        assert hashlib.sha256(train.tobytes() + test.tobytes()).hexdigest() == (
            "4cbfb70e4afb80b0f3a0b74ec81b2bdbcb516c662ab39a12deccf389be03a854"
        )
        for got, want in zip(holdout_split(1000, 415), (train, test)):
            np.testing.assert_array_equal(got, want)

    def test_knn_accuracy_scores_the_held_out_rows(self):
        dataset, teacher = make_benchmark_dataset(), make_benchmark_teacher()
        emb, labels = forward(teacher, dataset.inputs)[0], dataset.labels
        train, test = holdout_split(1000, 415)
        want = knn_classify(emb[train], labels[train], emb[test], labels[test], 3)
        assert model_accuracy(teacher, dataset, k_eval=3) == want


class TestLinearProbe:
    def separable_blobs(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(60, 4)) + np.array([4.0, 0, 0, 0])
        b = rng.normal(size=(60, 4)) - np.array([4.0, 0, 0, 0])
        X = np.vstack([a, b])
        y = np.array([0] * 60 + [1] * 60)
        return X, y

    def test_separable_blobs_fit(self):
        X, y = self.separable_blobs()
        acc = linear_probe(X[::2], y[::2], X[1::2], y[1::2])
        assert acc >= 0.99

    def test_random_labels_sit_at_chance(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(200, 8))
        y = rng.permutation([0] * 100 + [1] * 100)
        Xt = rng.normal(size=(200, 8))
        yt = rng.permutation([0] * 100 + [1] * 100)
        acc = linear_probe(X, y, Xt, yt)
        assert abs(acc - 0.5) <= 0.1

    def test_deterministic_per_seed(self):
        X, y = self.separable_blobs()
        a = linear_probe(X, y, X, y, seed=3)
        b = linear_probe(X, y, X, y, seed=3)
        assert a == b

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            linear_probe(np.eye(3), [1, 1, 1], np.eye(3), [1, 1, 1])

    def test_noncontiguous_class_ids(self):
        X, y = self.separable_blobs()
        acc = linear_probe(X, np.where(y == 0, 2, 9), X, np.where(y == 0, 2, 9))
        assert acc >= 0.99

    @pytest.mark.parametrize("seed", range(10))
    def test_weights_match_the_reference_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng([seed, 16])
        for i in range(10):
            n = int(rng.integers(2, 4001 if i == 0 else 300))
            d, C = int(rng.integers(1, 65)), int(rng.integers(2, 41))
            epochs, lr = int(rng.integers(0, 51)), float(10 ** rng.uniform(-2, 1))
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
            y = rng.integers(0, C, size=n) * 3 - 5  # class ids need be neither contiguous nor >= 0
            classes, t = np.unique(y, return_inverse=True)
            if classes.size < 2:
                continue
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                W = _fit_probe(X, t, classes.size, epochs, lr, seed)
                want = reference_probe_weights(X, y, epochs, lr, seed)
            assert W.tobytes() == want.tobytes(), (n, d, C, epochs, lr)

    def test_test_labels_must_match_test_rows(self):
        X, y = self.separable_blobs()
        with pytest.raises(ValueError, match="labels length must equal test size"):
            linear_probe(X, y, X[:50], [1])

    def test_train_labels_must_match_train_rows(self):
        X, y = self.separable_blobs()
        with pytest.raises(ValueError, match="labels length must equal train size"):
            linear_probe(X, y[:-1], X, y)

    def test_test_width_checked_before_training(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("trained before checking the test width")

        monkeypatch.setattr(coss.evaluate, "_fit_probe", no_fit)
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(800, 8)), np.arange(800) % 4
        with pytest.raises(ValueError, match="shape mismatch"):
            linear_probe(X, y, rng.normal(size=(50, 7)), np.arange(50) % 4)

    def test_diverged_fit_is_a_numerical_error(self):
        X, y = self.separable_blobs()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="diverged"):
            linear_probe(X * 1e200, y, X, y, lr=1e300)


class TestRecallAtK:
    def test_duplicated_pairs_retrieve_each_other(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(10, 4))
        emb = np.repeat(base, 2, axis=0)
        labels = np.repeat(np.arange(10), 2)
        assert recall_at_k(emb, emb, labels, labels, K=1, exclude_self=True) == 1.0

    def test_disjoint_labels_never_hit(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(5, 3))
        g = rng.normal(size=(7, 3))
        assert recall_at_k(q, g, [0] * 5, [1] * 7, K=7) == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        q = rng.normal(size=(9, 5))
        g = rng.normal(size=(13, 5))
        ql = rng.integers(0, 3, size=9).tolist()
        gl = rng.integers(0, 3, size=13).tolist()
        for K in (1, 3, 6):
            assert recall_at_k(q, g, ql, gl, K) == pytest.approx(
                brute_recall(q, g, ql, gl, K)
            )

    def test_monotone_in_K(self):
        rng = np.random.default_rng(31)
        q = rng.normal(size=(12, 4))
        g = rng.normal(size=(20, 4))
        ql = rng.integers(0, 4, size=12)
        gl = rng.integers(0, 4, size=20)
        values = [recall_at_k(q, g, ql, gl, K) for K in range(1, 21)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(40)
        q = rng.normal(size=(6, 3))
        g = rng.normal(size=(11, 3))
        ql = rng.integers(0, 2, size=6)
        gl = rng.integers(0, 2, size=11)
        base = recall_at_k(q, g, ql, gl, K=2)
        scaled = recall_at_k(
            q * rng.uniform(0.5, 2.0, size=(6, 1)),
            g * rng.uniform(0.5, 2.0, size=(11, 1)),
            ql,
            gl,
            K=2,
        )
        assert base == scaled

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError, match="gallery_emb must have at least one row"):
            recall_at_k(np.ones((1, 2)), np.zeros((0, 2)), [0], [], K=1)

    def test_query_labels_must_match_query_rows(self):
        X = np.random.default_rng(7).normal(size=(50, 3))
        y = np.arange(50) % 4
        with pytest.raises(ValueError, match="labels length must equal query size"):
            recall_at_k(X, X, [1], y)

    def test_gallery_labels_must_match_gallery_rows(self):
        X = np.random.default_rng(7).normal(size=(50, 3))
        y = np.arange(50) % 4
        with pytest.raises(ValueError, match="labels length must equal gallery size"):
            recall_at_k(X, X, y, y[:-1])

    def test_query_width_must_match_gallery_width(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            recall_at_k(np.ones((3, 4)), np.ones((5, 3)), [0] * 3, [0] * 5)

    def test_exclude_self_needs_matching_sizes(self):
        with pytest.raises(ValueError, match="equal size"):
            recall_at_k(
                np.ones((2, 2)), np.ones((3, 2)), [0, 0], [0, 0, 0],
                K=1, exclude_self=True,
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_across_blocks_match_brute_force_oracle(self, seed, small_blocks):
        query, gallery, ql, gl = tied_embeddings(seed, 45, 30)
        for K in (1, 3, 8):
            assert recall_at_k(query, gallery, ql, gl, K) == brute_recall(
                query, gallery, ql.tolist(), gl.tolist(), K
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_gallery_rows_tie_wherever_they_sit(self, seed):
        query, gallery, ql, gl = tied_embeddings(seed, 100, 235, n_base=8, dim=4)
        assert recall_at_k(query, gallery, ql, gl, 1) == brute_recall(
            query, gallery, ql.tolist(), gl.tolist(), 1
        )

    def test_exclude_self_across_blocks(self, small_blocks):
        _, emb, _, labels = tied_embeddings(3, 0, 40)
        for K in (1, 5):
            hits = 0
            for i in range(40):
                # brute force over the others; j keeps the gallery index for ties
                scored = sorted((-brute_cosine(emb[i], emb[j]), j) for j in range(40) if j != i)
                hits += any(labels[j] == labels[i] for _, j in scored[:K])
            assert recall_at_k(emb, emb, labels, labels, K, exclude_self=True) == hits / 40

    def test_block_size_never_changes_recall(self, monkeypatch):
        query, gallery, ql, gl = tied_embeddings(10, 60, 40)

        def recalls():
            return [recall_at_k(query, gallery, ql, gl, K) for K in (1, 2, 5)] + [
                recall_at_k(gallery, gallery, gl, gl, 3, exclude_self=True)
            ]

        dense = recalls()  # one block
        for block_sims in (1, 40, 130):
            monkeypatch.setattr(coss.linalg, "BLOCK_SIMS", block_sims)
            assert recalls() == dense

    def test_memory_stays_far_below_a_dense_matrix(self):
        n = 4000
        emb = np.random.default_rng(12).normal(size=(n, 16))
        labels = np.arange(n) % 10
        tracemalloc.start()
        try:
            recall_at_k(emb, emb, labels, labels, 1, exclude_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n  # an eighth of one dense n x n float64 array


def test_fortran_order_never_changes_a_ranking():
    rng = np.random.default_rng(13)
    for _ in range(5):
        # near-duplicate rows, whose order is decided in the last bits
        base = rng.normal(size=(4, 12))
        X = base[rng.integers(0, 4, size=60)] + rng.normal(size=(60, 12)) * 1e-13
        F = np.asfortranarray(X)
        labels = rng.integers(0, 3, size=60)
        assert build_index(F, 8) == build_index(X, 8)
        np.testing.assert_array_equal(
            knn_predict(F[:40], labels[:40], F[40:], 5), knn_predict(X[:40], labels[:40], X[40:], 5)
        )
        assert recall_at_k(F, F, labels, labels, 1, exclude_self=True) == recall_at_k(
            X, X, labels, labels, 1, exclude_self=True
        )


class TestAlignmentDiagnostics:
    def test_global_scale(self):
        rng = np.random.default_rng(2)
        T = rng.normal(size=(10, 4))
        diag = alignment_diagnostics(3.0 * T, T)
        np.testing.assert_allclose(diag.per_dim_cosine, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(diag.per_dim_scale, np.full(4, 3.0), rtol=1e-12)

    def test_per_dimension_scale(self):
        rng = np.random.default_rng(3)
        T = rng.normal(size=(8, 2))
        S = T * np.array([2.0, 5.0])
        diag = alignment_diagnostics(S, T)
        np.testing.assert_allclose(diag.per_dim_cosine, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(diag.per_dim_scale, [2.0, 5.0], rtol=1e-12)

    def test_mean_row_cosine_is_negated_row_loss(self):
        # and the per-dimension cosines are the terms -loss_ss averages, bit for bit
        for seed in range(50):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(8, 40)), int(rng.integers(1, 17)))
            S = rng.normal(size=shape) * rng.uniform(0.01, 100.0, size=(shape[0], 1))
            T = rng.normal(size=shape)
            diag = alignment_diagnostics(S, T)
            # independent columns: no cosine comes near the clip at +-1
            assert np.all(np.abs(diag.per_dim_cosine) < 0.999)
            assert diag.mean_row_cosine == -loss_co(S, T)
            assert float(np.mean(diag.per_dim_cosine)) == -loss_ss(S, T)

    def test_zero_columns_report_zero(self):
        S = np.array([[0.0, 1.0], [0.0, 2.0]])
        T = np.array([[1.0, 1.0], [1.0, 2.0]])
        diag = alignment_diagnostics(S, T)
        assert diag.per_dim_cosine[0] == 0.0
        assert diag.per_dim_scale[0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            alignment_diagnostics(np.ones((2, 2)), np.ones((3, 2)))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(-50, 50),
        ).flatmap(
            lambda S: st.tuples(
                st.just(S),
                arrays(np.float64, st.just(S.shape), elements=st.floats(-50, 50)),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_field_ranges(self, pair):
        S, T = pair
        diag = alignment_diagnostics(S, T)
        assert np.all(diag.per_dim_cosine >= -1.0)
        assert np.all(diag.per_dim_cosine <= 1.0)
        assert np.all(diag.per_dim_scale >= 0.0)
