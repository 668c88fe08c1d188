"""Dataset container, epoch batching, neighbour-enhanced composition, noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coss.data import Dataset, augment, compose_batch, epoch_batches
from coss.knn import NeighborIndex


def ring_index(n=6):
    # row i holds (i+2) % n and (i+5) % n: valid, self-free, duplicate-free
    return NeighborIndex((np.arange(n)[:, None] + np.array([2, 5])) % n)


class TestDataset:
    def test_inputs_coerced_to_float64(self):
        ds = Dataset(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert ds.inputs.dtype == np.float64
        assert (ds.n, ds.dim) == (2, 2)

    def test_label_length_must_match(self):
        with pytest.raises(ValueError, match="labels length"):
            Dataset(np.zeros((3, 2)), labels=[0, 1])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dataset(np.zeros((2, 2)), labels=[0, -1])

    def test_without_labels_strips_only_labels(self):
        ds = Dataset(np.ones((2, 3)), labels=[4, 5])
        bare = ds.without_labels()
        assert bare.labels is None
        np.testing.assert_array_equal(bare.inputs, ds.inputs)

    def test_equality_covers_labels(self):
        a = Dataset(np.ones((2, 2)), labels=[0, 1])
        assert a == Dataset(np.ones((2, 2)), labels=[0, 1])
        assert a != Dataset(np.ones((2, 2)))
        assert a != Dataset(np.ones((2, 2)), labels=[1, 1])


class TestEpochBatches:
    def test_even_split_covers_every_index_once(self):
        batches = epoch_batches(4, 2, np.random.default_rng(0))
        assert [len(b) for b in batches] == [2, 2]
        assert sorted(np.concatenate(batches)) == [0, 1, 2, 3]

    def test_final_short_batch_kept(self):
        batches = epoch_batches(5, 2, np.random.default_rng(0))
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_seeded_determinism(self):
        a = epoch_batches(10, 3, np.random.default_rng(7))
        b = epoch_batches(10, 3, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_sample_anchors_exactly_once(self, n, b, seed):
        if b > n:
            b = n
        batches = epoch_batches(n, b, np.random.default_rng(seed))
        flat = np.concatenate(batches)
        assert sorted(flat) == list(range(n))


class TestComposeBatch:
    def test_zero_neighbours_reproduces_plain_batch(self):
        anchors = np.array([3, 1])
        batch = compose_batch(anchors, ring_index(), 0, np.random.default_rng(0))
        np.testing.assert_array_equal(batch, anchors)
        assert batch is not anchors

    def test_exhaustive_pool_is_a_permutation(self):
        batch = compose_batch(np.array([0]), ring_index(), 2, np.random.default_rng(0))
        assert batch[0] == 0
        assert sorted(batch[1:]) == [2, 5]

    def test_layout_anchors_first_then_neighbour_blocks(self):
        idx = ring_index(n=10)
        anchors = np.array([4, 7, 1])
        k = 2
        batch = compose_batch(anchors, idx, k, np.random.default_rng(5))
        assert len(batch) == len(anchors) * (1 + k)
        np.testing.assert_array_equal(batch[: len(anchors)], anchors)
        blocks = batch[len(anchors) :].reshape(len(anchors), k)
        for anchor, block in zip(anchors, blocks):
            assert set(block) <= set(idx.neighbors[anchor])

    @given(st.integers(0, 2), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_indices_stay_in_range(self, k, seed):
        idx = ring_index(n=8)
        rng = np.random.default_rng(seed)
        anchors = rng.permutation(8)[:4]
        batch = compose_batch(anchors, idx, k, rng)
        assert batch.min() >= 0
        assert batch.max() < 8


class TestAugment:
    def test_seeded_determinism(self):
        X = np.zeros((4, 4))
        a = augment(X, 0.3, np.random.default_rng(9))
        b = augment(X, 0.3, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_noise_mean_within_three_sigma_band(self):
        X = np.zeros((1000, 100))
        sigma = 0.7
        noise = augment(X, sigma, np.random.default_rng(21)) - X
        assert abs(noise.mean()) < 3 * sigma / np.sqrt(noise.size)

    def test_noise_scale_tracks_sigma(self):
        X = np.zeros((1000, 100))
        noise = augment(X, 0.05, np.random.default_rng(3))
        assert abs(noise.std() - 0.05) < 0.001
