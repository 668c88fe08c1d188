from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coss.linalg
from conftest import brute_topk_neighbors, distinct_directions
from coss import io
from coss.knn import NeighborIndex, build_index, sample_neighbors


class TestBuildIndex:
    def test_three_sample_ranking(self):
        # checked against the O(N^2) loop oracle
        idx = build_index([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], pool=1)
        np.testing.assert_array_equal(idx.neighbors, [[1], [0], [1]])

    def test_all_tie_one_hot(self):
        idx = build_index(np.eye(4), pool=2)
        np.testing.assert_array_equal(
            idx.neighbors, [[1, 2], [0, 2], [0, 1], [0, 1]]
        )

    def test_two_samples(self):
        idx = build_index([[1.0, 0.0], [0.5, 0.5]], pool=1)
        np.testing.assert_array_equal(idx.neighbors, [[1], [0]])

    def test_pool_too_large(self):
        with pytest.raises(ValueError, match="pool too large"):
            build_index(np.eye(3), pool=3)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 24), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, dim))
        # inject exact duplicates so tie-breaking is actually exercised
        emb[n // 2] = emb[0]
        pool = min(4, n - 1)
        idx = build_index(emb, pool)
        np.testing.assert_array_equal(idx.neighbors, brute_topk_neighbors(emb, pool))

    def test_row_scale_invariant(self):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(12, 4))
        scaled = emb * rng.uniform(0.1, 9.0, size=(12, 1))
        assert build_index(emb, 3) == build_index(scaled, 3)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_ties_across_blocks_match_brute_force(self, seed, n, rows_per_block):
        rng = np.random.default_rng(seed)
        # copies of a few distinct rows, so most rows have exact duplicates
        emb = distinct_directions(4, 2, rng)[rng.integers(0, 4, size=n)]
        pool = min(5, n - 1)
        with mock.patch.object(coss.linalg, "BLOCK_ROWS", rows_per_block):
            idx = build_index(emb, pool)
        np.testing.assert_array_equal(idx.neighbors, brute_topk_neighbors(emb, pool))

    def test_blockwise_matches_dense(self, monkeypatch):
        emb = np.random.default_rng(11).normal(size=(40, 6))
        dense = build_index(emb, 5)  # one block
        monkeypatch.setattr(coss.linalg, "BLOCK_ROWS", 7)
        assert build_index(emb, 5) == dense


class TestNeighborIndexInvariants:
    def test_rejects_self_reference(self):
        with pytest.raises(ValueError, match="own sample index"):
            NeighborIndex([[0], [0], [0]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            NeighborIndex([[1, 1], [0, 2], [0, 1]])

    def test_rejects_duplicate_apart_in_a_later_row(self):
        with pytest.raises(ValueError, match="duplicate"):
            NeighborIndex([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 2, 0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            NeighborIndex([[5], [0], [0]])

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="pool ≥ 1"):
            NeighborIndex(np.empty((3, 0), dtype=np.int64))

    def test_rejects_an_array_that_is_not_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            NeighborIndex([1, 0])

    def test_n_and_pool_are_the_shape(self):
        index = NeighborIndex([[1, 2], [2, 0], [0, 1]])
        assert (index.n, index.pool) == (3, 2)


def per_anchor_draw(index, anchors, k, rng):
    """The reference: one ``rng.permutation(pool)[:k]`` per anchor, in anchor order."""
    picks = [index.neighbors[a][rng.permutation(index.pool)[:k]] for a in anchors]
    return np.array(picks, dtype=np.int64).reshape(len(anchors), k)


class TestSampleNeighbors:
    def setup_method(self):
        shifted = (np.arange(10)[:, None] + np.array([1, 2, 3])) % 10
        self.index = NeighborIndex(shifted)

    def test_full_pool_is_permutation(self):
        got = sample_neighbors(self.index, np.array([0, 5]), 3, np.random.default_rng(0))
        assert got.shape == (2, 3) and got.dtype == np.int64
        assert sorted(got[0]) == [1, 2, 3]
        assert sorted(got[1]) == [6, 7, 8]

    def test_zero_draw(self):
        rng = np.random.default_rng(0)
        got = sample_neighbors(self.index, np.array([0, 1]), 0, rng)
        assert got.shape == (2, 0) and got.dtype == np.int64
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_seeded_determinism(self):
        anchors = np.array([4, 4, 9])
        a = sample_neighbors(self.index, anchors, 2, np.random.default_rng(99))
        b = sample_neighbors(self.index, anchors, 2, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_boundary_anchors_and_empty_batch_draw(self):
        got = sample_neighbors(self.index, np.array([0, 9]), 3, np.random.default_rng(0))
        assert sorted(got[0]) == [1, 2, 3] and sorted(got[1]) == [0, 1, 2]
        empty = np.array([], dtype=np.int64)
        assert sample_neighbors(self.index, empty, 2, np.random.default_rng(0)).shape == (0, 2)

    def test_uniform_membership_frequency(self):
        draws = 6000
        anchors = np.zeros(draws, dtype=np.int64)
        got = sample_neighbors(self.index, anchors, 2, np.random.default_rng(123))
        assert np.all(got[:, 0] != got[:, 1])
        counts = np.bincount(got.ravel(), minlength=4)
        # expect k/pool = 2/3 per member; binomial 3-sigma band
        expect = draws * 2 / 3
        sigma = (draws * (2 / 3) * (1 / 3)) ** 0.5
        for member in (1, 2, 3):
            assert abs(counts[member] - expect) < 4 * sigma, (member, counts[member])

    @pytest.mark.parametrize("pool", [1, 2, 16, 17, 300])
    @pytest.mark.parametrize("m", [1, 2, 3, 63, 64, 65, 256])
    def test_matches_per_anchor_permutations(self, pool, m):
        # a NumPy whose Generator.permuted shuffles rows differently from
        # permutation must fail here: training depends on the exact stream
        n = pool + 5
        neighbors = (np.arange(n)[:, None] + 1 + np.arange(pool)) % n
        index = NeighborIndex(neighbors)
        setup = np.random.default_rng([pool, m])
        anchors = setup.integers(0, n, size=m)
        for k in sorted({1, pool // 2 or 1, pool}):
            fast, slow = np.random.default_rng([pool, m, k]), np.random.default_rng([pool, m, k])
            for rng in (fast, slow):
                rng.random(dtype=np.float32)  # leaves half of a 64-bit draw buffered
            np.testing.assert_array_equal(
                sample_neighbors(index, anchors, k, fast), per_anchor_draw(index, anchors, k, slow)
            )
            assert fast.bit_generator.state == slow.bit_generator.state
            assert fast.random(dtype=np.float32) == slow.random(dtype=np.float32)
            np.testing.assert_array_equal(fast.integers(2**62, size=3),
                                          slow.integers(2**62, size=3))


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        idx = build_index(np.random.default_rng(1).normal(size=(9, 5)), pool=4)
        path = tmp_path / "nn.cssk"
        io.write_index(path, idx)
        assert io.read_index(path) == idx
