import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import kmeans
from ccl.data import BLOCK_ROWS, sq_distances
from ccl.kmeans import KMeansConfig, kmeans_centers, minibatch_kmeans
from ccl.labeling import relabel_contiguous
from ccl.metrics import wcp

from oracles import loop_minibatch_kmeans


def blobs(seed=0, per=60, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = np.eye(3)
    points = np.concatenate([c + spread * rng.normal(size=(per, 3)) for c in centers])
    gt = np.repeat(np.arange(3), per)
    return points, gt


def test_k_equals_n():
    points = np.random.default_rng(1).normal(size=(12, 4))
    labels = minibatch_kmeans(points, KMeansConfig(k=12, seed=0))
    assert len(np.unique(labels)) == 12
    gt = np.arange(12)
    assert wcp(labels, gt)[0] == 1.0


def test_k_one():
    points = np.random.default_rng(2).normal(size=(20, 3))
    labels = minibatch_kmeans(points, KMeansConfig(k=1, seed=0))
    assert np.all(labels == 0)


def test_three_gaussians():
    points, gt = blobs()
    labels = minibatch_kmeans(points, KMeansConfig(k=3, seed=3))
    assert wcp(labels, gt)[0] >= 0.99


def test_same_seed_same_labels(monkeypatch):
    monkeypatch.setattr(kmeans, "BATCH_SIZE", 32)
    monkeypatch.setattr(kmeans, "MAX_ITERS", 40)
    points, _ = blobs(seed=5)
    cfg = KMeansConfig(k=7, seed=11)
    a = minibatch_kmeans(points, cfg)
    b = minibatch_kmeans(points, cfg)
    np.testing.assert_array_equal(a, b)


def test_k_too_large_errors():
    points = np.zeros((3, 2)) + np.arange(3)[:, None]
    with pytest.raises(ValueError):
        minibatch_kmeans(points, KMeansConfig(k=4))


def test_empty_clusters_relabeled_contiguously():
    points = np.ones((6, 2))
    labels = minibatch_kmeans(points, KMeansConfig(k=4, seed=0))
    assert labels.min() == 0
    assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))


def test_chunked_final_labels_match_one_assignment(monkeypatch):
    n = 2 * BLOCK_ROWS + 37  # two whole chunks and a partial one
    points = np.random.default_rng(5).normal(size=(n, 16))
    cfg = KMeansConfig(k=40, seed=0)
    whole = relabel_contiguous(np.argmin(sq_distances(points, kmeans_centers(points, cfg)), axis=1))
    for block in (1, 7, BLOCK_ROWS, n):
        monkeypatch.setattr("ccl.data.BLOCK_ROWS", block)
        assert minibatch_kmeans(points, cfg).tobytes() == whole.tobytes()


def test_float32_points_are_converted_a_block_of_rows_at_a_time(monkeypatch):
    monkeypatch.setattr(kmeans, "MAX_ITERS", 20)
    n, dim = 20000, 32
    points = np.random.default_rng(6).normal(size=(n, dim)).astype(np.float32)
    cfg = KMeansConfig(k=40, seed=0)
    want_labels = minibatch_kmeans(points.astype(np.float64), cfg)
    want_centers = kmeans_centers(points.astype(np.float64), cfg)
    tracemalloc.start()
    try:
        labels = minibatch_kmeans(points, cfg)  # fits its centers as kmeans_centers does
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # float32 -> float64 is exact, so reading rows late changes nothing
    assert labels.tobytes() == want_labels.tobytes()
    assert kmeans_centers(points, cfg).tobytes() == want_centers.tobytes()
    assert peak < 8 * n * dim // 2  # a float64 copy of the points would be all of it


def quantization_cost(points, centers) -> float:
    """Mean squared distance of every point to its nearest center."""
    return float(sq_distances(np.asarray(points, dtype=np.float64), centers).min(axis=1).mean())


def test_cost_non_increasing_on_final_checkpoints(monkeypatch):
    # identical seed => each run is a prefix of the same trajectory
    monkeypatch.setattr(kmeans, "BATCH_SIZE", 64)
    points, _ = blobs(seed=8, per=100, spread=0.3)
    costs = []
    for iters in (70, 80, 90, 100):
        monkeypatch.setattr(kmeans, "MAX_ITERS", iters)
        centers = kmeans_centers(points, KMeansConfig(k=6, seed=21))
        costs.append(quantization_cost(points, centers))
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 60), dim=st.integers(2, 6), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_minibatch_fold_matches_the_per_cluster_loop_bitwise(n, dim, data, seed):
    # at dim 1 the loop's member.sum sums pairwise, so only the last bits agree there
    k = data.draw(st.integers(1, min(n, 8)))
    cfg = KMeansConfig(k=k, seed=seed)
    points = np.random.default_rng(seed).normal(size=(n, dim))
    # monkeypatch is function-scoped, so each example patches the constants itself
    with mock.patch.object(kmeans, "BATCH_SIZE", data.draw(st.integers(1, n))), \
            mock.patch.object(kmeans, "MAX_ITERS", data.draw(st.integers(0, 12))):
        labels, centers = minibatch_kmeans(points, cfg), kmeans_centers(points, cfg)
        expected_labels, expected_centers = loop_minibatch_kmeans(points, cfg)
    np.testing.assert_array_equal(labels, expected_labels)
    assert centers.tobytes() == expected_centers.tobytes()
