import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import finch
from ccl.finch import (
    NEIGHBOR_CHUNK_ROWS,
    cluster_means,
    finch_hierarchy,
    first_neighbors,
    link_components,
    partition_purity,
)
from ccl.labeling import relabel_contiguous

from oracles import (
    adjacency_components,
    brute_first_neighbors,
    canonical,
    groupby_means,
    naive_finch,
    union_find_components,
)


def on_circle(values):
    values = np.asarray(values, dtype=np.float64)
    return np.stack([np.cos(values), np.sin(values)], axis=1)


def test_first_neighbors_line_of_four():
    points = on_circle([0.0, 0.1, 1.0, 1.1])
    np.testing.assert_array_equal(first_neighbors(points), [1, 0, 3, 2])


def test_first_neighbors_two_points():
    np.testing.assert_array_equal(first_neighbors(on_circle([0.0, 1.0])), [1, 0])


def test_first_neighbors_duplicate_tie_break():
    points = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(first_neighbors(points), [1, 0, 0])


def test_first_neighbors_requires_two_rows():
    with pytest.raises(ValueError):
        first_neighbors(np.ones((1, 3)))


def test_first_neighbors_chunked_matches_serial(monkeypatch):
    rng = np.random.default_rng(5)
    points = rng.normal(size=(101, 7))
    monkeypatch.setattr(finch, "NEIGHBOR_CHUNK_ROWS", 101)
    full = first_neighbors(points)
    for chunk in (1, 3, 17, 64):
        monkeypatch.setattr(finch, "NEIGHBOR_CHUNK_ROWS", chunk)
        np.testing.assert_array_equal(first_neighbors(points), full)


def test_first_neighbors_ties_across_blocks_go_to_the_smallest_index(monkeypatch):
    rng = np.random.default_rng(8)
    points = rng.normal(size=(101, 7))
    # copies of one row in an early, a middle and the last block at every
    # chunk size below 40; rows 5 and 60 are each other's only copy
    points[[40, 77, 100]] = points[2]
    points[60] = points[5]
    want = brute_first_neighbors(points)
    assert want[[2, 40, 77, 100, 5, 60]].tolist() == [40, 2, 2, 2, 60, 5]
    for chunk in (1, 3, 17, 64, points.shape[0]):
        monkeypatch.setattr(finch, "NEIGHBOR_CHUNK_ROWS", chunk)
        np.testing.assert_array_equal(first_neighbors(points), want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_first_neighbors_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(20, 4))
    kappa = first_neighbors(points)
    perm = rng.permutation(20)
    inv = np.argsort(perm)
    permuted = first_neighbors(points[perm])
    np.testing.assert_array_equal(permuted, inv[kappa[perm]])


def test_first_neighbors_peak_memory_is_one_block_and_the_unit_copy():
    m, d = 3000, 16
    points = np.random.default_rng(4).normal(size=(m, d))
    tracemalloc.start()
    try:
        first_neighbors(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (NEIGHBOR_CHUNK_ROWS * m + m * d)


def test_link_components_pairs():
    np.testing.assert_array_equal(link_components([1, 0, 3, 2]), [0, 0, 1, 1])


def test_link_components_chain():
    np.testing.assert_array_equal(link_components([1, 2, 1]), [0, 0, 0])


def test_link_components_mutual_pair():
    np.testing.assert_array_equal(link_components([1, 0]), [0, 0])


def successor_arrays(n):
    """Any functional graph on n nodes: random successors (self-loops and tails
    included), a permutation (cycles only), or one path into a cycle."""
    path = st.integers(0, n - 1).map(lambda k: list(range(1, n)) + [k])
    return st.one_of(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     st.permutations(range(n)), path)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 70).flatmap(successor_arrays))
def test_link_components_matches_union_find(succ):
    np.testing.assert_array_equal(link_components(succ), union_find_components(succ))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 4) | st.integers(-2**63, 2**63 - 1), max_size=60))
def test_relabel_contiguous_matches_first_occurrence(labels):
    np.testing.assert_array_equal(relabel_contiguous(labels), canonical(labels))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_link_components_matches_adjacency_bfs(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(30, 5))
    kappa = first_neighbors(points)
    np.testing.assert_array_equal(link_components(kappa), adjacency_components(kappa))


def test_cluster_means_single_row():
    v = np.array([[0.6, 0.8]])
    np.testing.assert_allclose(cluster_means(v, [0]), v, atol=1e-12)


def test_cluster_means_opposite_rows():
    points = np.array([[1.0, 0.0], [-0.5, 0.0], [0.0, 1.0]])
    means = cluster_means(points, [0, 0, 1])
    np.testing.assert_allclose(means[0], [1.0, 0.0], atol=1e-12)


def test_cluster_means_zero_mean_errors():
    points = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="zero-norm mean"):
        cluster_means(points, [0, 0])


def test_cluster_means_matches_groupby():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(40, 6))
    labels = relabel_contiguous(rng.integers(0, 5, 40))
    np.testing.assert_allclose(cluster_means(points, labels), groupby_means(points, labels), atol=1e-12)


def hierarchy_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 60))
        d = int(rng.integers(2, 10))
        yield rng.normal(size=(n, d))


def test_hierarchy_matches_naive_oracle():
    for points in hierarchy_instances(25, 123):
        hierarchy = finch_hierarchy(points)
        naive_parts, naive_counts = naive_finch(points)
        assert hierarchy.cluster_counts == naive_counts
        for ours, theirs in zip(hierarchy.partitions, naive_parts):
            np.testing.assert_array_equal(ours, theirs)


def test_hierarchy_structural_invariants():
    for points in hierarchy_instances(25, 77):
        hierarchy = finch_hierarchy(points)
        counts = hierarchy.cluster_counts
        assert all(a > b for a, b in zip(counts, counts[1:]))
        first = hierarchy.partitions[0]
        assert np.bincount(first).min() >= 2
        for fine, coarse in zip(hierarchy.partitions, hierarchy.partitions[1:]):
            # coarsening: same fine label implies same coarse label
            for c in range(fine.max() + 1):
                assert len(np.unique(coarse[fine == c])) == 1
        for labels, count in zip(hierarchy.partitions, counts):
            assert labels.max() + 1 == count


def test_hierarchy_on_separated_gaussians():
    from ccl.synth import synth_generate

    fs = synth_generate(num_classes=3, per_class=200, dim=16, noise=0.05,
                        frames_per_track=5, cooc_rate=0.2, seed=4)
    hierarchy = finch_hierarchy(fs)
    assert 3 in hierarchy.cluster_counts
    p2 = hierarchy.partition(2)
    assert partition_purity(p2, fs.label) >= 0.99


def test_partition_lookup_errors():
    points = np.random.default_rng(0).normal(size=(20, 3))
    hierarchy = finch_hierarchy(points)
    with pytest.raises(ValueError, match="L="):
        hierarchy.partition(hierarchy.num_partitions + 1)
