import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    naive_draw_subsamples,
    naive_mine_epoch,
    naive_video_correction,
    pair_set,
)

from ccl import data, memory, mining
from ccl.data import CooccurrenceSet
from ccl.finch import cluster_means
from ccl.mining import (
    MiningConfig,
    _triangle_pairs,
    apply_video_correction,
    draw_subsamples,
    mine_epoch,
    rank_clusters,
    write_pairs_csv,
)


def six_cluster_instance(seed=0, size=6):
    """Six well-separated clusters of `size` points each in 8-D."""
    rng = np.random.default_rng(seed)
    centers, _ = np.linalg.qr(rng.normal(size=(8, 6)))
    centers = centers.T
    points = np.concatenate([c + 0.02 * rng.normal(size=(size, 8)) for c in centers])
    points /= np.linalg.norm(points, axis=1)[:, None]
    labels = np.repeat(np.arange(6), size)
    return points, labels


def test_rank_clusters_two():
    means = np.array([[1.0, 0.0], [0.0, 1.0]])
    ranks = rank_clusters(means, z_near=25, z_far=25)
    assert ranks.nearest[0].tolist() == [1] and ranks.farthest[0].tolist() == [1]
    assert ranks.nearest[1].tolist() == [0] and ranks.farthest[1].tolist() == [0]


def test_rank_clusters_collinear_middle():
    angles = np.array([0.0, 0.3, 1.2])
    means = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ranks = rank_clusters(means, z_near=1, z_far=1)
    assert ranks.farthest[1].tolist() == [2]  # endpoint of the arc
    assert ranks.nearest[1].tolist() == [0]


def test_rank_clusters_matches_sort_oracle(monkeypatch):
    rng = np.random.default_rng(13)
    means = rng.normal(size=(50, 6))
    duplicated = means.copy()
    duplicated[[7, 20, 33, 48, 49]] = means[3]  # equal distances: the smaller index first
    duplicated[[16, 17]] = means[40]
    # 50 rows: one block, or three of 16 and one of 2
    for rows in (data.BLOCK_ROWS, 16):
        monkeypatch.setattr(data, "BLOCK_ROWS", rows)
        for case in (means, duplicated):
            unit = case / np.linalg.norm(case, axis=1)[:, None]
            ranks = rank_clusters(case, z_near=10, z_far=10)
            for c in range(50):
                dist = [(float(np.linalg.norm(unit[c] - unit[j])), j) for j in range(50) if j != c]
                by_near = [j for _, j in sorted(dist, key=lambda t: (t[0], t[1]))]
                by_far = [j for _, j in sorted(dist, key=lambda t: (-t[0], t[1]))]
                assert ranks.nearest[c].tolist() == by_near[:10]
                assert ranks.farthest[c].tolist() == by_far[:10]


def test_rank_clusters_sorts_a_block_of_rows_at_a_time():
    m = 2000
    means = np.random.default_rng(0).normal(size=(m, 16))
    tracemalloc.start()
    try:
        rank_clusters(means, z_near=25, z_far=25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the M x M distances and one block of sort temporaries; sorting all rows
    # at once held three M x M arrays
    assert peak < 1.5 * 8 * m * m


@pytest.mark.parametrize("m, z", [(2, 25), (50, 10), (300, 25)])
def test_rank_clusters_own_their_m_by_z_columns(m, z):
    # Views of the M x M argsorts would keep 16 M^2 bytes alive for as long as the ranks.
    ranks = rank_clusters(np.random.default_rng(m).normal(size=(m, 4)), z_near=z, z_far=z)
    cols = min(z, m - 1)
    for order in (ranks.nearest, ranks.farthest):
        assert order.base is None and order.flags.owndata
        assert order.shape == (m, cols) and order.nbytes == m * cols * 8


def test_correction_identity_without_violations():
    points, labels = six_cluster_instance()
    cooc = CooccurrenceSet(labels.size, [0], [6])  # endpoints in different clusters
    np.testing.assert_array_equal(apply_video_correction(labels, cooc, points), labels)


def test_correction_moves_farther_endpoint():
    # cluster {0,1,2}: rows 0 and 2 co-occur, row 0 sits nearer the mean
    points = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [5.0, 5.0]])
    labels = np.array([0, 0, 0, 1])
    cooc = CooccurrenceSet(4, [0], [2])
    corrected = apply_video_correction(labels, cooc, points)
    np.testing.assert_array_equal(corrected, [0, 0, 2, 1])


def test_correction_clears_all_violations():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(40, 4))
    labels = rng.integers(0, 4, 40)
    labels[:4] = np.arange(4)  # keep contiguous
    pairs = set()
    while len(pairs) < 25:
        i, j = rng.choice(40, size=2, replace=False)
        pairs.add((min(i, j), max(i, j)))
    cooc = CooccurrenceSet(40, *np.array(sorted(pairs)).T)
    corrected = apply_video_correction(labels, cooc, points)
    for i, j in pairs:
        assert corrected[i] != corrected[j]
    # contiguous output
    assert np.array_equal(np.unique(corrected), np.arange(corrected.max() + 1))


def default_mining_setup(cooc_pairs=(), **cfg_kwargs):
    points, labels = six_cluster_instance()
    means = cluster_means(points, labels)
    cfg = MiningConfig(seed=5, **cfg_kwargs)
    ranks = rank_clusters(means, cfg.z_near, cfg.z_far)
    cooc = CooccurrenceSet(labels.size, *np.array(cooc_pairs, dtype=np.int64).reshape(-1, 2).T)
    return points, labels, ranks, cooc, cfg


def test_batches_have_contracted_shape():
    _, labels, ranks, cooc, cfg = default_mining_setup()
    batches = mine_epoch(labels, ranks, cooc, cfg)
    assert len(batches) == 2  # 6 clusters, 5 per batch, wrapped remainder
    for batch in batches:
        assert len(batch) == 250
        assert int(np.sum(batch.y == 0)) == 125
        assert np.all(batch.a != batch.b)


def test_singleton_cluster_positives_come_from_near_clusters():
    points, labels = six_cluster_instance(size=1)
    means = cluster_means(points, labels)
    cfg = MiningConfig(seed=2)
    ranks = rank_clusters(means, cfg.z_near, cfg.z_far)
    batches = mine_epoch(labels, ranks, CooccurrenceSet(), cfg)
    positives = np.concatenate([b.source[b.y == 0] for b in batches])
    assert positives.size
    assert set(positives.tolist()) == {"PosC-near"}


def test_pair_sources_audit():
    _, labels, ranks, cooc, cfg = default_mining_setup(cooc_pairs=[(0, 7), (1, 13)])
    pairs = pair_set(cooc)
    for epoch in range(3):
        for batch in mine_epoch(labels, ranks, cooc, cfg, epoch=epoch):
            for a, b, y, source in batch.as_tuples():
                if source == "PosC":
                    assert y == 0 and labels[a] == labels[b]
                elif source == "PosC-near":
                    assert y == 0 and labels[a] != labels[b]
                    assert (min(a, b), max(a, b)) not in pairs
                elif source == "NegC":
                    assert y == 1
                    assert labels[b] in ranks.farthest[labels[a]]
                else:
                    assert source == "NVid" and y == 1
                    assert (min(a, b), max(a, b)) in pairs


def test_mining_deterministic():
    _, labels, ranks, cooc, cfg = default_mining_setup(cooc_pairs=[(0, 7)])
    streams = []
    for _ in range(2):
        buf = io.StringIO()
        batches = mine_epoch(labels, ranks, cooc, cfg, epoch=1)
        for batch in batches:
            for row in batch.as_tuples():
                buf.write(repr(row))
        streams.append(buf.getvalue())
    assert streams[0] == streams[1]


def test_single_cluster_partition_rejected():
    _, labels, ranks, cooc, cfg = default_mining_setup()
    with pytest.raises(ValueError, match="at least 2 clusters"):
        mine_epoch(np.zeros(10, dtype=np.int64), ranks, cooc, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(pos_per_cluster=10, neg_per_cluster=25).validate()
    with pytest.raises(ValueError):
        MiningConfig(use_pos_cluster=False, use_neg_cluster=False,
                     use_neg_video=False).validate()
    MiningConfig().validate()


def test_pairs_csv_round_trip(tmp_path):
    _, labels, ranks, cooc, cfg = default_mining_setup()
    batches = mine_epoch(labels, ranks, cooc, cfg)
    path = tmp_path / "pairs.csv"
    write_pairs_csv(batches, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,b,y,source"
    assert len(lines) == 1 + sum(len(b) for b in batches)


def random_instance(seed, kind, density):
    """Points, a contiguous partition and a co-occurrence set.

    kind: "random" partition, "singletons", "giant" (one cluster holds all
    rows but one) or "two" clusters. Each pair of rows in different clusters
    co-occurs with probability ``density``; in-cluster pairs with half of it.
    """
    rng = np.random.default_rng(seed)
    if kind == "giant":
        n = int(rng.integers(12, 60))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.integers(0, n)] = 1
    else:
        n = int(rng.integers(2, 30))
        if kind == "singletons":
            labels = rng.permutation(n)
        else:
            labels = rng.integers(0, 2 if kind == "two" else int(rng.integers(2, n + 1)), n)
            labels[rng.choice(n, size=2, replace=False)] = [0, 1]
        labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    points = rng.normal(size=(n, 4))
    i, j = np.triu_indices(n, k=1)
    rate = np.where(labels[i] == labels[j], density / 2, density)
    keep = rng.random(i.size) < rate
    cooc = CooccurrenceSet(n, i[keep], j[keep])
    return points, labels, cooc


SOURCE_TOGGLES = [(p, c, v) for p in (True, False) for c in (True, False) for v in (True, False)
                  if p or c or v]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "singletons", "giant", "two"]),
       density=st.sampled_from([0.0, 0.1, 0.4, 0.9, 1.0]),
       toggles=st.sampled_from(SOURCE_TOGGLES),
       epoch=st.integers(0, 3))
def test_mine_epoch_matches_naive_oracle(seed, kind, density, toggles, epoch):
    points, labels, cooc = random_instance(seed, kind, density)
    rng = np.random.default_rng(seed + 1)
    quota = int(rng.integers(1, 40))
    cfg = MiningConfig(
        z_near=int(rng.integers(1, 5)), z_far=int(rng.integers(1, 5)),
        small_cluster_threshold=int(rng.integers(1, 12)),
        clusters_per_batch=int(rng.integers(1, 5)),
        pos_per_cluster=quota, neg_per_cluster=quota, seed=int(rng.integers(0, 100)),
        use_pos_cluster=toggles[0], use_neg_cluster=toggles[1], use_neg_video=toggles[2])
    ranks = rank_clusters(cluster_means(points, labels), cfg.z_near, cfg.z_far)
    ours = mine_epoch(labels, ranks, cooc, cfg, epoch)
    expected = naive_mine_epoch(labels, ranks, cooc, cfg, epoch)
    assert len(ours) == len(expected)
    for got, want in zip(ours, expected):
        for name in ("a", "b", "y", "source"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_cooccurrence_lookups_match_linear_scan(seed, density):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < density
    pairs = set(zip(i[keep].tolist(), j[keep].tolist()))
    flip = rng.random(i.size) < 0.5  # some pairs given as (j, i)
    cooc = CooccurrenceSet(n, np.where(flip, j, i)[keep], np.where(flip, i, j)[keep])
    assert pair_set(cooc) == pairs and len(cooc) == len(pairs)
    assert np.all(np.diff(cooc.codes) > 0)
    a = rng.integers(-2, n + 3, 50)
    b = rng.integers(-2, n + 3, 50)
    expected = [(min(x, y), max(x, y)) in pairs for x, y in zip(a.tolist(), b.tolist())]
    assert cooc.contains_pairs(a, b).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "giant", "two"]),
       density=st.sampled_from([0.1, 0.4, 1.0]))
def test_correction_matches_naive_oracle(seed, kind, density):
    points, labels, cooc = random_instance(seed, kind, density)
    np.testing.assert_array_equal(apply_video_correction(labels, cooc, points),
                                  naive_video_correction(labels, cooc, points))


def test_cooccurrence_orders_and_merges_pairs():
    cooc = CooccurrenceSet(5, [3, 1, 4, 0], [1, 3, 0, 4])
    assert cooc.codes.tolist() == [0 * 5 + 4, 1 * 5 + 3] and cooc.codes.dtype == np.int64
    assert len(CooccurrenceSet()) == 0 and not CooccurrenceSet().contains_pairs([0], [1])[0]


@pytest.mark.parametrize("first, second", [([0, 3], [1, 3]), ([0, -1], [1, 2]), ([0, 4], [1, 5])],
                         ids=["self-pair", "negative", "past-n"])
def test_cooccurrence_rejects_pairs_that_are_not_two_rows(first, second):
    with pytest.raises(ValueError, match=rf"pair \({first[1]}, {second[1]}\) is not two "
                                         r"distinct rows in \[0, 5\)"):
        CooccurrenceSet(5, first, second)


def test_cooccurrence_must_cover_the_partition():
    points, labels, ranks, _, cfg = default_mining_setup()
    short = CooccurrenceSet(labels.size - 1, [0], [7])
    with pytest.raises(ValueError, match="covers 35 rows, partition has 36"):
        apply_video_correction(labels, short, points)
    with pytest.raises(ValueError, match="covers 35 rows, partition has 36"):
        mine_epoch(labels, ranks, short, cfg)
    empty = CooccurrenceSet(3)  # an empty set of any size is no constraint
    np.testing.assert_array_equal(apply_video_correction(labels, empty, points), labels)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(0, 60), max_size=8),
       quota=st.integers(1, 30))
def test_draw_subsamples_distinct_or_in_range(seed, counts, quota):
    slot, pick = draw_subsamples(np.random.default_rng(seed), np.array(counts, dtype=np.int64),
                                 quota)
    assert slot.tolist() == [s for s, count in enumerate(counts) if count for _ in range(quota)]
    assert pick.dtype == np.int64
    listed = [count for count in counts if count]
    rows = pick.reshape(-1, quota).tolist()
    for count, row in zip(listed, rows):
        assert all(0 <= p < count for p in row)
        if count >= quota:
            assert len(set(row)) == quota
    assert rows == naive_draw_subsamples(np.random.default_rng(seed), listed, quota)


def test_draw_subsamples_picks_each_candidate_at_quota_over_count():
    quota, trials = 25, 4000
    counts = np.array([25, 26, 40, 100])
    _, pick = draw_subsamples(np.random.default_rng(0), np.tile(counts, trials), quota)
    pick = pick.reshape(trials, counts.size, quota)
    for column, count in enumerate(counts.tolist()):
        hits = np.bincount(pick[:, column].ravel(), minlength=count)
        rate = quota / count
        sigma = np.sqrt(trials * rate * (1 - rate))
        assert np.all(np.abs(hits - trials * rate) <= 5 * sigma), (count, hits)


def test_epoch_larger_than_memory_is_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(memory, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(memory, "_cgroup_memory_limit", lambda: None)
    labels = np.repeat(np.arange(2), 5)
    ranks = rank_clusters(np.eye(2), z_near=1, z_far=1)
    # 2,000 slots of 2 clusters: 100,000 pairs, several MiB when mined
    cfg = MiningConfig(clusters_per_batch=2000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^an epoch of 2000 cluster slots \(mining\."
                                             r"clusters_per_batch = 2000 per batch\) with up "
                                             r"to 50 pairs each \(mining\.pos_per_cluster \+ "
                                             r"mining\.neg_per_cluster\) may need \d+ bytes, "
                                             r"more than the 1048576 bytes of physical memory$"):
            mine_epoch(labels, ranks, CooccurrenceSet(), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_mine_epoch_never_lists_the_pairs_of_a_cluster():
    labels = np.zeros(20_000, dtype=np.int64)
    labels[-1] = 1  # one cluster of 19,999 rows: ~2e8 in-cluster pairs, 1.6 GB as int64
    ranks = rank_clusters(np.eye(2), z_near=1, z_far=1)
    cfg = MiningConfig(seed=0)
    tracemalloc.start()
    try:
        batches = mine_epoch(labels, ranks, CooccurrenceSet(), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(batches) == 1 and len(batches[0]) == 2 * cfg.clusters_per_batch * cfg.pos_per_cluster
    giant = batches[0].source == "PosC"
    a, b = batches[0].a[giant], batches[0].b[giant]
    assert np.all(labels[a] == 0) and np.all(labels[b] == 0) and np.all(a < b)


@pytest.mark.parametrize("n", [2, 3, 7, 19_999, 100_003])
def test_triangle_pairs_decode_the_ends_of_every_row(n):
    i = np.arange(n - 1)
    first = i * n - i * (i + 1) // 2  # index of (i, i + 1); (i, n - 1) ends the row
    for k, j in ((first, i + 1), (first + n - 2 - i, np.full(n - 1, n - 1))):
        got_i, got_j = _triangle_pairs(np.full(n - 1, n), k)
        np.testing.assert_array_equal(got_i, i)
        np.testing.assert_array_equal(got_j, j)
