"""Training-pair mining from a cluster partition plus frame co-occurrence.

An epoch's slots are the clusters in seeded-shuffled order, wrapped around
so every batch holds ``clusters_per_batch`` of them. A slot's positive
candidates are its cluster's pairs (i, j) (PosC, row-major i < j over the
ascending members), then, for a cluster of fewer than
``small_cluster_threshold`` rows, one draw per member from one of the
nearest clusters that does not co-occur with it (PosC-near; when every draw
co-occurs, all allowed pairs with the near clusters, drawing nothing).
Its negative candidates are two draws per member from the farthest clusters
(NegC), then every co-occurrence pair touching the cluster (NVid), ascending.
Each slot contributes a fixed quota of positives (y = 0) and negatives (y = 1).

Pair streams are a pure function of (partition, ranks, co-occurrence,
config, epoch). One generator seeded with ``[seed, epoch]`` draws the
shuffle, then makes one ``rng.integers`` call with per-element bounds per
draw kind, over all slots in slot order: (1) near cluster, per slot taking
PosC-near; (2) near partner, per member of those slots; (3) far cluster,
twice per member; (4) far member, per far cluster drawn; (5) the positive,
then the negative subsample (`draw_subsamples`). Changing this draw order or
the candidate order changes every mined pair after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CooccurrenceSet, row_blocks, sq_distances, unit_rows
from .memory import check_memory

POS_CLUSTER = "PosC"
POS_NEAR = "PosC-near"
NEG_CLUSTER = "NegC"
NEG_VIDEO = "NVid"

_SOURCE_NAMES = np.array([POS_CLUSTER, POS_NEAR, NEG_CLUSTER, NEG_VIDEO], dtype="U9")
_POS_CLUSTER, _POS_NEAR, _NEG_CLUSTER, _NEG_VIDEO = range(4)

# Peak bytes of `mine_epoch` per pair its slots may add and per member row
# they list, rounded up from tracemalloc peaks: 177-182 per pair (clusters of
# 1-2 rows, quotas of 100-250) and 96-128 per row (clusters of 200-2,000
# rows, quota 1); the round-up covers each slot's own arrays at quota 1.
_PAIR_BYTES = 256
_ROW_BYTES = 128


@dataclass(frozen=True)
class MiningConfig:
    z_near: int = 25
    z_far: int = 25
    small_cluster_threshold: int = 10
    clusters_per_batch: int = 5
    pos_per_cluster: int = 25
    neg_per_cluster: int = 25
    seed: int = 0
    # pair sources (config keys sources.*), switched by the ablation runner
    use_pos_cluster: bool = True
    use_neg_cluster: bool = True
    use_neg_video: bool = True

    def validate(self) -> None:
        for key in ("z_near", "z_far", "small_cluster_threshold", "clusters_per_batch",
                    "pos_per_cluster", "neg_per_cluster"):
            if getattr(self, key) < 1:
                raise ValueError(f"mining.{key} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ValueError(f"mining seed must be >= 0, got {self.seed}")
        if self.pos_per_cluster != self.neg_per_cluster:
            raise ValueError("pos_per_cluster and neg_per_cluster must match")
        if not (self.use_pos_cluster or self.use_neg_cluster or self.use_neg_video):
            raise ValueError("at least one pair source must be enabled")


@dataclass(frozen=True)
class PairBatch:
    """Mined index pairs: y == 0 marks positives, y == 1 negatives."""

    a: np.ndarray
    b: np.ndarray
    y: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return self.a.size

    def as_tuples(self) -> list[tuple[int, int, int, str]]:
        return list(zip(self.a.tolist(), self.b.tolist(), self.y.tolist(), self.source.tolist()))


@dataclass(frozen=True)
class ClusterRanks:
    """Row c: indices of the nearest and of the farthest other clusters of
    cluster c, as (M, z) arrays."""

    nearest: np.ndarray
    farthest: np.ndarray


def rank_clusters(means: np.ndarray, z_near: int, z_far: int) -> ClusterRanks:
    """Sort other clusters by Euclidean distance between normalized means.

    Rows truncate to M-1 entries when fewer than z other clusters exist;
    distance ties resolve toward the smaller cluster index.
    """
    means = np.asarray(means, dtype=np.float64)
    m = means.shape[0]
    if m < 2:
        raise ValueError("ranking needs at least 2 clusters")
    unit = unit_rows(means, lambda c: f"mean of cluster {c}")
    dist = sq_distances(unit, unit)
    nearest = np.empty((m, min(z_near, m - 1)), dtype=np.intp)
    farthest = np.empty((m, min(z_far, m - 1)), dtype=np.intp)
    # a row's stable argsort is independent of the other rows'
    for start, stop in row_blocks(m):
        block = dist[start:stop]
        own = np.arange(block.shape[0]), np.arange(start, stop)
        block[own] = -np.inf  # a cluster sorts last among its own farthest
        farthest[start:stop] = np.argsort(-block, axis=1, kind="stable")[:, :farthest.shape[1]]
        block[own] = np.inf  # and last among its own nearest
        nearest[start:stop] = np.argsort(block, axis=1, kind="stable")[:, :nearest.shape[1]]
    return ClusterRanks(nearest, farthest)


def _check_cover(labels: np.ndarray, cooc: CooccurrenceSet) -> None:
    if len(cooc) and cooc.n != labels.size:
        raise ValueError(f"co-occurrence set covers {cooc.n} rows, partition has {labels.size}")


def _clustered_pairs(labels: np.ndarray, cooc: CooccurrenceSet):
    """Every co-occurrence pair, ascending, as (first, second, cluster of
    first, cluster of second)."""
    first, second = np.divmod(cooc.codes, cooc.n)
    return first, second, labels[first], labels[second]


def apply_video_correction(partition: np.ndarray, cooc: CooccurrenceSet,
                           points: np.ndarray) -> np.ndarray:
    """Evict one endpoint of every co-occurring pair that shares a cluster.

    The endpoint nearer the current cluster mean stays; the other one starts
    a fresh singleton cluster. Clusters are processed in ascending label
    order and pairs in ascending index order, re-checking after every move,
    so no cluster retains a co-occurring pair.
    """
    labels = np.asarray(partition, dtype=np.int64).copy()
    _check_cover(labels, cooc)
    points = np.asarray(points, dtype=np.float64)
    m = int(labels.max()) + 1
    next_label = m
    # an eviction only shrinks its cluster and starts a singleton above m, so
    # a cluster's violating pairs are the ones found up front minus those
    # touching a row evicted since: the lowest left is what a re-scan finds
    first, second, pair_cluster, second_cluster = _clustered_pairs(labels, cooc)
    shared = pair_cluster == second_cluster
    first, second, pair_cluster = first[shared], second[shared], pair_cluster[shared]
    for c in np.unique(pair_cluster).tolist():
        in_c = pair_cluster == c
        pending_i, pending_j = first[in_c], second[in_c]
        member = np.flatnonzero(labels == c)
        while pending_i.size:
            i, j = int(pending_i[0]), int(pending_j[0])
            mean = points[member].mean(axis=0)
            di = float(np.linalg.norm(points[i] - mean))
            dj = float(np.linalg.norm(points[j] - mean))
            loser = j if di <= dj else i
            labels[loser] = next_label
            next_label += 1
            member = member[member != loser]
            keep = (pending_i != loser) & (pending_j != loser)
            pending_i, pending_j = pending_i[keep], pending_j[keep]
    return labels


def _video_pairs(labels: np.ndarray, m: int, cooc: CooccurrenceSet):
    """Every cluster's NVid candidates from one pass over the co-occurrence
    codes: cluster c's pairs are ``(first[s:e], second[s:e])`` with
    ``s, e = indptr[c], indptr[c + 1]``, the pairs with an endpoint in c in
    ascending pair order."""
    first, second, first_cluster, second_cluster = _clustered_pairs(labels, cooc)
    # a pair lists under the cluster of each endpoint, once when they share it
    extra = np.flatnonzero(second_cluster != first_cluster)
    pair = np.concatenate([np.arange(first.size), extra])
    cluster = np.concatenate([first_cluster, second_cluster[extra]])
    pair = pair[np.lexsort((pair, cluster))]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(cluster, minlength=m), out=indptr[1:])
    return first[pair], second[pair], indptr


def draw_subsamples(rng: np.random.Generator, counts, quota: int):
    """``quota`` picks for each slot s with ``counts[s] > 0`` candidates, as
    flat (slot, pick) arrays in slot order: with replacement, in one call,
    where the count is below the quota; otherwise distinct, by Floyd's
    algorithm (Bentley & Floyd, CACM 1987) in one call per step t over all
    such slots, drawing from [0, count - quota + t] and taking that bound
    itself on a repeat."""
    counts = np.asarray(counts, dtype=np.int64)
    slot = np.flatnonzero(counts)
    picks = np.empty((slot.size, quota), dtype=np.int64)
    small = counts[slot] < quota
    picks[small] = rng.integers(0, np.repeat(counts[slot[small]], quota)).reshape(-1, quota)
    top = counts[slot[~small]] - quota
    distinct = np.empty((top.size, quota), dtype=np.int64)
    for t in range(quota):
        draw = rng.integers(0, top + t + 1)
        distinct[:, t] = np.where((distinct[:, :t] == draw[:, None]).any(axis=1), top + t, draw)
    picks[~small] = distinct
    return np.repeat(slot, quota), picks.ravel()


def _triangle_pairs(n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) at index k of the row-major list of pairs i < j < n."""
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8 * k)) // 2).astype(np.int64)
    # row i starts at i * (b - i) / 2; the float root can land one row off
    i -= i * (b - i) // 2 > k
    i += (i + 1) * (b - i - 1) // 2 <= k
    return i, k - i * (b - i) // 2 + i + 1


def _expand(members, clusters: np.ndarray, times: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each given cluster in turn, each listed ``times`` times,
    and for each the index into ``clusters`` it came from."""
    rows, start, size = members
    lengths = times * size[clusters]
    run = np.repeat(np.arange(clusters.size), lengths)
    offset = np.arange(run.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return rows[start[clusters][run] + offset // times], run


def _near_positives(rng, slots, takes, nearest, members, cooc):
    """PosC-near candidates of the slots flagged ``takes``: (a, b) in slot
    order, and each slot's count."""
    rows, start, size = members
    near_slots = np.flatnonzero(takes)
    pick = rng.integers(0, np.full(near_slots.size, nearest.shape[1]))
    a, run = _expand(members, slots[near_slots])
    near = nearest[slots[near_slots], pick][run]
    b = rows[start[near] + rng.integers(0, size[near])]
    keep = ~cooc.contains_pairs(a, b)
    parts = [(a[keep], b[keep], near_slots[run[keep]])]
    for s in np.setdiff1d(near_slots, parts[0][2]).tolist():
        # every draw hit a co-occurrence: each allowed pair with a near cluster
        mem = rows[start[slots[s]]:start[slots[s]] + size[slots[s]]]
        for g in nearest[slots[s]].tolist():
            pool = rows[start[g]:start[g] + size[g]]
            a, b = np.repeat(mem, pool.size), np.tile(pool, mem.size)
            keep = ~cooc.contains_pairs(a, b)
            parts.append((a[keep], b[keep], np.full(keep.sum(), s)))
    a, b, owner = (np.concatenate(column) for column in zip(*parts))
    arrange = np.argsort(owner, kind="stable")
    return a[arrange], b[arrange], np.bincount(owner, minlength=slots.size)


def mine_epoch(partition: np.ndarray, ranks: ClusterRanks, cooc: CooccurrenceSet,
               cfg: MiningConfig, epoch: int = 0) -> list[PairBatch]:
    """One epoch of batches of ``clusters_per_batch`` cluster slots each.

    Each slot adds ``pos_per_cluster`` positives and as many negatives (none
    of a kind it has no candidates for); a batch lists its positives first.
    An epoch that may need more than the process's `memory_limit` is refused
    before anything is allocated.
    """
    cfg.validate()
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    labels = np.asarray(partition, dtype=np.int64)
    _check_cover(labels, cooc)
    m = int(labels.max()) + 1
    if m < 2:
        raise ValueError("mining needs a partition with at least 2 clusters")
    per_batch = cfg.clusters_per_batch
    num_batches = -(-m // per_batch)
    num_slots = num_batches * per_batch
    reps = -(-num_slots // m)
    quota = cfg.pos_per_cluster + cfg.neg_per_cluster
    # each slot lists its cluster's rows; there are at most reps * N of them
    check_memory(num_slots * quota * _PAIR_BYTES + reps * labels.size * _ROW_BYTES,
                 f"an epoch of {num_slots} cluster slots (mining.clusters_per_batch = "
                 f"{per_batch} per batch) with up to {quota} pairs each "
                 f"(mining.pos_per_cluster + mining.neg_per_cluster)")
    rng = np.random.default_rng([cfg.seed, epoch])
    order = rng.permutation(m)
    slots = np.tile(order, reps)[:num_slots]

    # cluster c's rows, ascending: rows[start[c]:start[c] + size[c]]
    rows = np.argsort(labels, kind="stable")
    size = np.bincount(labels, minlength=m)
    start = np.cumsum(size) - size
    members, n = (rows, start, size), size[slots]
    in_cluster = n * (n - 1) // 2 * cfg.use_pos_cluster
    takes_near = (cfg.use_pos_cluster and ranks.nearest.shape[1] > 0) & (
        n < cfg.small_cluster_threshold)
    near_a, near_b, near_count = _near_positives(rng, slots, takes_near, ranks.nearest,
                                                 members, cooc)
    use_far = cfg.use_neg_cluster and ranks.farthest.shape[1] > 0
    far_a, run = _expand(members, slots if use_far else slots[:0], times=2)
    far = ranks.farthest[slots[run], rng.integers(0, np.full(run.size, ranks.farthest.shape[1]))]
    far_b = rows[start[far] + rng.integers(0, size[far])]
    far_count = 2 * n * use_far
    video_a, video_b, indptr = _video_pairs(labels, m, cooc)
    video_count = (indptr[slots + 1] - indptr[slots]) * cfg.use_neg_video

    pos_slot, pick = draw_subsamples(rng, in_cluster + near_count, cfg.pos_per_cluster)
    near = pick >= in_cluster[pos_slot]
    pos_a, pos_b = np.empty((2, pick.size), dtype=np.int64)
    i, j = _triangle_pairs(n[pos_slot[~near]], pick[~near])
    base = start[slots[pos_slot[~near]]]
    pos_a[~near], pos_b[~near] = rows[base + i], rows[base + j]
    k = (np.cumsum(near_count) - near_count - in_cluster)[pos_slot[near]] + pick[near]
    pos_a[near], pos_b[near] = near_a[k], near_b[k]

    neg_slot, pick = draw_subsamples(rng, far_count + video_count, cfg.neg_per_cluster)
    video = pick >= far_count[neg_slot]
    # offsets into far_a + video_a of each slot's NegC and NVid candidates
    far_start = np.cumsum(far_count) - far_count
    video_start = far_a.size + indptr[slots] - far_count
    k = np.where(video, video_start[neg_slot], far_start[neg_slot]) + pick
    neg_a = np.concatenate([far_a, video_a])[k]
    neg_b = np.concatenate([far_b, video_b])[k]

    batch = np.concatenate([pos_slot, neg_slot]) // per_batch
    y = np.repeat(np.array([0, 1], dtype=np.int64), [pos_slot.size, neg_slot.size])
    source = np.concatenate([np.where(near, _POS_NEAR, _POS_CLUSTER),
                             np.where(video, _NEG_VIDEO, _NEG_CLUSTER)])
    arrange = np.lexsort((y, batch))
    bounds = np.cumsum(np.bincount(batch, minlength=num_batches))[:-1]
    columns = (np.concatenate([pos_a, neg_a]), np.concatenate([pos_b, neg_b]), y,
               _SOURCE_NAMES[source])
    return [PairBatch(*parts) for parts in zip(*(np.split(c[arrange], bounds) for c in columns))]


def write_pairs_csv(batches: list[PairBatch], path) -> None:
    with open(path, "w") as fh:
        fh.write("a,b,y,source\n")
        for batch in batches:
            for a, b, y, source in batch.as_tuples():
                fh.write(f"{a},{b},{y},{source}\n")
