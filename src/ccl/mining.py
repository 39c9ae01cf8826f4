"""Training-pair mining from a cluster partition plus frame co-occurrence.

Positive candidates are all pairs inside a cluster (PosC), topped up for
small clusters by pairing members with random samples from one of the
nearest clusters (PosC-near). Negative candidates pair each member twice
with random samples from the farthest clusters (NegC) and add every
co-occurrence pair touching the cluster (NVid). Each cluster contributes a
fixed quota of positives and negatives; pair label y is 0 for positives and
1 for negatives.

Pair streams are a pure function of (partition, ranks, co-occurrence,
config, epoch): one generator seeded with ``[seed, epoch]`` draws the
cluster shuffle, then, for each cluster in batch order:

1. PosC-near (when enabled for the cluster): the near cluster, then one
   partner per member, in member order;
2. NegC: per member, in member order, (far cluster, member of it) twice;
3. the positive subsample over the candidate list;
4. the negative subsample over the candidate list.

Candidate lists are ordered PosC pairs (i, j) by row-major i < j over the
ascending members, then PosC-near draws; NegC draws, then NVid pairs in
ascending order. A subsample is one ``rng.choice(total, size=quota)``,
without replacement unless the list is shorter than the quota. Changing
this draw order or the candidate order changes every mined pair after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CooccurrenceSet, sq_distances, unit_rows
from .labeling import members_by_label

POS_CLUSTER = "PosC"
POS_NEAR = "PosC-near"
NEG_CLUSTER = "NegC"
NEG_VIDEO = "NVid"

_SOURCE_NAMES = np.array([POS_CLUSTER, POS_NEAR, NEG_CLUSTER, NEG_VIDEO], dtype="U9")
_POS_CLUSTER, _POS_NEAR, _NEG_CLUSTER, _NEG_VIDEO = range(4)
_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class MiningConfig:
    z_near: int = 25
    z_far: int = 25
    small_cluster_threshold: int = 10
    clusters_per_batch: int = 5
    pos_per_cluster: int = 25
    neg_per_cluster: int = 25
    seed: int = 0
    # source toggles for the ablation runner
    use_pos_cluster: bool = True
    use_neg_cluster: bool = True
    use_neg_video: bool = True
    # extend near-cluster positives to every cluster, not only small ones
    near_positives_for_all: bool = False

    def validate(self) -> None:
        counts = (self.z_near, self.z_far, self.small_cluster_threshold,
                  self.clusters_per_batch, self.pos_per_cluster, self.neg_per_cluster)
        if any(v < 1 for v in counts):
            raise ValueError("all mining sizes must be positive")
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

    @property
    def num_positive(self) -> int:
        return int(np.sum(self.y == 0))

    def as_tuples(self) -> list[tuple[int, int, int, str]]:
        return list(zip(self.a.tolist(), self.b.tolist(), self.y.tolist(), self.source.tolist()))


@dataclass(frozen=True)
class ClusterRanks:
    """Per cluster: indices of the nearest and the farthest other clusters."""

    nearest: list[np.ndarray]
    farthest: list[np.ndarray]


def rank_clusters(means: np.ndarray, z_near: int = 25, z_far: int = 25) -> ClusterRanks:
    """Sort other clusters by Euclidean distance between normalized means.

    Lists truncate to M-1 entries when fewer than z other clusters exist;
    distance ties resolve toward the smaller cluster index.
    """
    means = np.asarray(means, dtype=np.float64)
    m = means.shape[0]
    if m < 2:
        raise ValueError("ranking needs at least 2 clusters")
    unit = unit_rows(means, lambda c: f"mean of cluster {c}")
    dist = sq_distances(unit, unit)
    nearest, farthest = [], []
    idx = np.arange(m)
    for c in range(m):
        others = idx[idx != c]
        row = dist[c, others]
        nearest.append(others[np.lexsort((others, row))][:z_near])
        farthest.append(others[np.lexsort((others, -row))][:z_far])
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


def _subsample(rng: np.random.Generator, total: int, quota: int) -> np.ndarray:
    """Indices of ``quota`` picks out of ``total`` candidates; with
    replacement only when there are fewer candidates than the quota."""
    if total == 0:
        return _NO_ROWS
    return rng.choice(total, size=quota, replace=total < quota)


def _triangle_pairs(mem: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode indices into the row-major list of pairs (mem[i], mem[j]), i < j."""
    n = mem.size
    i = np.arange(n, dtype=np.int64)
    row_start = i * n - i * (i + 1) // 2
    row = np.searchsorted(row_start, k, side="right") - 1
    col = k - row_start[row] + row + 1
    return mem[row], mem[col]


def _near_positive_draws(rng, mem, members, near, cooc):
    if near.size == 0:
        return _NO_ROWS, _NO_ROWS
    pool = members[int(near[rng.integers(0, near.size)])]
    partners = pool[rng.integers(0, pool.size, size=mem.size)]
    keep = ~cooc.contains_pairs(mem, partners)
    if keep.any():
        return mem[keep], partners[keep]
    # every draw hit a co-occurrence: fall back to enumerating allowed pairs
    a_parts, b_parts = [], []
    for g in near.tolist():
        pool = members[g]
        a = np.repeat(mem, pool.size)
        b = np.tile(pool, mem.size)
        keep = ~cooc.contains_pairs(a, b)
        a_parts.append(a[keep])
        b_parts.append(b[keep])
    return np.concatenate(a_parts), np.concatenate(b_parts)


def _far_negative_draws(rng, mem, members, far):
    """Two (far cluster, member) draws per member, each bound set by the
    cluster just drawn, so the draws stay scalar."""
    integers = rng.integers
    far_list = far.tolist()
    partners = np.empty(2 * mem.size, dtype=np.int64)
    for t in range(partners.size):
        pool = members[far_list[integers(0, len(far_list))]]
        partners[t] = pool[integers(0, pool.size)]
    return np.repeat(mem, 2), partners


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


def _mine_cluster(rng, c, members, ranks, cooc, video, cfg):
    """Chosen (a, b, source code) arrays for one cluster's positives and negatives."""
    mem = members[c]
    n = mem.size
    num_in_cluster = 0
    near_a = near_b = _NO_ROWS
    if cfg.use_pos_cluster:
        num_in_cluster = n * (n - 1) // 2
        if n < cfg.small_cluster_threshold or cfg.near_positives_for_all:
            near_a, near_b = _near_positive_draws(rng, mem, members, ranks.nearest[c], cooc)

    far_a = far_b = video_a = video_b = _NO_ROWS
    if cfg.use_neg_cluster and ranks.farthest[c].size:
        far_a, far_b = _far_negative_draws(rng, mem, members, ranks.farthest[c])
    if video is not None:
        first, second, indptr = video
        start, stop = indptr[c], indptr[c + 1]
        video_a, video_b = first[start:stop], second[start:stop]

    pick = _subsample(rng, num_in_cluster + near_a.size, cfg.pos_per_cluster)
    in_cluster = pick < num_in_cluster
    pos_a = np.empty(pick.size, dtype=np.int64)
    pos_b = np.empty(pick.size, dtype=np.int64)
    pos_a[in_cluster], pos_b[in_cluster] = _triangle_pairs(mem, pick[in_cluster])
    near_pick = pick[~in_cluster] - num_in_cluster
    pos_a[~in_cluster], pos_b[~in_cluster] = near_a[near_pick], near_b[near_pick]
    pos_src = np.where(in_cluster, _POS_CLUSTER, _POS_NEAR)

    pick = _subsample(rng, far_a.size + video_a.size, cfg.neg_per_cluster)
    neg_a = np.concatenate([far_a, video_a])[pick]
    neg_b = np.concatenate([far_b, video_b])[pick]
    neg_src = np.where(pick < far_a.size, _NEG_CLUSTER, _NEG_VIDEO)
    return (pos_a, pos_b, pos_src), (neg_a, neg_b, neg_src)


def _batch_from(pos: list, neg: list) -> PairBatch:
    rows = pos + neg
    a = np.concatenate([r[0] for r in rows])
    b = np.concatenate([r[1] for r in rows])
    num_pos = sum(r[0].size for r in pos)
    y = np.zeros(a.size, dtype=np.int64)
    y[num_pos:] = 1
    source = _SOURCE_NAMES[np.concatenate([r[2] for r in rows])]
    return PairBatch(a, b, y, source)


def mine_epoch(partition: np.ndarray, ranks: ClusterRanks, cooc: CooccurrenceSet,
               cfg: MiningConfig, epoch: int = 0) -> list[PairBatch]:
    """One epoch of batches: clusters in seeded-shuffled order, a fixed
    number per batch; a short final group wraps around to the start of the
    shuffle so every batch carries the full quota."""
    cfg.validate()
    labels = np.asarray(partition, dtype=np.int64)
    _check_cover(labels, cooc)
    m = int(labels.max()) + 1
    if m < 2:
        raise ValueError("mining needs a partition with at least 2 clusters")
    members = members_by_label(labels)
    video = _video_pairs(labels, m, cooc) if cfg.use_neg_video else None
    rng = np.random.default_rng([cfg.seed, epoch])
    order = rng.permutation(m)
    per_batch = cfg.clusters_per_batch
    num_batches = -(-m // per_batch)
    reps = -(-num_batches * per_batch // m)
    extended = np.tile(order, reps)[: num_batches * per_batch]

    batches = []
    for start in range(0, extended.size, per_batch):
        pos_rows: list = []
        neg_rows: list = []
        for c in extended[start:start + per_batch].tolist():
            pos, neg = _mine_cluster(rng, c, members, ranks, cooc, video, cfg)
            pos_rows.append(pos)
            neg_rows.append(neg)
        batches.append(_batch_from(pos_rows, neg_rows))
    return batches


def write_pairs_csv(batches: list[PairBatch], path) -> None:
    with open(path, "w") as fh:
        fh.write("a,b,y,source\n")
        for batch in batches:
            for a, b, y, source in batch.as_tuples():
                fh.write(f"{a},{b},{y},{source}\n")
