"""First-neighbor clustering hierarchy used to derive weak labels.

Each sample is linked to its single nearest neighbor and connected
components of the resulting undirected graph form the first partition
(samples sharing a first neighbor meet at that common endpoint, so the
shared-neighbor adjacency clause needs no edges of its own);
subsequent partitions repeat the linking over cluster means of the
original samples until the cluster count would stop shrinking past 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSet, cluster_means, unit_rows
from .labeling import link_components, relabel_contiguous
from .metrics import wcp

NEIGHBOR_CHUNK_ROWS = 128  # rows per distance block in `first_neighbors`


@dataclass(frozen=True)
class PartitionHierarchy:
    """Fine-to-coarse partitions.

    partitions[l] assigns every sample a contiguous label in [0, cluster_counts[l]);
    cluster_counts decrease strictly with l.
    """

    partitions: list[np.ndarray]
    cluster_counts: list[int]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition(self, index: int) -> np.ndarray:
        """1-based partition lookup; errors name the available depth L."""
        if not 1 <= index <= len(self.partitions):
            raise ValueError(
                f"partition index {index} out of range: hierarchy has L={len(self.partitions)} partitions")
        return self.partitions[index - 1]


def first_neighbors(points: np.ndarray) -> np.ndarray:
    """Index of each row's nearest other row under cosine distance.

    Distances are evaluated in float64 on l2-normalized rows, each pair once:
    a chunk of NEIGHBOR_CHUNK_ROWS rows against itself and every later row,
    in one reused block of at most NEIGHBOR_CHUNK_ROWS x M and a square copy
    of NEIGHBOR_CHUNK_ROWS of its columns at a time. The block's row minima
    serve its own rows and its column minima the later rows. Exact
    ties resolve to the smallest index (a best distance is replaced only by a
    strictly smaller one), which keeps chunked and serial results identical.
    """
    points = np.asarray(points)
    m = points.shape[0]
    if m < 2:
        raise ValueError(f"first_neighbors needs at least 2 rows, got {m}")
    unit = unit_rows(points)
    kappa = np.empty(m, dtype=np.int64)
    best = np.full(m, np.inf)
    buffer = np.empty(min(NEIGHBOR_CHUNK_ROWS, m) * m, dtype=np.float64)
    for start in range(0, m, NEIGHBOR_CHUNK_ROWS):
        stop = min(start + NEIGHBOR_CHUNK_ROWS, m)
        rows = np.arange(stop - start)
        dist = buffer[:rows.size * (m - start)].reshape(rows.size, m - start)
        np.matmul(unit[start:stop], unit[start:].T, out=dist)
        np.subtract(1.0, dist, out=dist)
        dist[rows, rows] = np.inf
        # the chunk's rows: earlier rows reached them through the column minima
        own = np.argmin(dist, axis=1)
        _improve(kappa[start:stop], best[start:stop], dist[rows, own], own + start)
        # later rows: argmin down each square strip of columns (a copy of the
        # strip), which finds the smallest row at the minimum
        later = dist[:, rows.size:]
        first = np.empty(later.shape[1], dtype=np.intp)
        for c in range(0, first.size, NEIGHBOR_CHUNK_ROWS):
            first[c:c + NEIGHBOR_CHUNK_ROWS] = np.argmin(
                later[:, c:c + NEIGHBOR_CHUNK_ROWS], axis=0)
        _improve(kappa[stop:], best[stop:], later[first, np.arange(first.size)], first + start)
    return kappa


def _improve(kappa, best, value, index) -> None:
    """Where ``value`` beats ``best`` strictly, take it and its ``index``."""
    better = value < best
    kappa[better] = index[better]
    best[better] = value[better]


def finch_hierarchy(data) -> PartitionHierarchy:
    """Build the full partition hierarchy for a FeatureSet or matrix.

    The recursion links l2-normalized cluster means of the original samples
    (not means of means) and stops before a partition would collapse to a
    single cluster or fail to reduce the count.
    """
    points = data.features if isinstance(data, FeatureSet) else np.asarray(data)
    if points.shape[0] < 2:
        raise ValueError("hierarchy needs at least 2 samples")

    labels = link_components(first_neighbors(points))
    partitions = [labels]
    counts = [int(labels.max()) + 1]

    while counts[-1] > 2:
        kappa = first_neighbors(cluster_means(points, partitions[-1]))
        meta = link_components(kappa)
        merged = relabel_contiguous(meta[partitions[-1]])
        m = int(merged.max()) + 1
        if m <= 1 or m >= counts[-1]:
            break
        partitions.append(merged)
        counts.append(m)

    return PartitionHierarchy(partitions, counts)


def partition_purity(labels: np.ndarray, gt: np.ndarray) -> float:
    """Weighted purity of one partition against ground truth."""
    acc, _, _ = wcp(labels, gt)
    return acc
