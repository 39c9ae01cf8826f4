"""Ward-linkage agglomerative clustering stopped at a target cluster count.

The merge sequence is computed with the nearest-neighbor-chain algorithm and
Lance-Williams updates of the variance-increase dissimilarity

    cost(A, B) = |A||B| / (|A|+|B|) * ||mean_A - mean_B||^2,

then sorted by cost; reducibility of Ward linkage makes the sorted sequence
identical to greedy minimum-cost merging.

Memory: one N x N float64 buffer, ~8*N^2 bytes. The distances are built in
the output of the single Gram-matrix product, 16 rows at a time through a
16 x N scratch block (1 MiB at N = 8,000), and once half of the live
clusters have merged away the survivors are compacted in place into the
front of the same buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labeling import link_components


@dataclass(frozen=True)
class HacResult:
    """Labels at the stopping count plus the merges that produced them.

    merge_log rows are (cluster_a, cluster_b, cost) with cluster ids in the
    usual dendrogram convention: points are 0..N-1 and the t-th merge creates
    cluster N+t; costs are non-decreasing.
    """

    labels: np.ndarray
    merge_log: list[tuple[int, int, float]]

    @property
    def num_clusters(self) -> int:
        return int(self.labels.max()) + 1


# Rows of the distance matrix built per step; bounds the scratch array and
# keeps it in cache.
_BLOCK_ROWS = 16


def _half_sq_distances(points: np.ndarray) -> np.ndarray:
    """max(||x_i - x_j||^2, 0) / 2 for all pairs, built in the GEMM's own output.

    Rounds exactly like (sq_i + sq_j - 2 x_i.x_j) clamped and halved; only a
    block of rows of sq_i + sq_j is held besides the N x N result.
    """
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    # Doubling the left factor, not the product, keeps this a general GEMM:
    # NumPy sends points @ points.T to a symmetric kernel that rounds differently.
    d2 = (2.0 * points) @ points.T
    scratch = np.empty((min(n, _BLOCK_ROWS), n))
    for start in range(0, n, _BLOCK_ROWS):
        rows = d2[start:start + _BLOCK_ROWS]
        sums = scratch[: rows.shape[0]]
        np.add(sq[start:start + rows.shape[0], None], sq[None, :], out=sums)
        np.subtract(sums, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        rows /= 2.0
    return d2


def _nn_chain_merges(points: np.ndarray) -> list[tuple[int, int, float]]:
    """All N-1 Ward merges as (point_i, point_j, cost) in chain discovery order.

    Slot s of the w x w matrix holds the cluster of point ids[s]. A merged-away
    slot keeps stale distances and is hidden by pen[s] = +inf when a row is
    read. Once half the slots are dead, the live ones are packed, in order,
    into the front of the same buffer, so ties resolve as they would on the
    uncompacted matrix.
    """
    n = width = points.shape[0]
    d2 = _half_sq_distances(points)
    buf = d2.reshape(-1)
    np.fill_diagonal(d2, np.inf)
    size = np.ones(n)
    pen = np.zeros(n)
    ids = np.arange(n)
    row = np.empty(n)
    merges: list[tuple[int, int, float]] = []
    chain: list[int] = []

    while len(merges) < n - 1:
        if not chain:
            chain.append(int(np.argmin(pen[:width])))
        top = chain[-1]
        np.add(d2[top], pen[:width], out=row[:width])
        nn = int(np.argmin(row[:width]))
        dist = row[nn]
        if len(chain) >= 2 and d2[top, chain[-2]] <= dist:
            prev = chain.pop(-2)
            chain.pop()
            keep, drop = min(prev, top), max(prev, top)
            merges.append((int(ids[keep]), int(ids[drop]), float(d2[top, prev])))
            _lance_williams(d2, size[:width], keep, drop)
            pen[drop] = np.inf
            live = n - len(merges)
            if 2 * live <= width:
                slots = np.flatnonzero(pen[:width] == 0.0)
                # Row r lands at offset r*live, never past its source row
                # slots[r] >= r, so no row is overwritten before it is read.
                for r, s in enumerate(slots):
                    buf[r * live:(r + 1) * live] = d2[s, slots]
                d2 = buf[: live * live].reshape(live, live)
                size[:live] = size[slots]
                ids[:live] = ids[slots]
                pen[:live] = 0.0
                chain = np.searchsorted(slots, chain).tolist()
                width = live
        else:
            chain.append(nn)
    return merges


def _lance_williams(d2: np.ndarray, size: np.ndarray, keep: int, drop: int) -> None:
    """Merge cluster slots keep+drop into keep with the Ward recurrence.

    Dead slots are updated too; their values are never read unpenalized.
    """
    na, nb = size[keep], size[drop]
    dab = d2[keep, drop]
    merged = ((na + size) * d2[keep] + (nb + size) * d2[drop] - size * dab) / (na + nb + size)
    d2[keep] = merged
    d2[:, keep] = merged
    d2[keep, keep] = np.inf
    size[keep] = na + nb


def ward_hac(points: np.ndarray, c: int) -> HacResult:
    """Agglomerate N rows down to c clusters under Ward's criterion.

    Labels are contiguous, numbered by first occurrence; ties between equal
    merge costs resolve toward the earlier-discovered, smaller-index pair.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty 2-D matrix")
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"target cluster count {c} must lie in [1, {n}]")
    if c == n:
        return HacResult(np.arange(n, dtype=np.int64), [])

    merges = _nn_chain_merges(points)
    order = np.argsort([m[2] for m in merges], kind="stable")

    # Replay the n-c cheapest merges. By Ward's reducibility each sorts after the
    # merges that formed its clusters, so a dropped point j never represents a
    # cluster again: node[i] alone holds the dendrogram id and succ[j] = i links.
    node = list(range(n))
    succ = np.arange(n)
    merge_log: list[tuple[int, int, float]] = []
    for t, idx in enumerate(order[: n - c].tolist()):
        i, j, cost = merges[idx]
        a, b = node[i], node[j]
        merge_log.append((min(a, b), max(a, b), cost))
        node[i] = n + t
        succ[j] = i
    return HacResult(link_components(succ), merge_log)
