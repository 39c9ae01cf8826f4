"""Ward-linkage agglomerative clustering stopped at a target cluster count.

The merge sequence is computed with the nearest-neighbor-chain algorithm and
Lance-Williams updates of the variance-increase dissimilarity

    cost(A, B) = |A||B| / (|A|+|B|) * ||mean_A - mean_B||^2,

then sorted by cost; reducibility of Ward linkage makes the sorted sequence
identical to greedy minimum-cost merging.

Memory: one N x N float32 matrix, ~4*N^2 bytes (244 MiB at N = 8,000). The
distances are computed in float64, 256 rows at a time through one reused
256 x N float64 block (16 MiB at N = 8,000), and rounded once into the
matrix. A block's GEMM covers only the columns from its first row on, and
every entry below the diagonal is copied from its mirror, so the matrix is
symmetric bitwise, as the chain needs (with near-tied coincident points, an
asymmetric one could make it cycle). The merge loop and its Lance-Williams
updates run in float32, so merge costs are float32 values. Once half of the
live clusters have merged away the survivors are compacted in place into the
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


# Rows of the distance matrix built per step; bounds the float64 scratch block.
_BLOCK_ROWS = 256


def _half_sq_distances(points: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """max(||x_i - x_j||^2, 0) / 2 for all pairs, rounded once to float32.

    sq holds the squared row norms. Each block of rows is computed from its
    first row's column on as (sq_i + sq_j - 2 x_i.x_j), clamped and halved in
    one reused float64 block, so no N x N float64 array exists. Entries below
    the diagonal copy their mirror, so the matrix is symmetric bitwise.
    """
    n = points.shape[0]
    # Doubling the left factor, not the product, keeps this a general GEMM:
    # NumPy sends points @ points.T to a symmetric kernel that rounds differently.
    twice = 2.0 * points
    d2 = np.empty((n, n), dtype=np.float32)
    scratch = np.empty(min(n, _BLOCK_ROWS) * n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = scratch[: (stop - start) * (n - start)].reshape(stop - start, n - start)
        np.matmul(twice[start:stop], points[start:].T, out=block)
        # Row by row, so sq_i + sq_j needs one N-vector, not a second block.
        for row, sq_i in zip(block, sq[start:stop]):
            np.subtract(sq_i + sq[start:], row, out=row)
        np.maximum(block, 0.0, out=block)
        block /= 2.0
        d2[start:stop, start:] = block
        # Left of the diagonal: the finished rows above, then this block's own.
        d2[start:stop, :start] = d2[:start, start:stop].T
        for r in range(start + 1, stop):
            d2[r, start:r] = d2[start:r, r]
    return d2


def _nn_chain_merges(d2: np.ndarray) -> list[tuple[int, int, float]]:
    """All N-1 Ward merges as (point_i, point_j, cost) in chain discovery order.

    d2 is the float32 matrix of _half_sq_distances, used up as the loop's
    buffer. Slot s of the w x w matrix holds the cluster of point ids[s]. A
    merged-away slot keeps stale distances and is hidden by pen[s] = +inf when
    a row is read. Once half the slots are dead, the live ones are packed, in
    order, into the front of the same buffer, so ties resolve as they would on
    the uncompacted matrix.
    """
    n = width = d2.shape[0]
    buf = d2.reshape(-1)
    np.fill_diagonal(d2, np.inf)
    # float32 like the matrix: cluster sizes stay below 2^24, so they are exact.
    size = np.ones(n, dtype=np.float32)
    pen = np.zeros(n, dtype=np.float32)
    ids = np.arange(n)
    row = np.empty(n, dtype=np.float32)
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
    A row that is not finite, or too large for the float32 matrix, is a
    ValueError naming the first such row.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty 2-D matrix")
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"target cluster count {c} must lie in [1, {n}]")
    # Live Lance-Williams values stay below N max||x||^2 and their products
    # below 2 N^2 max||x||^2, so under this bound the float32 loop meets no
    # overflow (a dead slot may reach +inf, which its penalty hides anyway).
    # NaN and inf fail the comparison too.
    sq = np.einsum("ij,ij->i", points, points)
    limit = np.finfo(np.float32).max / (2.0 * n * n)
    bad = np.flatnonzero(~(sq <= limit))
    if bad.size:
        raise ValueError(f"point row {bad[0]} is not finite or its squared norm exceeds "
                         f"{limit:.3g}, the float32 limit of Ward HAC at N = {n}")
    if c == n:
        return HacResult(np.arange(n, dtype=np.int64), [])

    merges = _nn_chain_merges(_half_sq_distances(points, sq))
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
