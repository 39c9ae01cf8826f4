"""Ward-linkage agglomerative clustering stopped at a target cluster count.

The merge sequence is computed with the nearest-neighbor-chain algorithm and
Lance-Williams updates of the variance-increase dissimilarity

    cost(A, B) = |A||B| / (|A|+|B|) * ||mean_A - mean_B||^2,

then sorted by cost; reducibility of Ward linkage makes the sorted sequence
identical to greedy minimum-cost merging.

Memory: one N x N float32 matrix, ~4*N^2 bytes (244 MiB at N = 8,000),
stored in groups of 8 interleaved rows: t[g, c, q] holds d(8g + q, c). A
matrix column is then N/8 runs of 8 contiguous floats, so the column write
of each merge touches N/8 cache lines, not N; a row is a view with a 32-byte
stride. ward_matrix_bytes gives the matrix's exact size, and ward_hac
refuses a matrix larger than physical memory before allocating it. The
distances are computed in float64 tiles of at most 256 x 512, on and above
the diagonal, each from only its own rows of the points converted to
float64, so float32 points are never copied whole; the build holds ~3 MiB
besides the matrix at D = 256. Each tile is rounded once to float32 and
stored twice, as itself and as its mirror, and the diagonal tile's lower
triangle copies its upper one, so the matrix is symmetric bitwise, as the
chain needs (with near-tied coincident points, an asymmetric one could make
it cycle). The merge loop and its Lance-Williams updates run in float32,
so merge costs are float32 values. It keeps contiguous copies of the rows
on its chain, so the strided row reads are one per chain step. Once half of
the live clusters have merged away the survivors are compacted in place
into the front of the same buffer.
"""

from __future__ import annotations

import os
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


# Rows and columns of a tile of the distance matrix, computed in one reused
# float64 buffer from only its own rows of the points, converted to float64.
_TILE_ROWS = 256
_TILE_COLS = 512
# Rows of a tile finished at once (sq_i + sq_j - 2 x_i.x_j, clamped, halved);
# bounds the float64 buffer of their sq_i + sq_j sums.
_PAIR_ROWS = 32
# Rows per group of the matrix layout: t[g, c, q] holds d(8g + q, c).
_GROUP = 8
# Chain positions whose rows the merge loop keeps as contiguous, penalized copies.
_CHAIN_ROWS = 64
# Rows packed per step when the loop compacts the matrix; a multiple of _GROUP.
_COMPACT_ROWS = 32


def ward_matrix_bytes(n: int) -> int:
    """Bytes of the grouped float32 distance matrix over n points."""
    return -(-n // _GROUP) * _GROUP * n * 4


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_ward_memory(n: int, units: str = "points") -> None:
    """ValueError when the distance matrix over n units exceeds physical memory."""
    need, have = ward_matrix_bytes(n), _physical_memory()
    if need > have:
        raise ValueError(f"Ward HAC over {n} {units} needs a {need}-byte distance matrix, "
                         f"more than the {have} bytes of physical memory")


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms in float64, from _TILE_ROWS converted rows at a time."""
    blocks = (np.asarray(points[a:a + _TILE_ROWS], dtype=np.float64)
              for a in range(0, points.shape[0], _TILE_ROWS))
    return np.concatenate([np.einsum("ij,ij->i", rows, rows) for rows in blocks])


def _half_sq_distances(points: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """max(||x_i - x_j||^2, 0) / 2 for all pairs, rounded once to float32.

    sq holds the squared row norms. The result is grouped: t[g, c, q] holds
    the entry of rows i = 8g + q and c, in a (ceil(N/8), N, 8) array whose
    padding rows past N are never read. It is built in tiles of at most
    _TILE_ROWS x _TILE_COLS, from each row block's first column on: a tile
    converts only its own rows of points to float64, takes (sq_i + sq_j -
    2 x_i.x_j), clamps and halves it in one reused float64 buffer, is rounded
    once to float32 and stored twice, as itself and as its mirror. The
    diagonal tile's lower triangle first copies its upper one, so the matrix
    is symmetric bitwise.
    """
    n = points.shape[0]
    t = np.empty((-(-n // _GROUP), n, _GROUP), dtype=np.float32)
    scratch = np.empty(min(n, _TILE_ROWS) * min(n, _TILE_COLS))
    rounded = np.empty(scratch.size, dtype=np.float32)
    pair = np.empty(min(n, _PAIR_ROWS) * min(n, _TILE_COLS))
    low = np.tri(min(n, _TILE_ROWS), k=-1, dtype=bool)
    for r0 in range(0, n, _TILE_ROWS):
        r1 = min(r0 + _TILE_ROWS, n)
        rows = r1 - r0
        # Doubling the left factor, not the product, keeps this a general GEMM:
        # NumPy sends x @ x.T to a symmetric kernel that rounds differently.
        left = np.multiply(points[r0:r1], 2.0, dtype=np.float64)
        for c0 in range(r0, n, _TILE_COLS):
            c1 = min(c0 + _TILE_COLS, n)
            tile = scratch[: rows * (c1 - c0)].reshape(rows, c1 - c0)
            out = rounded[: tile.size].reshape(tile.shape)
            np.matmul(left, np.asarray(points[c0:c1], dtype=np.float64).T, out=tile)
            for a in range(0, rows, _PAIR_ROWS):
                part = tile[a:a + _PAIR_ROWS]
                sums = pair[: part.size].reshape(part.shape)
                np.add.outer(sq[r0 + a:r0 + a + part.shape[0]], sq[c0:c1], out=sums)
                np.subtract(sums, part, out=part)
                np.maximum(part, 0.0, out=part)
                np.divide(part, 2.0, out=out[a:a + _PAIR_ROWS], casting="same_kind")
            if c0 == r0:
                square = out[:, :rows]
                np.copyto(square, square.T, where=low[:rows, :rows])
            _store(t, out, r0, c0)
            _store(t, out.T, c0, r0)
    return t


def _store(t: np.ndarray, block: np.ndarray, r0: int, c0: int) -> None:
    """Write block into the grouped matrix at rows r0.., columns c0..; r0 % _GROUP == 0."""
    rows, cols = block.shape
    g0, full, rest = r0 // _GROUP, rows // _GROUP, rows % _GROUP
    t[g0:g0 + full, c0:c0 + cols] = block[: full * _GROUP].reshape(full, _GROUP, cols).transpose(0, 2, 1)
    if rest:
        t[g0 + full, c0:c0 + cols, :rest] = block[full * _GROUP:].T


def _load_row(t: np.ndarray, slot: int, pen: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row slot of the grouped matrix plus the penalties, into out."""
    return np.add(t[slot // _GROUP, :, slot % _GROUP], pen, out=out)


def _nn_chain_merges(t: np.ndarray) -> list[tuple[int, int, float]]:
    """All N-1 Ward merges as (point_i, point_j, cost) in chain discovery order.

    t is the grouped float32 matrix of _half_sq_distances, used up as the
    loop's buffer. Slot s of the w x w matrix holds the cluster of point
    ids[s]. A merged-away slot keeps stale distances and is hidden by
    pen[s] = +inf when a row is read. The rows of the first _CHAIN_ROWS chain
    slots are kept as contiguous copies with the penalties added, patched at
    each merge, so re-reading a chain row and both Lance-Williams inputs need
    no strided read. Once half the slots are dead, the live ones are packed,
    in order, into the front of the same buffer, so ties resolve as they
    would on the uncompacted matrix.

    Each merge pops two chain entries and the chain ends empty, so a correct
    run pushes exactly 2(N-1) times; a push past that bound (a matrix holding
    NaN, or a fault in the loop) is a RuntimeError, not an endless loop.
    """
    n = width = t.shape[1]
    buf = t.reshape(-1)
    diag = np.arange(n)
    t[diag // _GROUP, diag, diag % _GROUP] = np.inf
    # float32 like the matrix: cluster sizes stay below 2^24, so they are exact.
    size = np.ones(n, dtype=np.float32)
    pen = np.zeros(n, dtype=np.float32)
    ids = np.arange(n)
    # Cached chain rows, then two spare rows for chain positions past them.
    rows = np.empty((_CHAIN_ROWS + 2, n), dtype=np.float32)
    # A whole column of t, padding rows included.
    merged = np.empty(t.shape[0] * _GROUP, dtype=np.float32)
    merges: list[tuple[int, int, float]] = []
    chain: list[int] = []
    pushes = 0

    while len(merges) < n - 1:
        if not chain:
            chain.append(int(np.argmin(pen[:width])))
            pushes += 1
            _load_row(t, chain[0], pen[:width], rows[0, :width])
        top, k = chain[-1], len(chain) - 1
        if k < _CHAIN_ROWS:
            row = rows[k, :width]
        else:
            row = _load_row(t, top, pen[:width], rows[_CHAIN_ROWS, :width])
        nn = int(np.argmin(row))
        if k and row[chain[-2]] <= row[nn]:
            prev = chain[-2]
            if k - 1 < _CHAIN_ROWS:
                prev_row = rows[k - 1, :width]
            else:
                prev_row = _load_row(t, prev, pen[:width], rows[_CHAIN_ROWS + 1, :width])
            keep, drop = min(prev, top), max(prev, top)
            dab = row[prev]
            merges.append((int(ids[keep]), int(ids[drop]), float(dab)))
            # Ward's recurrence. Penalized rows give +inf at dead slots, whose
            # values are never read unpenalized.
            keep_row, drop_row = (row, prev_row) if keep == top else (prev_row, row)
            na, nb, s = size[keep], size[drop], size[:width]
            merged[:width] = ((na + s) * keep_row + (nb + s) * drop_row - s * dab) / (na + nb + s)
            t[keep // _GROUP, :, keep % _GROUP] = merged[:width]
            t[:, keep] = merged[: t.shape[0] * _GROUP].reshape(-1, _GROUP)
            t[keep // _GROUP, keep, keep % _GROUP] = np.inf
            size[keep] = na + nb
            pen[drop] = np.inf
            del chain[-2:]
            cached = min(len(chain), _CHAIN_ROWS)
            # + 0.0 as a read adds the zero penalty: a -0.0 reads as +0.0.
            rows[:cached, keep] = merged[chain[:cached]] + np.float32(0.0)
            rows[:cached, drop] = np.inf
            live = n - len(merges)
            if 2 * live <= width:
                slots = np.flatnonzero(pen[:width] == 0.0)
                t = _compact(buf, t, slots)
                rows[:cached, :live] = rows[:cached, slots]
                size[:live] = size[slots]
                ids[:live] = ids[slots]
                pen[:live] = 0.0
                chain = np.searchsorted(slots, chain).tolist()
                width = live
        else:
            if pushes >= 2 * (n - 1):
                raise RuntimeError(f"NN-chain pushed past its bound of 2(N-1) = {2 * (n - 1)} "
                                   f"after {len(merges)} of {n - 1} merges")
            chain.append(nn)
            pushes += 1
            if k + 1 < _CHAIN_ROWS:
                _load_row(t, nn, pen[:width], rows[k + 1, :width])
    return merges


def _compact(buf: np.ndarray, t: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Pack the rows and columns of slots, in order, into the front of buf.

    Returns the grouped live x live matrix, built _COMPACT_ROWS rows at a
    time: the live columns of the old groups that hold those rows are
    gathered, then the rows picked from them. New row r lands before old row
    slots[r] >= r and live <= width / 2, so no write reaches a later read.
    """
    live = slots.size
    groups = -(-live // _GROUP)
    packed = buf[: groups * live * _GROUP].reshape(groups, live, _GROUP)
    # The last group's padding rows copy the last live row.
    src = np.pad(slots, (0, groups * _GROUP - live), mode="edge")
    for a in range(0, src.size, _COMPACT_ROWS):
        s = src[a:a + _COMPACT_ROWS]
        first = s[0] // _GROUP
        cols = t[first:s[-1] // _GROUP + 1][:, slots]
        part = cols[s // _GROUP - first, :, s % _GROUP]
        packed[a // _GROUP:(a + s.size) // _GROUP] = part.reshape(-1, _GROUP, live).transpose(0, 2, 1)
    return packed


def ward_hac(points: np.ndarray, c: int) -> HacResult:
    """Agglomerate N rows down to c clusters under Ward's criterion.

    Labels are contiguous, numbered by first occurrence; ties between equal
    merge costs resolve toward the earlier-discovered, smaller-index pair.
    The rows are read in their own dtype and converted to float64 a tile at
    a time. A row that is not finite, or too large for the float32 matrix,
    is a ValueError naming the first such row; so is a matrix larger than
    physical memory.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty 2-D matrix")
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"target cluster count {c} must lie in [1, {n}]")
    check_ward_memory(n)
    # Live Lance-Williams values stay below N max||x||^2 and their products
    # below 2 N^2 max||x||^2, so under this bound the float32 loop meets no
    # overflow (a dead slot may reach +inf, which its penalty hides anyway).
    # NaN and inf fail the comparison too.
    sq = _sq_norms(points)
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
