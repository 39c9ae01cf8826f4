"""Ward-linkage agglomerative clustering stopped at a target cluster count.

The merge sequence is computed with the nearest-neighbor-chain algorithm and
Lance-Williams updates of the variance-increase dissimilarity

    cost(A, B) = |A||B| / (|A|+|B|) * ||mean_A - mean_B||^2,

then sorted by cost; reducibility of Ward linkage makes the sorted sequence
identical to greedy minimum-cost merging.

Memory: the lower triangle of the N x N float32 matrix, packed in ragged
groups of 8 rows: group g holds rows 8g..8g+7 at columns 0..8g+7, as one
contiguous (8g + 8, 8) block from run 4g(g+1) of a (4G(G+1), 8) array with
G = ceil(N/8). ward_matrix_bytes(N) = 128 G(G+1), ~2*N^2 bytes (122 MiB at
N = 8,000). A row is its own group's columns, one view with a 32-byte
stride, and one run of 8 contiguous floats in each later group, taken with
one gather of whole runs; the merged row and column are written the same
way, so a column write touches N/8 cache lines, not N. ward_hac refuses a
matrix larger than physical memory, or than the memory limit of the
process's cgroup or of one of its ancestors, before allocating it. The
distances are computed in float64 tiles of at most 256 x 512, on and above
the diagonal, each from only its own rows of the points converted to
float64, so float32 points are never copied whole; the build holds ~2.8 MiB
besides the matrix at D = 256. Each tile of products x_i.x_j is finished
whole into d^2 / 2 by data.finish_sq_distances from the halved squared
norms and rounded to float32 as it is stored, once, as its mirror; the
diagonal is +inf. The 8 x 8 diagonal blocks are stored whole, and the
diagonal tile's lower triangle copies its upper one, so the matrix is
symmetric bitwise, as the chain needs (with near-tied coincident points, an
asymmetric one could make it cycle). The merge loop and its Lance-Williams
updates run in float32, so merge costs are float32 values. It keeps
contiguous copies of the rows on its chain, so the packed row reads are one
per chain step. Once half of the live clusters have merged away the
survivors are compacted in place, one 8-row block at a time, into the
layout of their own count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import finish_sq_distances, sq_norms
from .labeling import link_components
from .memory import memory_limit


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
# Rows per group of the packed layout: group g holds rows 8g..8g+7 at columns 0..8g+7.
_GROUP = 8
# Chain positions whose rows the merge loop keeps as contiguous, penalized copies.
_CHAIN_ROWS = 64


def _groups(n: int) -> int:
    return -(-n // _GROUP)


def _group_starts(n: int) -> np.ndarray:
    """First run of each group g = 0..ceil(n/8) of the packed layout, 4g(g+1)."""
    g = np.arange(_groups(n) + 1)
    return _GROUP // 2 * g * (g + 1)


def ward_matrix_bytes(n: int) -> int:
    """Bytes of the packed float32 distance matrix over n points, 128 G(G+1)
    with G = ceil(n/8)."""
    groups = _groups(n)
    return _GROUP // 2 * groups * (groups + 1) * _GROUP * 4


def check_ward_memory(n: int, units: str = "points") -> None:
    """ValueError when the distance matrix over n units exceeds physical
    memory or, when smaller, the memory limit of the process's cgroup or
    of one of its ancestors."""
    need, (have, which) = ward_matrix_bytes(n), memory_limit()
    if need > have:
        raise ValueError(f"Ward HAC over {n} {units} needs a {need}-byte distance matrix, "
                         f"more than the {have}{which}")


def _half_sq_distances(points: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """max(||x_i - x_j||^2, 0) / 2 for pairs i != j, +inf for i = j, in float32.

    sq holds the squared row norms. The result is the packed lower triangle
    of the module docstring: t[4g(g+1) + c, q] holds the entry of rows
    8g + q and c <= 8g + 7; rows and columns past N, in the last group, are
    padding and never read. It is built in tiles of at most _TILE_ROWS x
    _TILE_COLS, from each row block's first column on: a tile converts only
    its own rows of points to float64, takes x_i.x_j in one reused float64
    buffer, finishes it there into d^2 / 2 with data.finish_sq_distances and
    the halved norms, and is rounded once to float32 as it is stored, as its
    mirror. The diagonal tile's diagonal is +inf, and its lower triangle
    copies its upper one, so the 8 x 8 diagonal blocks are symmetric bitwise.
    """
    n = points.shape[0]
    start = _group_starts(n)
    t = np.empty((start[-1], _GROUP), dtype=np.float32)
    scratch = np.empty(min(n, _TILE_ROWS) * min(n, _TILE_COLS))
    half = sq / 2.0
    low = np.tri(min(n, _TILE_ROWS), k=-1, dtype=bool)
    for r0 in range(0, n, _TILE_ROWS):
        r1 = min(r0 + _TILE_ROWS, n)
        rows = r1 - r0
        # A copy: as a view of the right factor's rows, x @ x.T goes to syrk, which rounds differently.
        left = np.array(points[r0:r1], dtype=np.float64)
        for c0 in range(r0, n, _TILE_COLS):
            c1 = min(c0 + _TILE_COLS, n)
            tile = scratch[: rows * (c1 - c0)].reshape(rows, c1 - c0)
            np.matmul(left, np.asarray(points[c0:c1], dtype=np.float64).T, out=tile)
            finish_sq_distances(tile, half[r0:r1], half[c0:c1])
            if c0 == r0:
                square = tile[:, :rows]
                np.fill_diagonal(square, np.inf)
                np.copyto(square, square.T, where=low[:rows, :rows])
            _store_mirror(t, start, tile, r0, c0)
    return t


def _store_mirror(t: np.ndarray, start: np.ndarray, tile: np.ndarray, r0: int, c0: int) -> None:
    """Store the tile at rows r0.., columns c0.. >= r0 as its mirror: column
    j of the tile at row j, columns r0.., clipped to the width of j's group."""
    rows, cols = tile.shape
    for c in range(0, cols, _GROUP):
        g = (c0 + c) // _GROUP
        keep = min(rows, _GROUP * (g + 1) - r0)
        t[start[g] + r0:start[g] + r0 + keep, :cols - c] = tile[:keep, c:c + _GROUP]


def _read_row(t: np.ndarray, start: np.ndarray, slot: int, width: int, out: np.ndarray) -> np.ndarray:
    """Row slot of the packed width x width matrix into out; returns out[:width].

    Its columns in its own group are one view with a 32-byte stride; each
    later group holds its columns as one run of 8 floats, taken whole, so out
    covers whole groups (8 ceil(width/8) floats).
    """
    g, q = divmod(slot, _GROUP)
    own = min(_GROUP * (g + 1), width)
    out[:own] = t[start[g]:start[g] + own, q]
    if own < width:
        # Run start[h] + slot of t is run start[h] of t[slot:]; indexing the
        # view saves building the shifted index.
        runs = start[g + 1:_groups(width)]
        t[slot:].take(runs, axis=0, out=out[own:own + _GROUP * runs.size].reshape(-1, _GROUP), mode="clip")
    return out[:width]


def _write_merged(t: np.ndarray, start: np.ndarray, slot: int, width: int, values: np.ndarray) -> None:
    """values[:width] as row and column slot of the packed width x width
    matrix, with d(slot, slot) = +inf.

    The row part is slot's own group's columns. The column part starts at
    slot's own group, whose 8 x 8 diagonal block is stored whole, and writes
    runs of 8 floats, so values covers whole groups (8 ceil(width/8) floats).
    """
    g, q = divmod(slot, _GROUP)
    own, groups = min(_GROUP * (g + 1), width), _groups(width)
    t[start[g]:start[g] + own, q] = values[:own]
    t[slot:][start[g:groups]] = values[_GROUP * g:_GROUP * groups].reshape(-1, _GROUP)
    t[start[g] + slot, q] = np.inf


def _compact(t: np.ndarray, start: np.ndarray, slots: np.ndarray) -> None:
    """Pack the rows and columns of slots, in order, into the layout of width
    slots.size, in place.

    Group starts do not depend on the width, so new group g lands on old
    group g's runs. It is built from old rows slots[8g..8g+7] >= 8g at old
    columns up to slots[8g+7]: it reads only old groups >= g, so no write
    reaches a later read. One 8-row block of old rows is held at a time.
    """
    block = np.empty((_GROUP, _GROUP * _groups(int(slots[-1]) + 1)), dtype=np.float32)
    for g in range(_groups(slots.size)):
        rows = slots[_GROUP * g:_GROUP * (g + 1)]
        width = int(rows[-1]) + 1
        for q, slot in enumerate(rows.tolist()):
            _read_row(t, start, slot, width, block[q])
        cols = slots[:_GROUP * g + rows.size]
        t[start[g]:start[g] + cols.size, :rows.size] = block[:rows.size, cols].T


def _load_row(t: np.ndarray, start: np.ndarray, slot: int, width: int, pen: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Row slot of the packed matrix plus the penalties, into out; returns out[:width]."""
    row = _read_row(t, start, slot, width, out)
    return np.add(row, pen[:width], out=row)


def _nn_chain_merges(t: np.ndarray, n: int) -> list[tuple[int, int, float]]:
    """All N-1 Ward merges as (point_i, point_j, cost) in chain discovery order.

    t is the packed float32 matrix of _half_sq_distances over n points, used
    up as the loop's buffer. Slot s of the width x width matrix holds the
    cluster of point ids[s]. A merged-away slot keeps stale distances and is
    hidden by pen[s] = +inf when a row is read. The rows of the first
    _CHAIN_ROWS chain slots are kept as contiguous copies with the penalties
    added, patched at each merge, so re-reading a chain row and both
    Lance-Williams inputs need no packed read. Once half the slots are dead,
    the live ones are packed, in order, into the layout of the live width, so
    ties resolve as they would on the uncompacted matrix.

    Each merge pops two chain entries and the chain ends empty, so a correct
    run pushes exactly 2(N-1) times; a push past that bound (a matrix holding
    NaN, or a fault in the loop) is a RuntimeError, not an endless loop.
    """
    width = n
    start = _group_starts(n)
    # float32 like the matrix: cluster sizes stay below 2^24, so they are exact.
    size = np.ones(n, dtype=np.float32)
    pen = np.zeros(n, dtype=np.float32)
    ids = np.arange(n)
    # Cached chain rows, then two spare rows for chain positions past them; like
    # the merged row, each covers whole groups, as the packed reads and writes do.
    rows = np.empty((_CHAIN_ROWS + 2, _GROUP * _groups(n)), dtype=np.float32)
    merged = np.empty(rows.shape[1], dtype=np.float32)
    merges: list[tuple[int, int, float]] = []
    chain: list[int] = []
    pushes = 0

    while len(merges) < n - 1:
        if not chain:
            chain.append(int(np.argmin(pen[:width])))
            pushes += 1
            _load_row(t, start, chain[0], width, pen, rows[0])
        top, k = chain[-1], len(chain) - 1
        if k < _CHAIN_ROWS:
            row = rows[k, :width]
        else:
            row = _load_row(t, start, top, width, pen, rows[_CHAIN_ROWS])
        nn = int(np.argmin(row))
        if k and row[chain[-2]] <= row[nn]:
            prev = chain[-2]
            if k - 1 < _CHAIN_ROWS:
                prev_row = rows[k - 1, :width]
            else:
                prev_row = _load_row(t, start, prev, width, pen, rows[_CHAIN_ROWS + 1])
            keep, drop = min(prev, top), max(prev, top)
            dab = row[prev]
            merges.append((int(ids[keep]), int(ids[drop]), float(dab)))
            # Ward's recurrence. Penalized rows give +inf at dead slots, whose
            # values are never read unpenalized.
            keep_row, drop_row = (row, prev_row) if keep == top else (prev_row, row)
            na, nb, s = size[keep], size[drop], size[:width]
            merged[:width] = ((na + s) * keep_row + (nb + s) * drop_row - s * dab) / (na + nb + s)
            _write_merged(t, start, keep, width, merged)
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
                _compact(t, start, slots)
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
                _load_row(t, start, nn, width, pen, rows[k + 1])
    return merges


def ward_hac(points: np.ndarray, c: int) -> HacResult:
    """Agglomerate N rows down to c clusters under Ward's criterion.

    Labels are contiguous, numbered by first occurrence; ties between equal
    merge costs resolve toward the earlier-discovered, smaller-index pair.
    The rows are read in their own dtype and converted to float64 a tile at
    a time. A row that is not finite, or too large for the float32 matrix,
    is a ValueError naming the first such row; so is a matrix larger than
    physical memory or the memory limit of the process's cgroups.
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
    sq = sq_norms(points)
    limit = np.finfo(np.float32).max / (2.0 * n * n)
    bad = np.flatnonzero(~(sq <= limit))
    if bad.size:
        raise ValueError(f"point row {bad[0]} is not finite or its squared norm exceeds "
                         f"{limit:.3g}, the float32 limit of Ward HAC at N = {n}")
    if c == n:
        return HacResult(np.arange(n, dtype=np.int64), [])

    merges = _nn_chain_merges(_half_sq_distances(points, sq), n)
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
