"""Dataset containers and feature-file IO.

Binary feature file layout (all little-endian):

    magic   b"CCLF"
    version u32 == 1
    N       u64
    D       u64
    flags   3 bytes: presence of frame_id / track_id / label arrays
    payload N*D float32, row-major
    arrays  each present index array, in flag order, as N int64

Nothing follows the last array: the file size must equal the declared size.

The CSV import path expects a header row ``frame_id,track_id,label,f0,...,f{D-1}``
with -1 marking unknown track/label entries; each feature cell must lie in
the float32 range, checked before the cast.

Frame co-occurrence is one sorted, duplicate-free int64 array of pair codes
``i * n + j`` (i < j, n feature rows) in a ``CooccurrenceSet``.

Row primitives shared by every stage: ``unit_rows`` (float64 rows over their
norms), ``sq_norms`` (float64 squared row norms), ``group_sums`` (per-group
row sums: k-means folds), ``GroupMeans`` (l2-normalized mean of each group of
rows, fed a block of rows at a time: ``cluster_means`` for FINCH's clusters
and cluster ranking, ``track_sums`` for tracks, given its row blocks) and
``finish_sq_distances`` (squared distances from products and norms of one
scale: ``sq_distances_from``, each Ward tile).
Each of them, cluster ranking, embedding and k-means' labels loop
over the `row_blocks` of BLOCK_ROWS rows, read at call time. Every per-group
sum is one sequential scatter-add, ``np.add.at`` of float64 values into a
flat m*D float64 buffer at ``label * D + column``: each group adds its rows
in row order, starting from 0.0, so rows fed in blocks sum to the same bits
as rows fed at once. A track-level run adds each block of embeddings into
per-track sums (T x H float64) and never holds the N x H embeddings.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"CCLF"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ???")

# Rows per step of every blocked row loop; bounds each loop's temporaries
# (float64 rows, int64 indices, distance or sort blocks) to this many rows.
BLOCK_ROWS = 256


class FeatureFileError(ValueError):
    """Raised for malformed, truncated, or non-finite feature files."""


def _check_rows(features: np.ndarray, *, reject_zero_rows: bool, where=None) -> None:
    """Reject the first non-finite (or zero-norm) row; ``where(r)``, when
    given, names row r's place in its file."""
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    problem = "non-finite value in feature row"
    if not bad.size and reject_zero_rows:
        # zero norm iff every entry is 0; a float32 norm underflows on tiny rows
        bad = np.flatnonzero(~features.any(axis=1))
        problem = "zero-norm feature row"
    if bad.size:
        r = int(bad[0])
        raise FeatureFileError(f"{problem} {r}" if where is None else f"{where(r)}: {problem}")


def _as_index(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class FeatureSet:
    """Per-face feature matrix with optional frame/track/label indices.

    ``features`` is an N x D float32 matrix. Index arrays, when present, hold
    one int64 per row; -1 marks an untracked row / unknown label.
    """

    features: np.ndarray
    frame_id: np.ndarray | None = None
    track_id: np.ndarray | None = None
    label: np.ndarray | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-D matrix, got shape {feats.shape}")
        _check_rows(feats, reject_zero_rows=False)
        object.__setattr__(self, "features", feats)
        n = feats.shape[0]
        for name in ("frame_id", "track_id", "label"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_index(value, n, name))

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        """Number of distinct known identities, assuming labels in [0, C)."""
        if self.label is None:
            return 0
        known = self.label[self.label >= 0]
        return 0 if known.size == 0 else int(known.max()) + 1

    def with_features(self, features: np.ndarray) -> "FeatureSet":
        """Same index arrays over a new feature matrix (row-aligned)."""
        return FeatureSet(features, self.frame_id, self.track_id, self.label)


class CooccurrenceSet:
    """Unordered pairs of distinct rows 0..n-1 whose faces share a frame.

    ``codes`` is the sorted, duplicate-free int64 array of ``i * n + j`` for
    each pair i < j; ``np.divmod(codes, n)`` gives the pairs back in
    lexicographic order. ``CooccurrenceSet()`` is the empty set.
    """

    def __init__(self, n: int = 0, first=(), second=()):
        first = np.asarray(first, dtype=np.int64).reshape(-1)
        second = np.asarray(second, dtype=np.int64).reshape(-1)
        lo, hi = np.minimum(first, second), np.maximum(first, second)
        bad = np.flatnonzero((lo < 0) | (hi >= n) | (lo == hi))
        if bad.size:
            k = bad[0]
            raise ValueError(f"co-occurrence pair ({first[k]}, {second[k]}) is not two "
                             f"distinct rows in [0, {n})")
        self.n = n
        self.codes = np.unique(lo * n + hi)

    def __len__(self) -> int:
        return self.codes.size

    def contains_pairs(self, a, b) -> np.ndarray:
        """Elementwise ``(a[k], b[k])`` is a stored pair, as a bool array."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        codes = lo * self.n + hi
        pos = np.searchsorted(self.codes, codes)
        found = (lo >= 0) & (hi < self.n) & (pos < self.codes.size)
        found[found] = self.codes[pos[found]] == codes[found]
        return found


def write_features(fs: FeatureSet, path) -> None:
    """Write a FeatureSet in the binary feature-file format."""
    n, d = fs.features.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n, d,
                              fs.frame_id is not None,
                              fs.track_id is not None,
                              fs.label is not None))
        fh.write(np.ascontiguousarray(fs.features, dtype="<f4").tobytes())
        for arr in (fs.frame_id, fs.track_id, fs.label):
            if arr is not None:
                fh.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())


def check_declared_size(fh, declared: int, shape: str, what: str, error) -> None:
    """Raise ``error`` unless the open file ``fh`` has the ``declared`` size of its
    header stating ``shape``: "truncated <what>" when shorter, else "trailing bytes"."""
    available = os.fstat(fh.fileno()).st_size
    if declared != available:
        problem = f"truncated {what}" if declared > available else "trailing bytes"
        raise error(f"{problem}: header declares {shape} ({declared} bytes), file has {available}")


def load_features(path) -> FeatureSet:
    """Load a binary feature file; rows are kept in file order, unnormalized.

    Raises FeatureFileError on a malformed header, a file size other than
    the header declares, a non-finite value, or a zero-norm row (naming the
    offending row).
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FeatureFileError("malformed header: file shorter than fixed header")
        magic, version, n, d, has_frame, has_track, has_label = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FeatureFileError(f"malformed header: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FeatureFileError(f"unsupported format version {version}")
        if n < 1 or d < 1:
            raise FeatureFileError(f"malformed header: N={n}, D={d}")
        declared = _HEADER.size + n * d * 4 + (has_frame + has_track + has_label) * n * 8
        check_declared_size(fh, declared, f"N={n}, D={d}", "payload", FeatureFileError)
        # the size check above guarantees every read below is complete
        features = np.frombuffer(fh.read(n * d * 4), dtype="<f4").reshape(n, d)
        arrays = {name: np.frombuffer(fh.read(n * 8), dtype="<i8").copy() if present else None
                  for name, present in (("frame_id", has_frame), ("track_id", has_track),
                                        ("label", has_label))}

    _check_rows(features, reject_zero_rows=True)
    return FeatureSet(features, **arrays)


def csv_rows(path, error=ValueError):
    """(line number, row) of each row of the CSV file at ``path``; a row the
    csv module cannot read, such as a cell over its field limit, is ``error``
    naming the file and line. Every CSV reader reads its file through it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise error(f"{path} line {reader.line_num}: {exc}") from None


def load_features_csv(path) -> FeatureSet:
    """Import features from CSV with header ``frame_id,track_id,label,f0,...``."""
    reader = csv_rows(path, FeatureFileError)
    _, header = next(reader, (0, None))
    if header is None:
        raise FeatureFileError("empty CSV file")
    if header[:3] != ["frame_id", "track_id", "label"]:
        raise FeatureFileError(f"bad CSV header: {header[:3]}")
    d = len(header) - 3
    expected = [f"f{i}" for i in range(d)]
    if d < 1 or header[3:] != expected:
        raise FeatureFileError("bad CSV header: feature columns must be f0..f{D-1}")
    frame, track, label, rows, lines = [], [], [], [], []
    for line, row in reader:
        where = f"{path} line {line}"
        if len(row) != d + 3:
            raise FeatureFileError(f"{where}: {len(row)} fields, expected {d + 3}")
        try:
            ids = [int(v) for v in row[:3]]
            rows.append([float(v) for v in row[3:]])
        except ValueError as exc:
            raise FeatureFileError(f"{where}: {exc}") from None
        if not -2**63 <= min(ids) <= max(ids) < 2**63:
            raise FeatureFileError(f"{where}: id outside the int64 range in {row[:3]}")
        frame.append(ids[0])
        track.append(ids[1])
        label.append(ids[2])
        lines.append(line)
    if not rows:
        raise FeatureFileError("CSV file has no data rows")
    values, largest = np.asarray(rows), float(np.finfo(np.float32).max)
    outside = np.flatnonzero((np.isfinite(values) & (np.abs(values) > largest)).any(axis=1))
    if outside.size:  # checked in float64, before the float32 cast would overflow
        raise FeatureFileError(f"{path} line {lines[outside[0]]}: value outside the float32 "
                               f"range [-{largest:.8g}, {largest:.8g}] in feature row")
    features = values.astype(np.float32)
    _check_rows(features, reject_zero_rows=True, where=lambda r: f"{path} line {lines[r]}")
    return FeatureSet(features, np.asarray(frame), np.asarray(track), np.asarray(label))


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of BLOCK_ROWS consecutive rows of n rows."""
    return [(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


def sq_norms(points) -> np.ndarray:
    """Squared row norms in float64, converting a block of rows at a time."""
    blocks = (np.asarray(points[start:stop], dtype=np.float64)
              for start, stop in row_blocks(points.shape[0]))
    return np.concatenate([np.einsum("ij,ij->i", rows, rows) for rows in blocks])


def unit_rows(x, name=lambda r: f"row {r}", *, in_place=False) -> np.ndarray:
    """Float64 rows over their norms: a copy of ``x``, or with ``in_place`` the
    float64 array ``x`` itself, divided a block of rows at a time; ValueError
    names the first zero-norm row ``name(r)``."""
    x = x if in_place else np.array(x, dtype=np.float64)
    for start, stop in row_blocks(x.shape[0]):
        block = x[start:stop]
        norms = np.linalg.norm(block, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(f"zero-norm {name(start + int(zero[0]))}")
        block /= norms[:, None]
    return x


def _scatter_add(sums: np.ndarray, rows, labels: np.ndarray) -> None:
    """Add each row, as float64, into ``sums[label]`` (an m x D C-contiguous
    float64 array): np.add.at on the flat buffer at ``label * D + column``,
    one block of rows per call."""
    flat = sums.reshape(-1)  # a view: np.add.at must write into sums itself
    d = sums.shape[1]
    columns = np.arange(d)
    for start, stop in row_blocks(len(rows)):
        np.add.at(flat, (labels[start:stop, None] * d + columns).reshape(-1),
                  np.asarray(rows[start:stop], dtype=np.float64).reshape(-1))


def group_sums(points, labels, m: int) -> np.ndarray:
    """Float64 sum of the rows labelled g, for each group g in [0, m); each
    group accumulates its rows in row order, starting from 0.0."""
    points = np.asarray(points)
    sums = np.zeros((m, points.shape[1]))
    _scatter_add(sums, points, np.asarray(labels, dtype=np.int64))
    return sums


class GroupMeans:
    """The l2-normalized mean of each group of rows, fed consecutive blocks of
    rows in row order with `add`, so the rows need never be held at once.
    ``labels`` gives every row's group; groups must be contiguous from 0, and
    ``name(g)`` names group g's mean in the zero-norm error."""

    def __init__(self, labels, dim: int, name):
        self.labels = np.asarray(labels, dtype=np.int64)
        m = int(self.labels.max()) + 1
        self.counts = np.bincount(self.labels, minlength=m)
        if np.any(self.counts == 0):
            raise ValueError(f"empty cluster {int(np.flatnonzero(self.counts == 0)[0])}")
        self.sums = np.zeros((m, dim))
        self.added = 0
        self.name = name

    def add(self, rows) -> "GroupMeans":
        """Add the next block of rows into their groups' sums."""
        start, self.added = self.added, self.added + len(rows)
        _scatter_add(self.sums, rows, self.labels[start:self.added])
        return self

    def means(self) -> np.ndarray:
        """The float64 means, once every row is added, made in the sums' array."""
        if self.added != self.labels.size:
            raise ValueError(f"{self.added} of {self.labels.size} rows added to the group sums")
        self.sums /= self.counts[:, None]
        return unit_rows(self.sums, self.name, in_place=True)


def cluster_means(points, labels, name=lambda c: f"mean of cluster {c}") -> np.ndarray:
    """Per-cluster mean of rows, l2-normalized; labels must be contiguous."""
    points = np.asarray(points)
    return GroupMeans(labels, points.shape[1], name).add(points).means()


def finish_sq_distances(d: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    """``d``, a float64 block of products, made in place into max((sq_a_i +
    sq_b_j) - d_ij, 0) a block of rows at a time (its norm sums are the only
    temporary). Products 2 a_i.b_j with norms |a_i|^2 give squared distances
    (`sq_distances_from`), a_i.b_j with |a_i|^2 / 2 half of them (Ward's tiles)."""
    for start, stop in row_blocks(d.shape[0]):
        rows = d[start:stop]
        np.subtract(np.add.outer(sq_a[start:stop], sq_b), rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return d


def sq_distances_from(a: np.ndarray):
    """``b`` -> the squared Euclidean distances from each row of ``a`` to each row
    of ``b``, finished in the product's array by `finish_sq_distances`; ``2a``
    and the norms of ``a`` are made once, for every ``b``."""
    # (2.0 * a) @ b.T stays a general GEMM when a is b; a @ a.T rounds differently
    doubled, sq_a = 2.0 * a, sq_norms(a)
    return lambda b: finish_sq_distances(doubled @ b.T, sq_a, sq_norms(b))


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from each row of ``a`` to each row of ``b``."""
    return sq_distances_from(a)(b)


def l2_normalize(fs: FeatureSet) -> FeatureSet:
    """Divide every row by its Euclidean norm; errors on a zero-norm row."""
    return fs.with_features(unit_rows(fs.features).astype(np.float32))


def track_units(fs: FeatureSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending track ids, each row's index into them and each track's label
    (-1 without labels), read without touching the features.

    Every row must carry a track_id >= 0, and all rows of a track must agree
    on the ground-truth label (tracks with mixed labels are rejected).
    """
    if fs.track_id is None:
        raise ValueError("track-level units need a track_id on every row")
    if np.any(fs.track_id < 0):
        bad = int(np.flatnonzero(fs.track_id < 0)[0])
        raise ValueError(f"row {bad} has no track_id (-1)")

    ids, first, inverse = np.unique(fs.track_id, return_index=True, return_inverse=True)
    labels = fs.label if fs.label is not None else np.full(fs.num_samples, -1, dtype=np.int64)
    mixed = labels != labels[first][inverse]
    if mixed.any():
        tid = fs.track_id[mixed].min()
        distinct = np.unique(labels[fs.track_id == tid])
        raise ValueError(f"track {tid} has mixed labels {distinct.tolist()}")
    return ids, inverse, labels[first]


def track_sums(units, dim: int, blocks=()) -> GroupMeans:
    """Per-track sums of ``dim`` columns over the rows that ``units``, a
    `track_units` result, maps to tracks, with the consecutive row ``blocks``
    added in row order: its means come one per track in `track_units` order,
    and a zero-norm one names its track id."""
    ids, inverse, _ = units
    tracks = GroupMeans(inverse, dim, lambda t: f"mean of track {ids[t]}")
    for rows in blocks:
        tracks.add(rows)
    return tracks


def aggregate_tracks(fs: FeatureSet) -> FeatureSet:
    """One row per track, by ascending track_id: the l2-normalized mean of
    the track's rows, with its track_id and label and no frame ids; the
    tracks and their labels are those of track_units.
    """
    units = track_units(fs)
    means = track_sums(units, fs.dim, [fs.features]).means()
    return FeatureSet(means.astype(np.float32), track_id=units[0], label=units[2])


def build_cooccurrence(fs: FeatureSet) -> CooccurrenceSet:
    """All unordered pairs of distinct rows sharing a frame_id >= 0."""
    if fs.frame_id is None:
        raise ValueError("build_cooccurrence requires frame_id for every row")
    order = np.argsort(fs.frame_id, kind="stable")
    order = order[fs.frame_id[order] >= 0]
    frames = fs.frame_id[order]
    # position p pairs with every later position of its frame group
    group_end = np.searchsorted(frames, frames, side="right")
    count = group_end - np.arange(order.size) - 1
    first = np.repeat(np.arange(order.size), count)
    offset = np.arange(first.size) - np.repeat(np.cumsum(count) - count, count)
    return CooccurrenceSet(fs.num_samples, order[first], order[first + 1 + offset])
