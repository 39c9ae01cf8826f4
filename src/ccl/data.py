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
with -1 marking unknown track/label entries.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAGIC = b"CCLF"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ???")


class FeatureFileError(ValueError):
    """Raised for malformed, truncated, or non-finite feature files."""


def _check_rows(features: np.ndarray, *, reject_zero_rows: bool) -> None:
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise FeatureFileError(f"non-finite value in feature row {bad[0]}")
    if reject_zero_rows:
        zero = np.flatnonzero(np.linalg.norm(features, axis=1) == 0.0)
        if zero.size:
            raise FeatureFileError(f"zero-norm feature row {zero[0]}")


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


@dataclass(frozen=True)
class TrackFeatureSet:
    """One l2-normalized mean feature row per track, ascending track_id."""

    features: np.ndarray
    track_id: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        object.__setattr__(self, "features", feats)
        t = feats.shape[0]
        object.__setattr__(self, "track_id", _as_index(self.track_id, t, "track_id"))
        object.__setattr__(self, "label", _as_index(self.label, t, "label"))

    @property
    def num_tracks(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class _CooccurrenceIndex:
    """Array form of a co-occurrence set over rows 0..n-1.

    ``codes`` holds ``i * n + j`` for every stored pair (i, j), ascending, so
    it sorts in lexicographic pair order. ``indptr``/``partners`` is the CSR
    adjacency: row r's partners are ``partners[indptr[r]:indptr[r + 1]]``.
    """

    n: int
    codes: np.ndarray
    indptr: np.ndarray
    partners: np.ndarray

    @classmethod
    def build(cls, pairs: frozenset) -> "_CooccurrenceIndex":
        arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        lo, hi = arr[:, 0], arr[:, 1]
        if np.any(lo < 0) or np.any(lo > hi):
            raise ValueError("co-occurrence pairs must be stored as (i, j) with 0 <= i <= j")
        n = int(hi.max()) + 1 if hi.size else 0
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, np.sort(lo * n + hi), indptr, dst[order])

    def pair_codes(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Codes of the unordered pairs (a[k], b[k]) and whether each is in range."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return lo * self.n + hi, (lo >= 0) & (hi < self.n)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, partner) for every adjacency entry of the in-range ``rows``."""
        rows = rows[(rows >= 0) & (rows < self.n)]
        start = self.indptr[rows]
        count = self.indptr[rows + 1] - start
        offsets = np.repeat(start - (np.cumsum(count) - count), count)
        return np.repeat(rows, count), self.partners[offsets + np.arange(offsets.size)]


def _as_rows(rows) -> np.ndarray:
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    return np.asarray(rows, dtype=np.int64).reshape(-1)


@dataclass(frozen=True)
class CooccurrenceSet:
    """Unordered pairs of row indices whose faces appear in the same frame.

    Each pair is stored as (i, j) with i <= j. Lookups go through an array
    index built on first use and cached on the instance.
    """

    pairs: frozenset = field(default_factory=frozenset)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        i, j = pair
        return (min(i, j), max(i, j)) in self.pairs

    @cached_property
    def _index(self) -> _CooccurrenceIndex:
        return _CooccurrenceIndex.build(self.pairs)

    def contains_pairs(self, a, b) -> np.ndarray:
        """Elementwise ``(a[k], b[k]) in self`` as a bool array."""
        index = self._index
        codes, valid = index.pair_codes(_as_rows(a), _as_rows(b))
        pos = np.searchsorted(index.codes, codes)
        found = valid & (pos < index.codes.size)
        found[found] = index.codes[pos[found]] == codes[found]
        return found

    def touching_arrays(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """``touching(rows)`` as arrays of first and second pair endpoints."""
        index = self._index
        row, partner = index.gather(_as_rows(rows))
        codes = np.unique(index.pair_codes(row, partner)[0])
        return np.divmod(codes, index.n)

    def touching(self, rows) -> list[tuple[int, int]]:
        """Pairs with at least one endpoint in ``rows``, ascending order."""
        first, second = self.touching_arrays(rows)
        return list(zip(first.tolist(), second.tolist()))


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
        available = os.fstat(fh.fileno()).st_size
        if declared != available:
            problem = "truncated payload" if declared > available else "trailing bytes"
            raise FeatureFileError(
                f"{problem}: header declares N={n}, D={d} ({declared} bytes), "
                f"file has {available}")
        # the size check above guarantees every read below is complete
        features = np.frombuffer(fh.read(n * d * 4), dtype="<f4").reshape(n, d)
        arrays = {name: np.frombuffer(fh.read(n * 8), dtype="<i8").copy() if present else None
                  for name, present in (("frame_id", has_frame), ("track_id", has_track),
                                        ("label", has_label))}

    _check_rows(features, reject_zero_rows=True)
    return FeatureSet(features, **arrays)


def load_features_csv(path) -> FeatureSet:
    """Import features from CSV with header ``frame_id,track_id,label,f0,...``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FeatureFileError("empty CSV file") from None
        if header[:3] != ["frame_id", "track_id", "label"]:
            raise FeatureFileError(f"bad CSV header: {header[:3]}")
        d = len(header) - 3
        expected = [f"f{i}" for i in range(d)]
        if d < 1 or header[3:] != expected:
            raise FeatureFileError("bad CSV header: feature columns must be f0..f{D-1}")
        frame, track, label, rows = [], [], [], []
        for row in reader:
            where = f"{path} line {reader.line_num}"
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
    if not rows:
        raise FeatureFileError("CSV file has no data rows")
    features = np.asarray(rows, dtype=np.float32)
    _check_rows(features, reject_zero_rows=True)
    return FeatureSet(features, np.asarray(frame), np.asarray(track), np.asarray(label))


def l2_normalize(fs: FeatureSet) -> FeatureSet:
    """Divide every row by its Euclidean norm; errors on a zero-norm row."""
    norms = np.linalg.norm(fs.features.astype(np.float64), axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero-norm row {zero[0]}")
    scaled = fs.features.astype(np.float64) / norms[:, None]
    return fs.with_features(scaled.astype(np.float32))


def aggregate_tracks(fs: FeatureSet) -> TrackFeatureSet:
    """Mean-pool rows per track, l2-normalize, order by ascending track_id.

    Every row must carry a track_id >= 0, and all rows of a track must agree
    on the ground-truth label (tracks with mixed labels are rejected).
    """
    if fs.track_id is None:
        raise ValueError("aggregate_tracks requires track_id for every row")
    if np.any(fs.track_id < 0):
        bad = int(np.flatnonzero(fs.track_id < 0)[0])
        raise ValueError(f"row {bad} has no track_id (-1)")

    track_ids = np.unique(fs.track_id)
    labels = fs.label if fs.label is not None else np.full(fs.num_samples, -1, dtype=np.int64)
    means = np.empty((track_ids.size, fs.dim), dtype=np.float64)
    track_labels = np.empty(track_ids.size, dtype=np.int64)
    for t, tid in enumerate(track_ids):
        member = np.flatnonzero(fs.track_id == tid)
        distinct = np.unique(labels[member])
        if distinct.size > 1:
            raise ValueError(f"track {tid} has mixed labels {distinct.tolist()}")
        track_labels[t] = distinct[0]
        means[t] = fs.features[member].astype(np.float64).mean(axis=0)

    norms = np.linalg.norm(means, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"track {track_ids[zero[0]]} has a zero-norm mean")
    return TrackFeatureSet((means / norms[:, None]).astype(np.float32), track_ids, track_labels)


def build_cooccurrence(fs: FeatureSet) -> CooccurrenceSet:
    """All unordered pairs of distinct rows sharing a frame_id."""
    if fs.frame_id is None:
        raise ValueError("build_cooccurrence requires frame_id for every row")
    pairs = set()
    order = np.argsort(fs.frame_id, kind="stable")
    sorted_frames = fs.frame_id[order]
    start = 0
    n = fs.num_samples
    while start < n:
        end = start
        while end < n and sorted_frames[end] == sorted_frames[start]:
            end += 1
        if sorted_frames[start] >= 0 and end - start > 1:
            members = np.sort(order[start:end])
            for a in range(members.size):
                for b in range(a + 1, members.size):
                    pairs.add((int(members[a]), int(members[b])))
        start = end
    return CooccurrenceSet(frozenset(pairs))
