"""MiniBatch K-means, the alternative weak-label source.

Streaming per-center mean updates with learning rate 1/count over randomly
drawn minibatches; k-means++ seeding on a subsample. A run sets k and the
seed; the module constants, read at call time, fix the rest. Fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import group_sums, row_blocks, sq_distances, sq_distances_from
from .labeling import relabel_contiguous

log = logging.getLogger(__name__)

BATCH_SIZE = 1024           # rows per minibatch (all rows when fewer)
MAX_ITERS = 100             # minibatch steps per fit
INIT_SUBSAMPLE_FACTOR = 10  # k-means++ seeds from this many rows per center (or all rows)


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    seed: int = 0

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"k-means k (--k) must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ValueError(f"k-means seed (--seed) must be >= 0, got {self.seed}")


def _kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn with prob proportional to
    squared distance from the nearest already-chosen center."""
    n = points.shape[0]
    to_center = sq_distances_from(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    best = to_center(centers[:1])[:, 0]
    for c in range(1, k):
        total = best.sum()
        if total == 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=best / total)
        centers[c] = points[idx]
        best = np.minimum(best, to_center(centers[c:c + 1])[:, 0])
    return centers


def kmeans_centers(points: np.ndarray, cfg: KMeansConfig) -> np.ndarray:
    """The cfg.k float64 centers after MAX_ITERS minibatch steps.

    Each iteration draws one minibatch, assigns its points against the
    current centers, then folds them into the per-center streaming means.
    """
    points = np.asarray(points)  # read in float64 a batch of rows at a time
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    cfg.validate()
    n = points.shape[0]
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds the {n} points to cluster")

    rng = np.random.default_rng(cfg.seed)
    sub = rng.choice(n, size=min(n, INIT_SUBSAMPLE_FACTOR * cfg.k), replace=False)
    centers = _kmeanspp(np.asarray(points[sub], dtype=np.float64), cfg.k, rng)
    counts = np.zeros(cfg.k, dtype=np.int64)

    batch_size = min(BATCH_SIZE, n)
    for _ in range(MAX_ITERS):
        batch = np.asarray(points[rng.choice(n, size=batch_size, replace=False)],
                           dtype=np.float64)
        assign = np.argmin(sq_distances(batch, centers), axis=1)
        sizes = np.bincount(assign, minlength=cfg.k)
        hit = sizes > 0
        new_counts = counts + sizes
        # streaming mean: equivalent to per-point updates at rate 1/count
        centers[hit] = ((counts[hit, None] * centers[hit] + group_sums(batch, assign, cfg.k)[hit])
                        / new_counts[hit, None])
        counts = new_counts
    return centers


def minibatch_kmeans(points: np.ndarray, cfg: KMeansConfig) -> np.ndarray:
    """Cluster rows into (at most) cfg.k groups; returns contiguous labels.

    Every row goes to its nearest `kmeans_centers` center, a block of rows
    at a time. Centers left without any assigned point are dropped and the
    labels relabeled contiguously, so k may effectively shrink.
    """
    points = np.asarray(points)
    centers = kmeans_centers(points, cfg)
    labels = np.empty(points.shape[0], dtype=np.intp)
    for start, stop in row_blocks(points.shape[0]):
        chunk = np.asarray(points[start:stop], dtype=np.float64)
        labels[start:stop] = np.argmin(sq_distances(chunk, centers), axis=1)
    used = np.unique(labels)
    if used.size < cfg.k:
        log.warning("minibatch_kmeans: %d of %d clusters ended up empty; relabeling",
                    cfg.k - used.size, cfg.k)
    return relabel_contiguous(labels)
