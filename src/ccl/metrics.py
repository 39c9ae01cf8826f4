"""Clustering evaluation: weighted clustering purity and B-Cubed P/R/F."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass(frozen=True)
class ClusteringReport:
    """Scores for one predicted labeling against ground truth."""

    acc: float
    bcubed_p: float
    bcubed_r: float
    bcubed_f: float
    num_clusters: int
    cluster_sizes: list[int] = field(default_factory=list)
    cluster_purities: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _validate(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise ValueError(f"label vectors must be equal-length 1-D, got {pred.shape} vs {gt.shape}")
    if np.any(gt < 0):
        raise ValueError("ground-truth labels must be non-negative")
    return pred, gt


def _contingency(pred: np.ndarray, gt: np.ndarray):
    _, pred_idx = np.unique(pred, return_inverse=True)
    _, gt_idx = np.unique(gt, return_inverse=True)
    counts = np.zeros((pred_idx.max() + 1, gt_idx.max() + 1), dtype=np.int64)
    np.add.at(counts, (pred_idx, gt_idx), 1)
    return counts, pred_idx, gt_idx


def wcp(pred, gt) -> tuple[float, list[int], list[float]]:
    """Weighted clustering purity.

    Each cluster is scored by the fraction of its samples carrying the
    cluster's most common ground-truth label; the overall accuracy is the
    size-weighted mean, ACC = (1/N) * sum_c n_c * p_c.

    Returns (acc, cluster_sizes, cluster_purities), clusters ordered by
    ascending predicted label.
    """
    pred, gt = _validate(pred, gt)
    counts, _, _ = _contingency(pred, gt)
    sizes = counts.sum(axis=1)
    majority = counts.max(axis=1)
    purities = majority / sizes
    acc = float(majority.sum() / pred.size)
    return acc, sizes.tolist(), purities.tolist()


def bcubed(pred, gt) -> tuple[float, float, float]:
    """B-Cubed precision, recall, and F-measure.

    Per item, precision is |cluster(i) & class(i)| / |cluster(i)| and recall
    divides by |class(i)| instead; P and R average these over items, and F is
    their harmonic mean (0 when P + R == 0).
    """
    pred, gt = _validate(pred, gt)
    counts, pred_idx, gt_idx = _contingency(pred, gt)
    cluster_sizes = counts.sum(axis=1)
    class_sizes = counts.sum(axis=0)
    overlap = counts[pred_idx, gt_idx].astype(np.float64)
    p = float(np.mean(overlap / cluster_sizes[pred_idx]))
    r = float(np.mean(overlap / class_sizes[gt_idx]))
    f = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
    return p, r, f


def evaluate_clustering(pred, gt) -> ClusteringReport:
    """Full report: WCP accuracy plus B-Cubed P/R/F."""
    acc, sizes, purities = wcp(pred, gt)
    p, r, f = bcubed(pred, gt)
    return ClusteringReport(acc, p, r, f, len(sizes), sizes, purities)
