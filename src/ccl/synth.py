"""Synthetic labeled datasets for desk-scale verification.

Samples are unit-norm class centers plus Gaussian noise, renormalized.
Tracks group consecutive same-class rows; frames are constructed so that
co-occurring rows always belong to different classes, making frame-level
negative constraints sound by construction.
"""

from __future__ import annotations

import numpy as np

from .data import FeatureSet, unit_rows

_MAX_CENTER_TRIES = 10_000


def _class_centers(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if num_classes <= dim:
        basis, _ = np.linalg.qr(rng.normal(size=(dim, num_classes)))
        return basis.T  # orthonormal rows: pairwise 90 degrees
    # otherwise sample unit vectors keeping every pairwise angle >= 60 degrees
    centers: list[np.ndarray] = []
    for _ in range(_MAX_CENTER_TRIES):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if all(float(v @ c) <= 0.5 for c in centers):
            centers.append(v)
            if len(centers) == num_classes:
                return np.stack(centers)
    raise ValueError(
        f"infeasible center placement: {num_classes} classes at >=60 degrees in dim {dim}")


def synth_generate(num_classes: int, per_class: int, dim: int, noise: float,
                   frames_per_track: int, cooc_rate: float, seed: int) -> FeatureSet:
    """Generate a fully labeled synthetic FeatureSet.

    cooc_rate is the probability that a row shares its frame with one row of
    a different class; the remaining rows get frames of their own.
    """
    if min(num_classes, per_class, dim, frames_per_track) < 1:
        raise ValueError("num_classes, per_class, dim, frames_per_track must be positive")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"synth noise (--noise) must be finite and >= 0, got {noise}")
    if not 0.0 <= cooc_rate <= 1.0:
        raise ValueError(f"synth cooc_rate (--cooc-rate) must lie within [0, 1], got {cooc_rate}")
    if seed < 0:
        raise ValueError(f"synth seed (--seed) must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    centers = _class_centers(num_classes, dim, rng)

    n = num_classes * per_class
    label = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    features = unit_rows(centers[label] + noise * rng.normal(size=(n, dim)),
                         lambda r: f"sample {r} from the noise; choose another seed"
                         ).astype(np.float32)

    track_id = np.empty(n, dtype=np.int64)
    next_track = 0
    for c in range(num_classes):
        start = c * per_class
        for offset in range(0, per_class, frames_per_track):
            extent = min(frames_per_track, per_class - offset)
            track_id[start + offset:start + offset + extent] = next_track
            next_track += 1

    frame_id = np.full(n, -1, dtype=np.int64)
    next_frame = 0
    for i in rng.permutation(n):
        if frame_id[i] >= 0:
            continue
        if rng.random() < cooc_rate:
            pool = np.flatnonzero((frame_id < 0) & (label != label[i]))
            if pool.size:
                partner = int(rng.choice(pool))
                frame_id[i] = frame_id[partner] = next_frame
                next_frame += 1
                continue
        frame_id[i] = next_frame
        next_frame += 1

    return FeatureSet(features, frame_id, track_id, label)
