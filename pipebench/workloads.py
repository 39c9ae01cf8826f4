"""Benchmark workloads and their seeded input generator.

Each workload is a synthetic labeled feature file plus a `ccl run` config.
The generator lives here rather than in the program so that a change to the
program never changes the benchmark's inputs. It draws the same family as
`ccl synth`: orthonormal class centers plus Gaussian noise, renormalized;
tracks of consecutive same-class rows; and frames that pair a row with one
row of another class with probability `cooc_rate`, so every co-occurrence
constraint is sound.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_CCLF_HEADER = struct.Struct("<4sIQQ???")
FRAMES_PER_TRACK = 5


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int
    dim: int
    noise: float
    cooc_rate: float
    config: dict = field(default_factory=dict)  # flat `ccl run` config keys

    @property
    def rows(self) -> int:
        return self.classes * self.per_class

    @property
    def level(self) -> str:
        """Evaluation level: "frame" or "track"."""
        return self.config["pipeline.eval_level"]

    @property
    def model_shape(self) -> tuple[int, int, int]:
        return self.dim, self.config["train.hidden_dim"], self.config["train.out_dim"]


_TRAINING = {"mining.z_near": 5, "mining.z_far": 5,
             "train.lr": 3e-3, "train.hidden_dim": 256, "train.out_dim": 16}

WORKLOADS = {w.name: w for w in (
    Workload("fine-frame", classes=16, per_class=200, dim=64, noise=0.25, cooc_rate=0.5,
             config={"pipeline.partition_index": 1, "pipeline.backend": "finch",
                     "pipeline.eval_level": "frame", "pipeline.num_clusters": 16,
                     "train.epochs": 20, **_TRAINING}),
    Workload("large-frame", classes=40, per_class=200, dim=128, noise=0.18, cooc_rate=0.5,
             config={"pipeline.partition_index": 2, "pipeline.backend": "finch",
                     "pipeline.eval_level": "frame", "pipeline.num_clusters": 40,
                     "train.epochs": 2, **_TRAINING}),
    Workload("coarse-track-kmeans", classes=32, per_class=250, dim=128, noise=0.25,
             cooc_rate=0.5,
             config={"pipeline.partition_index": 2, "pipeline.backend": "kmeans",
                     "pipeline.eval_level": "track", "pipeline.num_clusters": 32,
                     "train.epochs": 10, **_TRAINING}),
)}


@dataclass(frozen=True)
class Inputs:
    features: np.ndarray   # N x D float32, unit rows
    frame_id: np.ndarray
    track_id: np.ndarray
    label: np.ndarray


def generate(w: Workload, seed: int) -> Inputs:
    """Draw one labeled dataset; the same seed gives the same arrays."""
    if w.classes > w.dim:
        raise ValueError("orthonormal class centers need classes <= dim")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(w.dim, w.classes)))
    centers = basis.T

    n = w.rows
    label = np.repeat(np.arange(w.classes, dtype=np.int64), w.per_class)
    features = centers[label] + w.noise * rng.normal(size=(n, w.dim))
    features = (features / np.linalg.norm(features, axis=1)[:, None]).astype(np.float32)

    tracks_per_class = -(-w.per_class // FRAMES_PER_TRACK)
    within = np.arange(n, dtype=np.int64) % w.per_class
    track_id = label * tracks_per_class + within // FRAMES_PER_TRACK

    # visit rows in random order; an unassigned row co-occurs, with
    # probability cooc_rate, with a random unassigned row of another class
    frame_id = np.full(n, -1, dtype=np.int64)
    next_frame = 0
    for i in rng.permutation(n).tolist():
        if frame_id[i] >= 0:
            continue
        frame_id[i] = next_frame
        if rng.random() < w.cooc_rate:
            pool = np.flatnonzero((frame_id < 0) & (label != label[i]))
            if pool.size:
                frame_id[rng.choice(pool)] = next_frame
        next_frame += 1
    return Inputs(features, frame_id, track_id, label)


def unit_truth(inputs: Inputs, level: str) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the units the final clustering labels, with their true classes.

    Frame level: every row, by row index. Track level: every track, by
    ascending track id; tracks never mix classes.
    """
    if level == "track":
        ids, first = np.unique(inputs.track_id, return_index=True)
        return ids, inputs.label[first]
    return np.arange(inputs.label.size), inputs.label


def write_cclf(inputs: Inputs, path: Path) -> None:
    """Binary feature file as `ccl` reads it (see the format in ccl.data)."""
    n, d = inputs.features.shape
    with open(path, "wb") as fh:
        fh.write(_CCLF_HEADER.pack(b"CCLF", 1, n, d, True, True, True))
        fh.write(np.ascontiguousarray(inputs.features, dtype="<f4").tobytes())
        for arr in (inputs.frame_id, inputs.track_id, inputs.label):
            fh.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())


def write_config(w: Workload, seed: int, path: Path) -> None:
    lines = [f"{key} = {value}" for key, value in sorted(w.config.items())]
    lines.append(f"pipeline.seed = {seed}")
    Path(path).write_text("\n".join(lines) + "\n")
