"""Output checks for one `ccl run` output directory.

The scores are recomputed here from `labels.csv` and the generator's ground
truth with a plain contingency table, independent of `ccl.metrics`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

SCORE_TOLERANCE = 1e-9


class OutputError(Exception):
    """An output of the program is missing or wrong."""


def read_labels(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise OutputError(f"{path.name} is empty")
    body = np.asarray(rows[1:], dtype=np.int64).reshape(-1, 2)
    return rows[0], body[:, 0], body[:, 1]


def scores(pred: np.ndarray, gt: np.ndarray) -> dict[str, float]:
    """Weighted clustering purity and B-Cubed P/R/F from a contingency table."""
    _, p_idx = np.unique(pred, return_inverse=True)
    _, g_idx = np.unique(gt, return_inverse=True)
    table = np.zeros((p_idx.max() + 1, g_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (p_idx, g_idx), 1)
    overlap = table[p_idx, g_idx].astype(np.float64)
    precision = float(np.mean(overlap / table.sum(axis=1)[p_idx]))
    recall = float(np.mean(overlap / table.sum(axis=0)[g_idx]))
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return {"acc": float(table.max(axis=1).sum() / pred.size),
            "bcubed_p": precision, "bcubed_r": recall, "bcubed_f": f}


def check_run(out_dir: Path, unit_ids: np.ndarray, unit_gt: np.ndarray, num_clusters: int,
              model_shape: tuple[int, int, int]) -> dict:
    """Check one output directory; returns report.json or raises OutputError.

    unit_ids / unit_gt are the expected unit ids (rows or tracks) and their
    ground-truth labels, in the order labels.csv must list them.
    """
    from ccl.siamese import load_model  # the checkout's src joins sys.path at run time

    header, ids, pred = read_labels(out_dir / "labels.csv")
    if header[1:] != ["label"] or not np.array_equal(ids, unit_ids):
        raise OutputError(f"labels.csv does not list the {unit_ids.size} expected units "
                          f"({header[0]}: {ids.size} rows)")
    found = np.unique(pred)
    if not np.array_equal(found, np.arange(num_clusters)):
        raise OutputError(f"labels.csv has {found.size} clusters, expected {num_clusters}")

    report = json.loads((out_dir / "report.json").read_text())
    expected = scores(pred, unit_gt)
    for key, value in expected.items():
        if abs(report["ccl"][key] - value) > SCORE_TOLERANCE:
            raise OutputError(f"report.json ccl.{key}={report['ccl'][key]} but labels.csv "
                              f"scores {value}")

    model = load_model(out_dir / "model.ccl")
    shape = (model.dim_in, model.dim_hidden, model.dim_out)
    if shape != tuple(model_shape):
        raise OutputError(f"model.ccl has shape {shape}, expected {tuple(model_shape)}")
    if not all(np.all(np.isfinite(v)) for v in model.params().values()):
        raise OutputError("model.ccl holds non-finite parameters")
    return report


def check_same_outputs(plain_dir: Path, traced_dir: Path) -> None:
    """The traced run must write byte-identical labels and checkpoint."""
    for name in ("labels.csv", "model.ccl"):
        if (plain_dir / name).read_bytes() != (traced_dir / name).read_bytes():
            raise OutputError(f"traced {name} differs from the untraced run's")
