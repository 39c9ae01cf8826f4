"""Traced re-composition of `run_pipeline` from the program's public functions.

`traced_run` calls the same functions as `ccl.pipeline.run_pipeline`, in the
same order and with the same arguments, and wraps each call in a span. Spans
stay in memory as plain records (name, start, end, parent, counts) and are
written out by the caller when the run ends. Nothing in the program is
patched: the spans sit around calls made from this file.

`run_counters` extracts the counters that need the run's in-memory results.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from ccl.data import CooccurrenceSet, aggregate_tracks, build_cooccurrence, l2_normalize
from ccl.finch import cluster_means, finch_hierarchy, partition_purity
from ccl.hac import ward_hac
from ccl.kmeans import KMeansConfig, minibatch_kmeans
from ccl.metrics import evaluate_clustering
from ccl.mining import NEG_VIDEO, apply_video_correction, mine_epoch, rank_clusters, write_pairs_csv
from ccl.pipeline import (
    config_from_values,
    load_any_features,
    parse_config_file,
    write_labels_csv,
    write_partition_csv,
)
from ccl.siamese import embed, save_model, train


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its `counts` dict for counters at this boundary."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, func, *args, **kwargs):
        with self.span(name):
            return func(*args, **kwargs)


def config_for(config_path, features, out_dir):
    """The PipelineConfig `ccl run --features F --out-dir D --config C` builds."""
    cfg = config_from_values(parse_config_file(config_path))
    return replace(cfg, features=str(features), out_dir=str(out_dir))


def _eval_points(embedded, level):
    """Points, ground truth and unit ids at the evaluation level (as run_pipeline)."""
    if level == "track":
        tracks = aggregate_tracks(embedded)
        gt = tracks.label if np.all(tracks.label >= 0) else None
        return tracks.features, gt, tracks.track_id, "track_id"
    gt = embedded.label if embedded.label is not None and np.all(embedded.label >= 0) else None
    return embedded.features, gt, np.arange(embedded.num_samples), "sample_index"


def traced_run(cfg, tracer: Tracer) -> dict:
    """run_pipeline(cfg) with one span per public call; returns a summary.

    Writes the same artifacts as run_pipeline. The summary holds the parts of
    the report that do not depend on timing, plus the mined batches of every
    training epoch for the mining counters.
    """
    t = tracer
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    fs = t.call("data.load", load_any_features, cfg.features)
    normalized = t.call("data.normalize", l2_normalize, fs)
    with t.span("data.cooccurrence") as counts:
        cooc = (build_cooccurrence(normalized) if normalized.frame_id is not None
                else CooccurrenceSet())
        counts["pairs"] = len(cooc)

    with t.span("finch.hierarchy") as counts:
        hierarchy = finch_hierarchy(normalized)
        counts["levels"] = hierarchy.num_partitions
    partition = hierarchy.partition(cfg.partition_index)
    finch_partition = partition
    # like run_pipeline's "aggregate" stage, the kmeans and aggregate spans are
    # recorded on every workload; where the layer does not run they cover
    # only the branch
    with t.span("kmeans.fit") as counts:
        if cfg.backend == "kmeans":
            k = hierarchy.cluster_counts[cfg.partition_index - 1]
            partition = minibatch_kmeans(normalized.features, KMeansConfig(k=k, seed=cfg.seed))
            counts.update(k=k, used_clusters=int(partition.max()) + 1)

    if cfg.video_correction and len(cooc):
        with t.span("mining.video_correction") as counts:
            before = int(partition.max()) + 1
            partition = apply_video_correction(partition, cooc, normalized.features)
            counts["evicted_rows"] = int(partition.max()) + 1 - before

    mining_cfg = cfg.resolved_mining()
    with t.span("mining.rank"):
        means = t.call("finch.cluster_means", cluster_means, normalized.features, partition)
        ranks = t.call("mining.rank_clusters", rank_clusters, means,
                       mining_cfg.z_near, mining_cfg.z_far)

    train_cfg = cfg.resolved_training()
    epoch_batches: list = []

    def factory(epoch):
        batches = t.call("mining.epoch", mine_epoch, partition, ranks, cooc, mining_cfg, epoch)
        epoch_batches.append(batches)
        return batches

    epoch_losses: list[float] = []
    model = t.call("siamese.train", train, normalized, factory, train_cfg,
                   loss_log=epoch_losses)
    embedded = t.call("siamese.embed", embed, model, normalized)

    num_clusters = cfg.num_clusters or fs.num_classes
    points, gt, unit_ids, id_column = t.call("data.aggregate", _eval_points, embedded,
                                              cfg.eval_level)
    with t.span("hac.ward") as counts:
        hac_result = ward_hac(points, num_clusters)
        counts["points"] = points.shape[0]
    ccl_report = t.call("metrics.evaluate", evaluate_clustering, hac_result.labels, gt)

    # run_baseline(fs, num_clusters, level), one call at a time
    with t.span("pipeline.baseline"):
        base_norm = t.call("data.normalize", l2_normalize, fs)
        base_points, base_gt, _, _ = t.call("data.aggregate", _eval_points, base_norm,
                                            cfg.eval_level)
        base_hac = t.call("hac.baseline_ward", ward_hac, base_points, num_clusters)
        baseline = t.call("metrics.evaluate", evaluate_clustering, base_hac.labels, base_gt)

    summary = {"ccl": ccl_report.to_dict(), "baseline": baseline.to_dict(),
               "train_epoch_losses": epoch_losses, "num_clusters": num_clusters}
    with t.span("pipeline.artifacts"):
        t.call("pipeline.write_partitions", write_partition_csv, hierarchy,
               out_dir / "partitions.csv")
        audit = t.call("mining.epoch", mine_epoch, partition, ranks, cooc, mining_cfg, 0)
        t.call("pipeline.write_pairs", write_pairs_csv, audit, out_dir / "pairs_epoch0.csv")
        t.call("siamese.save_model", save_model, model, out_dir / "model.ccl")
        t.call("pipeline.write_labels", write_labels_csv, unit_ids, hac_result.labels,
               out_dir / "labels.csv", id_column)
        (out_dir / "report.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    frame_gt = normalized.label
    summary.update(
        finch_selected_clusters=int(finch_partition.max()) + 1,
        finch_selected_purity=partition_purity(finch_partition, frame_gt),
        model_shape=[model.dim_in, model.dim_hidden, model.dim_out],
        num_rows=fs.num_samples,
        epoch_batches=epoch_batches,
    )
    return summary


def training_gflop(rows_per_step: list[int], dim_in: int, hidden: int, out: int) -> float:
    """Matrix-multiply work of training, computed from shapes.

    Per step over R rows (both branches of a pair batch): forward
    2RDH + 2RHO, backward 2RHO (proj_w) + 2RHO (hidden grad) + 2RDH (enc_w).
    """
    flops = sum(4 * r * dim_in * hidden + 6 * r * hidden * out for r in rows_per_step)
    return flops / 1e9


def run_counters(summary) -> dict:
    """Counters of one traced run that need its in-memory results."""
    epoch_batches = summary["epoch_batches"]
    batches = [b for epoch in epoch_batches for b in epoch]
    pairs = sum(len(b) for b in batches)
    a = np.concatenate([b.a for b in batches])
    b_ = np.concatenate([b.b for b in batches])
    unique = np.unique(np.minimum(a, b_) * summary["num_rows"] + np.maximum(a, b_)).size
    nvid = sum(int(np.sum(b.source == NEG_VIDEO)) for b in batches)
    dim_in, hidden, out = summary["model_shape"]
    return {
        "finch.selected_clusters": summary["finch_selected_clusters"],
        "finch.selected_purity": summary["finch_selected_purity"],
        "mining.pairs": pairs,
        "mining.unique_pair_ratio": unique / pairs,
        "mining.nvid_share": nvid / pairs,
        "siamese.steps": len(batches),
        "siamese.gflop": training_gflop([2 * len(b) for b in batches], dim_in, hidden, out),
        "siamese.final_loss": summary["train_epoch_losses"][-1],
    }
