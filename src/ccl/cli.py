"""Command line interface: one subcommand per pipeline stage plus `run`/`ablate`."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    CooccurrenceSet,
    aggregate_tracks,
    build_cooccurrence,
    l2_normalize,
    write_features,
)
from .finch import cluster_means, finch_hierarchy
from .hac import ward_hac
from .kmeans import KMeansConfig, minibatch_kmeans
from .metrics import bcubed, wcp
from .mining import apply_video_correction, mine_epoch, rank_clusters, write_pairs_csv
from .pipeline import (
    PipelineConfig,
    config_from_values,
    load_any_features,
    parse_config_file,
    read_cooc_csv,
    read_labels_csv,
    read_partition_csv,
    run_ablation,
    run_pipeline,
    write_labels_csv,
    write_partition_csv,
)
from .siamese import embed, load_model, save_model, train
from .synth import synth_generate


def _add_synth(sub):
    p = sub.add_parser("synth", help="generate a labeled synthetic feature file")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--frames-per-track", type=int, default=5)
    p.add_argument("--cooc-rate", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_finch(sub):
    p = sub.add_parser("finch", help="first-neighbor partition hierarchy")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="partition CSV; a .json sidecar is added")


def _add_kmeans(sub):
    p = sub.add_parser("kmeans", help="minibatch k-means labels")
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_mine(sub):
    p = sub.add_parser("mine", help="emit one epoch of training pairs as CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--partition", help="partition CSV (default: compute the hierarchy)")
    p.add_argument("--partition-index", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epoch", type=int, default=0)
    p.add_argument("--no-correction", action="store_true")
    p.add_argument("--out", required=True)


def _add_train(sub):
    p = sub.add_parser("train", help="train the refinement model")
    p.add_argument("--features", required=True)
    p.add_argument("--partition", help="partition CSV (default: compute the hierarchy)")
    p.add_argument("--partition-index", type=int, default=2)
    p.add_argument("--cooc", help="CSV of co-occurring row pairs (default: from frame ids)")
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model checkpoint path")


def _add_embed(sub):
    p = sub.add_parser("embed", help="embed features with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)


def _add_cluster(sub):
    p = sub.add_parser("cluster", help="Ward HAC at a target cluster count")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--features", dest="features")
    group.add_argument("--embeddings", dest="features")
    p.add_argument("--num-clusters", type=int, required=True)
    p.add_argument("--level", choices=("frame", "track"), default="frame")
    p.add_argument("--out", required=True)


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True, help="labels CSV")
    p.add_argument("--gt", required=True, help="feature file carrying labels")
    p.add_argument("--metrics", default="wcp,bcubed")
    p.add_argument("--out", help="report JSON (default: stdout)")


def _pipeline_flags(p):
    p.add_argument("--features", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--partition-index", type=int)
    p.add_argument("--num-clusters", type=int)
    p.add_argument("--level", choices=("frame", "track"))
    p.add_argument("--backend", choices=("finch", "kmeans"))
    p.add_argument("--no-posc", action="store_true")
    p.add_argument("--no-negc", action="store_true")
    p.add_argument("--no-nvid", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccl",
        description="Refine precomputed embeddings with cluster-derived weak labels")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_finch(sub)
    _add_kmeans(sub)
    _add_mine(sub)
    _add_train(sub)
    _add_embed(sub)
    _add_cluster(sub)
    _add_evaluate(sub)
    _pipeline_flags(sub.add_parser("run", help="end-to-end pipeline"))
    _pipeline_flags(sub.add_parser("ablate", help="pair-source ablation sweep"))
    return parser


def _mining_inputs(args):
    """Shared setup for mine/train: normalized features, partition, cooc, ranks."""
    fs = l2_normalize(load_any_features(args.features))
    if args.partition:
        partition = read_partition_csv(args.partition, args.partition_index)
    else:
        partition = finch_hierarchy(fs).partition(args.partition_index)
    cooc_path = getattr(args, "cooc", None)
    if cooc_path:
        cooc = read_cooc_csv(cooc_path, fs.num_samples)
    elif fs.frame_id is not None:
        cooc = build_cooccurrence(fs)
    else:
        cooc = CooccurrenceSet()
    if not getattr(args, "no_correction", False) and len(cooc):
        partition = apply_video_correction(partition, cooc, fs.features)
    return fs, partition, cooc


def _pipeline_config(args) -> PipelineConfig:
    values = parse_config_file(args.config) if args.config else {}
    cfg = config_from_values(values)
    overrides = {"features": args.features, "out_dir": args.out_dir}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.partition_index is not None:
        overrides["partition_index"] = args.partition_index
    if args.num_clusters is not None:
        overrides["num_clusters"] = args.num_clusters
    if args.level is not None:
        overrides["eval_level"] = args.level
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.no_posc:
        overrides["use_pos_cluster"] = False
    if args.no_negc:
        overrides["use_neg_cluster"] = False
    if args.no_nvid:
        overrides["use_neg_video"] = False
        overrides["video_correction"] = False
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "synth":
        fs = synth_generate(args.classes, args.per_class, args.dim, args.noise,
                            args.frames_per_track, args.cooc_rate, args.seed)
        write_features(fs, args.out)
        print(f"wrote {fs.num_samples}x{fs.dim} features to {args.out}")

    elif args.command == "finch":
        fs = l2_normalize(load_any_features(args.features))
        hierarchy = finch_hierarchy(fs)
        write_partition_csv(hierarchy, args.out)
        print(f"partitions: {hierarchy.cluster_counts}")

    elif args.command == "kmeans":
        fs = l2_normalize(load_any_features(args.features))
        labels = minibatch_kmeans(fs.features, KMeansConfig(k=args.k, seed=args.seed))
        write_labels_csv(np.arange(labels.size), labels, args.out, "sample_index")
        print(f"wrote {int(labels.max()) + 1} clusters to {args.out}")

    elif args.command == "mine":
        fs, partition, cooc = _mining_inputs(args)
        from .mining import MiningConfig
        cfg = MiningConfig(seed=args.seed)
        ranks = rank_clusters(cluster_means(fs.features, partition), cfg.z_near, cfg.z_far)
        batches = mine_epoch(partition, ranks, cooc, cfg, args.epoch)
        write_pairs_csv(batches, args.out)
        print(f"wrote {sum(len(b) for b in batches)} pairs in {len(batches)} batches")

    elif args.command == "train":
        fs, partition, cooc = _mining_inputs(args)
        values = parse_config_file(args.config) if args.config else {}
        cfg = config_from_values(values)
        cfg = replace(cfg, seed=args.seed)
        mining_cfg = cfg.resolved_mining()
        ranks = rank_clusters(cluster_means(fs.features, partition),
                              mining_cfg.z_near, mining_cfg.z_far)
        losses: list[float] = []
        model = train(fs, lambda epoch: mine_epoch(partition, ranks, cooc, mining_cfg, epoch),
                      cfg.resolved_training(), loss_log=losses)
        save_model(model, args.out)
        print(f"trained {len(losses)} epochs; final loss {losses[-1]:.6f}"
              if losses else "trained 0 epochs")

    elif args.command == "embed":
        model = load_model(args.model)
        fs = l2_normalize(load_any_features(args.features))
        write_features(embed(model, fs), args.out)
        print(f"wrote {fs.num_samples}x{model.dim_hidden} embeddings to {args.out}")

    elif args.command == "cluster":
        fs = l2_normalize(load_any_features(args.features))
        if args.level == "track":
            tracks = aggregate_tracks(fs)
            result = ward_hac(tracks.features, args.num_clusters)
            write_labels_csv(tracks.track_id, result.labels, args.out, "track_id")
        else:
            result = ward_hac(fs.features, args.num_clusters)
            write_labels_csv(np.arange(fs.num_samples), result.labels, args.out, "sample_index")
        print(f"wrote labels for {result.labels.size} units to {args.out}")

    elif args.command == "evaluate":
        pred = read_labels_csv(args.pred)
        fs = load_any_features(args.gt)
        if fs.label is None:
            raise SystemExit("ground-truth feature file carries no labels")
        if pred.size == fs.num_samples:
            gt = fs.label
        else:
            tracks = aggregate_tracks(fs)
            if pred.size != tracks.num_tracks:
                raise SystemExit(
                    f"prediction count {pred.size} matches neither samples "
                    f"({fs.num_samples}) nor tracks ({tracks.num_tracks})")
            gt = tracks.label
        wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
        report = {}
        for metric in wanted:
            if metric == "wcp":
                acc, sizes, purities = wcp(pred, gt)
                report["wcp"] = {"acc": acc, "cluster_sizes": sizes,
                                 "cluster_purities": purities}
            elif metric == "bcubed":
                p, r, f = bcubed(pred, gt)
                report["bcubed"] = {"precision": p, "recall": r, "f": f}
            else:
                raise SystemExit(f"unknown metric {metric!r}")
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)

    elif args.command == "run":
        report = run_pipeline(_pipeline_config(args))
        if "ccl" in report:
            print(f"baseline acc {report['baseline']['acc']:.4f} -> "
                  f"ccl acc {report['ccl']['acc']:.4f}")
        print(f"report written to {Path(args.out_dir) / 'report.json'}")

    elif args.command == "ablate":
        summary = run_ablation(_pipeline_config(args))
        for row in summary["rows"]:
            print(f"{row['name']:>16}: acc {row['acc']:.4f}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
