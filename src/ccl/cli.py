"""Command line interface: one subcommand per pipeline stage plus `run`/`ablate`."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import l2_normalize, write_features
from .finch import finch_hierarchy
from .hac import ward_hac
from .kmeans import KMeansConfig, minibatch_kmeans
from .metrics import evaluate_clustering
from .mining import write_pairs_csv
from .pipeline import (
    ABLATION_KEYS,
    ID_COLUMNS,
    PipelineConfig,
    PipelineError,
    StageTimer,
    check_cluster_count,
    config_from_values,
    eval_units,
    level_points,
    load_any_features,
    parse_config_file,
    prepare_mining,
    read_cooc_csv,
    read_labels_csv,
    read_partition_csv,
    run_ablation,
    run_pipeline,
    write_labels_csv,
    write_partition_csv,
)
from .siamese import check_model_memory, embed, load_model, save_model, train
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


def _config_flags(p):
    """Flags that override their PipelineConfig key only when given."""
    p.add_argument("--features", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--partition-index", type=int)


def _add_mine(sub):
    p = sub.add_parser("mine", help="emit one epoch of training pairs as CSV")
    _config_flags(p)
    p.add_argument("--partition", help="partition CSV (default: compute the hierarchy)")
    p.add_argument("--epoch", type=int, default=0)
    p.add_argument("--no-correction", action="store_const", const=False)
    p.add_argument("--out", required=True)


def _add_train(sub):
    p = sub.add_parser("train", help="train the refinement model")
    _config_flags(p)
    p.add_argument("--partition", help="partition CSV (default: compute the hierarchy)")
    p.add_argument("--cooc", help="CSV of co-occurring row pairs (default: from frame ids)")
    p.add_argument("--config", help="flat key-value config file")
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
    p.add_argument("--level", choices=tuple(ID_COLUMNS), default="frame")
    p.add_argument("--out", required=True)


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True, help="labels CSV")
    p.add_argument("--gt", required=True, help="feature file carrying labels")
    p.add_argument("--out", help="report JSON (default: stdout)")


def _pipeline_flags(p):
    _config_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--num-clusters", type=int)
    p.add_argument("--level", choices=tuple(ID_COLUMNS))
    p.add_argument("--backend", choices=("finch", "kmeans"))
    p.add_argument("--no-posc", action="store_const", const=False)
    p.add_argument("--no-negc", action="store_const", const=False)
    p.add_argument("--no-nvid", action="store_const", const=False)


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


# flag -> the config keys it sets when given; a --no-* flag stores False
_FLAG_KEYS = {"seed": ("pipeline.seed",), "partition_index": ("pipeline.partition_index",),
              "num_clusters": ("pipeline.num_clusters",), "level": ("pipeline.eval_level",),
              "backend": ("pipeline.backend",), "no_posc": ("sources.pos_cluster",),
              "no_negc": ("sources.neg_cluster",),
              "no_nvid": ("sources.neg_video", "pipeline.video_correction"),
              "no_correction": ("pipeline.video_correction",)}


def _pipeline_config(args, fixed_keys=()) -> PipelineConfig:
    """--config keys, then each of the subcommand's flags that was given;
    a key in ``fixed_keys``, which the subcommand sets itself, is refused."""
    flags = vars(args)
    values = parse_config_file(args.config) if flags.get("config") else {}
    values.update({key: flags[flag] for flag, keys in _FLAG_KEYS.items()
                   if flags.get(flag) is not None for key in keys})
    fixed = [key for key in values if key in fixed_keys]
    if fixed:
        raise ValueError(f"{args.command} sets {fixed[0]} in each of its runs; remove the "
                         f"key or the flag that sets it")
    return replace(config_from_values(values), features=args.features,
                   out_dir=flags.get("out_dir") or "")


def _pair_miner(args, cfg: PipelineConfig):
    """`run`'s stages up to pair mining, after `ccl train` has checked its
    model's size; --partition and --cooc files replace the computed partition
    and co-occurrence."""
    cfg.validate()
    fs = load_any_features(cfg.features)
    if args.command == "train":
        check_model_memory(fs.dim, cfg.resolved_training())
    cooc = read_cooc_csv(args.cooc, fs.num_samples) if getattr(args, "cooc", None) else None
    partition = (read_partition_csv(args.partition, cfg.partition_index, fs.num_samples)
                 if args.partition else None)
    normalized, _, _, factory = prepare_mining(cfg, fs, StageTimer(), partition, cooc)
    return normalized, factory


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run_command(args)
    except (ValueError, PipelineError, OSError, MemoryError) as exc:
        parser.exit(2, f"ccl {args.command}: error: {exc}\n")
    return 0


def _run_command(args) -> None:
    if args.command == "synth":
        fs = synth_generate(args.classes, args.per_class, args.dim, args.noise,
                            args.frames_per_track, args.cooc_rate, args.seed)
        write_features(fs, args.out)
        print(f"wrote {fs.num_samples}x{fs.dim} features to {args.out}")

    elif args.command == "finch":
        fs = l2_normalize(load_any_features(args.features))
        hierarchy = StageTimer().run("finch", lambda: finch_hierarchy(fs))
        write_partition_csv(hierarchy, args.out)
        print(f"partitions: {hierarchy.cluster_counts}")

    elif args.command == "kmeans":
        cfg = KMeansConfig(k=args.k, seed=args.seed)
        cfg.validate()
        fs = l2_normalize(load_any_features(args.features))
        labels = minibatch_kmeans(fs.features, cfg)
        write_labels_csv(np.arange(labels.size), labels, args.out, "sample_index")
        print(f"wrote {int(labels.max()) + 1} clusters to {args.out}")

    elif args.command == "mine":
        if args.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {args.epoch}")
        _, factory = _pair_miner(args, _pipeline_config(args))
        batches = factory(args.epoch)
        write_pairs_csv(batches, args.out)
        print(f"wrote {sum(len(b) for b in batches)} pairs in {len(batches)} batches")

    elif args.command == "train":
        cfg = _pipeline_config(args)
        normalized, factory = _pair_miner(args, cfg)
        losses: list[float] = []
        model = StageTimer().run("train", lambda: train(normalized, factory,
                                                        cfg.resolved_training(), loss_log=losses))
        save_model(model, args.out)
        print(f"trained {len(losses)} epochs; final loss {losses[-1]:.6f}"
              if losses else "trained 0 epochs")

    elif args.command == "embed":
        model = load_model(args.model)
        fs = l2_normalize(load_any_features(args.features))
        write_features(embed(model, fs), args.out)
        print(f"wrote {fs.num_samples}x{model.dim_hidden} embeddings to {args.out}")

    elif args.command == "cluster":
        fs = load_any_features(args.features)
        unit_ids, _ = check_cluster_count(fs, args.num_clusters, args.level)
        normalized = l2_normalize(fs)
        del fs  # the HAC reads only the normalized rows
        timer = StageTimer()
        result = timer.run("hac", partial(ward_hac, level_points(normalized, args.level, timer),
                                          args.num_clusters))
        write_labels_csv(unit_ids, result.labels, args.out, ID_COLUMNS[args.level])
        print(f"wrote labels for {result.labels.size} units to {args.out}")

    elif args.command == "evaluate":
        level, ids, pred = read_labels_csv(args.pred)
        unit_ids, gt = eval_units(load_any_features(args.gt), level)
        if gt is None:
            raise ValueError(f"{args.gt}: scoring needs a label >= 0 on every row")
        n = min(ids.size, unit_ids.size)
        row = next(iter(np.flatnonzero(ids[:n] != unit_ids[:n])), n)
        if row < max(ids.size, unit_ids.size):
            raise ValueError(f"{args.pred}: its {ids.size} {ID_COLUMNS[level]} ids are not the "
                             f"{unit_ids.size} {level}-level units of {args.gt} in order; they "
                             f"first differ on line {row + 2}")
        text = json.dumps(evaluate_clustering(pred, gt).to_dict(), indent=2, sort_keys=True)
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
        summary = run_ablation(_pipeline_config(args, ABLATION_KEYS))
        for row in summary["rows"]:
            print(f"{row['name']:>16}: acc {row['acc']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
