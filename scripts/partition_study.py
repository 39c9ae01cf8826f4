#!/usr/bin/env python3
"""Per-partition study: purity of first-neighbor clusters vs minibatch
k-means at the same cluster count, and downstream refined accuracy.

For each partition level the script reports the cluster count, largest and
smallest cluster size, weak-label purity, correctly/wrongly clustered sample
counts, and the end accuracy after training on that partition's labels.

Usage:
    python3 scripts/partition_study.py --features data.cclf --num-clusters 16
    python3 scripts/partition_study.py --synthetic            # built-in demo
"""

from __future__ import annotations

import argparse

from ccl.mining import MiningConfig
from ccl.pipeline import PipelineConfig, load_any_features, run_pipeline
from ccl.siamese import TrainConfig
from ccl.synth import synth_generate


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--features", help="feature file (binary or CSV)")
    parser.add_argument("--synthetic", action="store_true",
                        help="use a built-in synthetic dataset instead")
    parser.add_argument("--num-clusters", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lr", type=float, default=3e-3)
    parser.add_argument("--out-dim", type=int, default=16)
    parser.add_argument("--z", type=int, default=5)
    parser.add_argument("--level", choices=("frame", "track"), default="frame")
    return parser.parse_args()


def row(tag, stats, refined_acc):
    """One table row from a report's partition_stats (the partition before video correction)."""
    print(f"{tag:>10} {stats['selected_num_clusters']:>6} "
          f"{stats['largest_cluster']:>6}/{stats['smallest_cluster']:<5} "
          f"{stats['purity']:>7.4f} {stats['correct_samples']:>8}/{stats['incorrect_samples']:<7} "
          f"{refined_acc:>8}")


def main():
    args = parse_args()
    if args.synthetic or not args.features:
        fs = synth_generate(16, 200, 64, 0.25, 5, 0.5, args.seed)
    else:
        fs = load_any_features(args.features)
    if fs.label is None or (fs.label < 0).any():
        raise SystemExit("the partition study needs a ground-truth label on every row")
    num_clusters = args.num_clusters or fs.num_classes

    def run(index, backend, baseline=None):
        cfg = PipelineConfig(
            num_clusters=num_clusters, eval_level=args.level, seed=args.seed,
            partition_index=index, backend=backend,
            mining=MiningConfig(z_near=args.z, z_far=args.z),
            training=TrainConfig(epochs=20, lr=args.lr, hidden_dim=256, out_dim=args.out_dim),
        )
        return run_pipeline(cfg, fs, baseline)

    report = run(1, "finch")
    baseline = report["baseline"]  # every run shares the features, count and level
    counts = report["partition_stats"]["cluster_counts"]
    print(f"dataset: N={fs.num_samples} D={fs.dim} C={num_clusters}; "
          f"partition counts {counts}")
    print(f"{'labels':>10} {'#C':>6} {'LC/SC':>12} {'ACC':>7} {'L+/L-':>16} {'CCL-ACC':>8}")

    for index in range(1, len(counts) + 1):
        if counts[index - 1] < num_clusters:
            break
        for backend in ("finch", "kmeans"):
            if (index, backend) != (1, "finch"):
                report = run(index, backend, baseline)
            row(f"p{index}-{backend}", report["partition_stats"], f"{report['ccl']['acc']:.4f}")
    print(f"(baseline accuracy without refinement: {baseline['acc']:.4f})")


if __name__ == "__main__":
    main()
