"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The two optional
reproduction tests at the bottom need real VGG2 feature files supplied via
CCL_BBT0101_FEATURES / CCL_BF0502_FEATURES and are skipped otherwise.
"""

import os
import time

import numpy as np
import pytest

from ccl.data import build_cooccurrence, l2_normalize, load_features
from ccl.finch import cluster_means, finch_hierarchy, partition_purity
from ccl.hac import ward_hac
from ccl.kmeans import KMeansConfig, minibatch_kmeans
from ccl.metrics import bcubed, wcp
from ccl.mining import MiningConfig, apply_video_correction, mine_epoch, rank_clusters
from ccl.pipeline import PipelineConfig, config_from_values, run_pipeline
from ccl.siamese import TrainConfig, init_model
from ccl.synth import synth_generate

from oracles import (
    batch_loss,
    brute_bcubed,
    loss_and_gradients,
    naive_finch,
    naive_ward,
    pair_loss,
)

# configuration of the end-to-end synthetic family (criteria 6 and 7):
# class centers span a 16-dim subspace of 64-dim ambient noise, sigma=0.25,
# giving a mid-range baseline; partition 1 supplies the many small
# high-purity clusters that the mining stage needs at this scale, and the
# head/learning rate are sized for a 3200-sample run.
E2E_CLASSES = 16
E2E_CONFIG = dict(
    num_clusters=E2E_CLASSES,
    eval_level="frame",
    partition_index=1,
    mining=MiningConfig(z_near=5, z_far=5),
    training=TrainConfig(epochs=20, lr=3e-3, hidden_dim=256, out_dim=16),
)


def test_c01_finch_matches_naive_adjacency_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    for _ in range(200):
        n = int(rng.integers(5, 201))
        d = int(rng.integers(2, 33))
        points = rng.normal(size=(n, d))
        ours = finch_hierarchy(points)
        naive_partitions, naive_counts = naive_finch(points)
        assert ours.cluster_counts == naive_counts
        for mine, theirs in zip(ours.partitions, naive_partitions):
            np.testing.assert_array_equal(mine, theirs)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: 200/200 hierarchies equal the full-adjacency "
          f"oracle ({elapsed:.1f}s)")


def test_c02_finch_structural_invariants():
    rng = np.random.default_rng(31)
    start = time.time()
    for _ in range(60):
        n = int(rng.integers(4, 120))
        points = rng.normal(size=(n, int(rng.integers(2, 12))))
        hierarchy = finch_hierarchy(points)
        counts = hierarchy.cluster_counts
        assert np.bincount(hierarchy.partitions[0]).min() >= 2
        assert all(a > b for a, b in zip(counts, counts[1:]))
        for fine, coarse in zip(hierarchy.partitions, hierarchy.partitions[1:]):
            for c in range(fine.max() + 1):
                assert len(np.unique(coarse[fine == c])) == 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: no singletons in partition 1, counts strictly "
          f"decreasing, coarsening holds ({elapsed:.1f}s)")


def test_c03_synthetic_purity_finch_vs_kmeans():
    start = time.time()
    fs = synth_generate(3, 200, 16, noise=0.05, frames_per_track=5,
                        cooc_rate=0.2, seed=0)
    normalized = l2_normalize(fs)
    hierarchy = finch_hierarchy(normalized)
    p2_purity = partition_purity(hierarchy.partition(2), fs.label)
    assert p2_purity >= 0.99
    assert 3 in hierarchy.cluster_counts
    k = hierarchy.cluster_counts[1]
    km_labels = minibatch_kmeans(normalized.features, KMeansConfig(k=k, seed=0))
    km_purity = partition_purity(km_labels, fs.label)
    assert km_purity >= 0.95
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 3: partition-2 purity {p2_purity:.3f} >= 0.99, "
          f"3-cluster partition present, k-means purity {km_purity:.3f} >= 0.95")


def test_c04_gradient_check_all_parameters():
    rng = np.random.default_rng(12345)
    start = time.time()
    worst = 0.0
    for trial in range(20):
        model = init_model(9, 6, 2, seed=trial, dtype=np.float64)
        x1 = rng.normal(size=(8, 9))
        x2 = rng.normal(size=(8, 9))
        y = rng.integers(0, 2, 8)
        _, grads, _ = loss_and_gradients(model, x1, x2, y)
        for name, grad in grads.items():
            numeric = _central_differences(model, name, x1, x2, y)
            err = np.abs(grad - numeric) / np.maximum(np.abs(grad) + np.abs(numeric), 1e-6)
            worst = max(worst, float(err.max()))
            assert err.max() < 1e-4, f"{name}: relative error {err.max()}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 4: gradients of all 6 parameter tensors match "
          f"central differences on 20 batches (worst rel err {worst:.2e})")


def _central_differences(model, name, x1, x2, y, step=1e-5):
    param = getattr(model, name)
    flat = param.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = batch_loss(model, x1, x2, y)
        flat[i] = original - step
        down = batch_loss(model, x1, x2, y)
        flat[i] = original
        numeric[i] = (up - down) / (2 * step)
    return numeric.reshape(param.shape)


def test_c05_contrastive_loss_closed_forms():
    p = np.array([0.25, -1.5])
    q = np.array([4.0, 3.0])
    assert abs(pair_loss(p, p, 0)) <= 1e-12
    assert abs(pair_loss(p, q, 1, margin=1.0)) <= 1e-12  # d_W = 5 >= m
    assert abs(pair_loss(p, p, 1, margin=1.0) - 0.5) <= 1e-12
    print("\nPASS criterion 5: loss closed forms exact (0, 0, m^2/2) to 1e-12")


@pytest.fixture(scope="module")
def end_to_end_runs():
    runs = []
    start = time.time()
    for seed in range(5):
        fs = synth_generate(E2E_CLASSES, 200, 64, noise=0.25, frames_per_track=5,
                            cooc_rate=0.5, seed=seed)
        all_sources = PipelineConfig(seed=seed, **E2E_CONFIG)
        posc_only = config_from_values({"sources.neg_cluster": False, "sources.neg_video": False,
                                        "pipeline.video_correction": False}, all_sources)
        report = run_pipeline(all_sources, fs)
        posc_report = run_pipeline(posc_only, fs)
        runs.append({
            "baseline": report["baseline"]["acc"],
            "ccl": report["ccl"]["acc"],
            "posc_only": posc_report["ccl"]["acc"],
        })
    return runs, time.time() - start


def test_c06_end_to_end_improvement(end_to_end_runs):
    runs, elapsed = end_to_end_runs
    assert elapsed < 300.0
    for run in runs:
        assert 0.70 <= run["baseline"] <= 0.90, "family drifted out of the tuned range"
    wins = sum(1 for run in runs if run["ccl"] - run["baseline"] >= 0.03)
    deltas = " ".join(f"{run['ccl'] - run['baseline']:+.3f}" for run in runs)
    assert wins >= 4, f"only {wins}/5 seeds improved by >= 0.03 ({deltas})"
    print(f"\nPASS criterion 6: refined HAC beats baseline by >= 0.03 on "
          f"{wins}/5 seeds ({deltas}; {elapsed:.0f}s)")


def test_c07_ablation_ordering(end_to_end_runs):
    runs, _ = end_to_end_runs
    wins = sum(1 for run in runs if run["ccl"] >= run["posc_only"])
    pairs = " ".join(f"{run['ccl']:.3f}>={run['posc_only']:.3f}" for run in runs)
    assert wins >= 4, f"all-sources < PosC-only on {5 - wins}/5 seeds"
    print(f"\nPASS criterion 7: all sources >= PosC-only on {wins}/5 seeds ({pairs})")


def test_c08_ward_matches_naive_oracle():
    rng = np.random.default_rng(77)
    start = time.time()
    for _ in range(100):
        n = int(rng.integers(3, 65))
        c = int(rng.integers(1, n + 1))
        points = rng.normal(size=(n, int(rng.integers(2, 8))))
        np.testing.assert_array_equal(ward_hac(points, c).labels, naive_ward(points, c))
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 8: 100/100 Ward cuts equal the O(N^3) "
          f"recompute-from-scratch oracle ({elapsed:.1f}s)")


def test_c09_metric_oracles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        pred = rng.integers(0, 8, n)
        gt = rng.integers(0, 8, n)
        ours = bcubed(pred, gt)
        brute = brute_bcubed(pred, gt)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(ours, brute))

        perm_p = rng.permutation(8)
        perm_g = rng.permutation(8)
        assert wcp(pred, gt)[0] == wcp(perm_p[pred], perm_g[gt])[0]
        permuted = bcubed(perm_p[pred], perm_g[gt])
        assert all(abs(a - b) <= 1e-12 for a, b in zip(ours, permuted))

    acc, _, _ = wcp([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
    assert acc == 0.6
    print("\nPASS criterion 9: B-Cubed equals item-wise brute force to 1e-12, "
          "WCP hand case = 0.6, both metrics relabeling-invariant")


def test_c10_batch_shape_contract():
    fs = l2_normalize(synth_generate(6, 120, 16, noise=0.1, frames_per_track=5,
                                     cooc_rate=0.4, seed=3))
    cooc = build_cooccurrence(fs)
    hierarchy = finch_hierarchy(fs)
    partition = apply_video_correction(hierarchy.partition(2), cooc, fs.features)
    cfg = MiningConfig(seed=11)  # defaults: 25/25 pairs, 5 clusters per batch
    ranks = rank_clusters(cluster_means(fs.features, partition), cfg.z_near, cfg.z_far)
    audited = 0
    for epoch in range(3):
        for batch in mine_epoch(partition, ranks, cooc, cfg, epoch):
            assert len(batch) == 250
            assert int(np.sum(batch.y == 0)) == 125
            audited += 1
    print(f"\nPASS criterion 10: {audited} batches over 3 full epochs all "
          f"carry 250 pairs with 125 positives")


def test_c11_run_determinism(tmp_path):
    fs = synth_generate(4, 80, 16, noise=0.2, frames_per_track=5, cooc_rate=0.3, seed=6)
    outputs = []
    for name in ("first", "second"):
        cfg = PipelineConfig(out_dir=str(tmp_path / name), num_clusters=4,
                             eval_level="frame", seed=21,
                             mining=MiningConfig(z_near=5, z_far=5),
                             training=TrainConfig(epochs=3, lr=1e-3, hidden_dim=16))
        report = run_pipeline(cfg, fs)
        outputs.append({
            "labels": (tmp_path / name / "labels.csv").read_bytes(),
            "pairs": (tmp_path / name / "pairs_epoch0.csv").read_bytes(),
            "model": (tmp_path / name / "model.ccl").read_bytes(),
            "metrics": (report["ccl"], report["baseline"]),
        })
    assert outputs[0] == outputs[1]
    print("\nPASS criterion 11: repeated runs are byte-identical "
          "(labels, pairs, checkpoint) with equal metrics")


def _reproduction(path, num_clusters, base_acc, ccl_acc, expected_counts=None):
    fs = load_features(path)
    cfg = PipelineConfig(num_clusters=num_clusters, eval_level="track", seed=0)
    report = run_pipeline(cfg, fs)
    assert abs(report["baseline"]["acc"] - base_acc) <= 0.02
    assert abs(report["ccl"]["acc"] - ccl_acc) <= 0.02
    if expected_counts is not None:
        counts = report["partition_stats"]["cluster_counts"][: len(expected_counts)]
        for got, want in zip(counts, expected_counts):
            assert abs(got - want) <= 0.05 * want
    return report


@pytest.mark.skipif("CCL_BBT0101_FEATURES" not in os.environ,
                    reason="BBT-0101 features not supplied")
def test_c12a_reproduction_bbt0101():
    report = _reproduction(os.environ["CCL_BBT0101_FEATURES"], 5, 0.932, 0.982,
                           expected_counts=[10156, 2236, 490, 101, 13])
    print(f"\nPASS criterion 12a: BBT-0101 base {report['baseline']['acc']:.3f}, "
          f"refined {report['ccl']['acc']:.3f}")


@pytest.mark.skipif("CCL_BF0502_FEATURES" not in os.environ,
                    reason="BF-0502 features not supplied")
def test_c12b_reproduction_bf0502():
    report = _reproduction(os.environ["CCL_BF0502_FEATURES"], 6, 0.836, 0.921)
    print(f"\nPASS criterion 12b: BF-0502 base {report['baseline']['acc']:.3f}, "
          f"refined {report['ccl']['acc']:.3f}")
