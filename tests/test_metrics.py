import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl.metrics import bcubed, evaluate_clustering, wcp

from oracles import brute_bcubed, brute_wcp

label_vectors = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
)


def test_wcp_perfect_up_to_renaming():
    gt = [0, 0, 1, 1, 2]
    pred = [7, 7, 3, 3, 9]
    acc, _, _ = wcp(pred, gt)
    assert acc == 1.0


def test_wcp_single_cluster_majority():
    acc, sizes, purities = wcp([0, 0, 0, 0], [0, 0, 1, 1])
    assert acc == 0.5
    assert sizes == [4] and purities == [0.5]


def test_wcp_hand_case():
    acc, _, _ = wcp([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
    assert acc == pytest.approx(0.6, abs=0)


def test_wcp_errors():
    with pytest.raises(ValueError):
        wcp([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        wcp([0, 1], [0, -1])


def test_bcubed_perfect():
    assert bcubed([1, 1, 0], [5, 5, 2]) == (1.0, 1.0, 1.0)


def test_bcubed_all_singletons():
    gt = [0, 0, 0, 1]
    p, r, f = bcubed([0, 1, 2, 3], gt)
    assert p == 1.0
    assert r == pytest.approx(np.mean([1 / 3, 1 / 3, 1 / 3, 1.0]))


@settings(max_examples=100)
@given(label_vectors)
def test_bcubed_matches_bruteforce(vectors):
    pred, gt = vectors
    p, r, f = bcubed(pred, gt)
    bp, br, bf = brute_bcubed(pred, gt)
    assert abs(p - bp) < 1e-12 and abs(r - br) < 1e-12 and abs(f - bf) < 1e-12


@settings(max_examples=100)
@given(label_vectors)
def test_wcp_matches_bruteforce(vectors):
    pred, gt = vectors
    acc, sizes, purities = wcp(pred, gt)
    assert abs(acc - brute_wcp(pred, gt)) < 1e-12
    assert abs(acc - sum(n * p for n, p in zip(sizes, purities)) / len(pred)) < 1e-12


@settings(max_examples=60)
@given(label_vectors, st.randoms(use_true_random=False))
def test_metrics_invariant_under_relabeling(vectors, r):
    pred, gt = vectors
    perm_pred = list(range(10))
    perm_gt = list(range(10))
    r.shuffle(perm_pred)
    r.shuffle(perm_gt)
    pred2 = [perm_pred[p] for p in pred]
    gt2 = [perm_gt[g] for g in gt]
    assert wcp(pred, gt)[0] == pytest.approx(wcp(pred2, gt2)[0], abs=1e-12)
    a = bcubed(pred, gt)
    b = bcubed(pred2, gt2)
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=60)
@given(label_vectors)
def test_ranges_and_purity_condition(vectors):
    pred, gt = vectors
    report = evaluate_clustering(pred, gt)
    for value in (report.acc, report.bcubed_p, report.bcubed_r, report.bcubed_f):
        assert 0.0 <= value <= 1.0
    pure = all(
        len({gt[i] for i in range(len(pred)) if pred[i] == c}) == 1
        for c in set(pred)
    )
    assert (report.acc == 1.0) == pure


@settings(max_examples=60)
@given(label_vectors)
def test_wcp_monotone_under_pure_split(vectors):
    pred, gt = vectors
    before, _, _ = wcp(pred, gt)
    # split cluster 0 (if present) into ground-truth-pure parts
    split = [p if p != 0 else 100 + gt[i] for i, p in enumerate(pred)]
    after, _, _ = wcp(split, gt)
    assert after >= before - 1e-12


def correct_samples(report) -> int:
    """Samples covered by their cluster's majority label (N * acc)."""
    return int(round(sum(n * p for n, p in zip(report.cluster_sizes, report.cluster_purities))))


def test_report_correct_samples():
    report = evaluate_clustering([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
    assert correct_samples(report) == 3
    assert report.num_clusters == 2
