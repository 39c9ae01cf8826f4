import re
import warnings

import numpy as np
import pytest

from oracles import pair_set

from ccl.cli import main
from ccl.data import build_cooccurrence
from ccl.finch import finch_hierarchy, partition_purity
from ccl.synth import synth_generate


def test_noise_free_first_partition_is_pure():
    fs = synth_generate(3, 40, 8, noise=0.0, frames_per_track=4, cooc_rate=0.3, seed=0)
    hierarchy = finch_hierarchy(fs)
    assert partition_purity(hierarchy.partitions[0], fs.label) == 1.0


def test_zero_cooc_rate_gives_empty_set():
    fs = synth_generate(3, 20, 8, noise=0.1, frames_per_track=4, cooc_rate=0.0, seed=1)
    assert len(build_cooccurrence(fs)) == 0


def test_cooc_pairs_never_share_a_label():
    fs = synth_generate(4, 50, 16, noise=0.2, frames_per_track=5, cooc_rate=0.6, seed=2)
    cooc = build_cooccurrence(fs)
    assert len(cooc) > 0
    for i, j in pair_set(cooc):
        assert fs.label[i] != fs.label[j]


def test_rows_are_unit_norm_and_tracks_consistent():
    fs = synth_generate(3, 21, 8, noise=0.3, frames_per_track=5, cooc_rate=0.2, seed=3)
    norms = np.linalg.norm(fs.features.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)
    # tracks are runs of consecutive rows within a single class
    for t in np.unique(fs.track_id):
        rows = np.flatnonzero(fs.track_id == t)
        assert rows.size <= 5
        assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
        assert len(np.unique(fs.label[rows])) == 1


def test_center_angles_at_least_60_degrees():
    fs = synth_generate(5, 10, 3, noise=0.0, frames_per_track=2, cooc_rate=0.0, seed=4)
    # noise-free rows are the centers themselves
    centers = np.unique(fs.features, axis=0)
    dots = centers @ centers.T
    np.fill_diagonal(dots, 0.0)
    assert dots.max() <= 0.5 + 1e-6


def test_infeasible_placement_errors():
    with pytest.raises(ValueError, match="infeasible"):
        synth_generate(40, 5, 2, noise=0.1, frames_per_track=2, cooc_rate=0.0, seed=5)


def test_bad_arguments(tmp_path, capsys):
    with pytest.raises(ValueError):
        synth_generate(0, 5, 4, 0.1, 2, 0.0, 0)
    with pytest.raises(ValueError):
        synth_generate(2, 5, 4, -0.1, 2, 0.0, 0)
    with pytest.raises(ValueError):
        synth_generate(2, 5, 4, 0.1, 2, 1.5, 0)
    for noise in ("nan", "inf"):
        message = f"synth noise (--noise) must be finite and >= 0, got {noise}"
        with pytest.raises(ValueError, match=re.escape(message)):
            synth_generate(2, 5, 4, float(noise), 2, 0.0, 0)
        out = tmp_path / f"{noise}.cclf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exit_info:
                main(["synth", "--classes", "2", "--per-class", "5", "--noise", noise,
                      "--out", str(out)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"ccl synth: error: {message}\n"
        assert not out.exists()
