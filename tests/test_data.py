import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ccl.data import (
    FeatureFileError,
    FeatureSet,
    aggregate_tracks,
    build_cooccurrence,
    group_sums,
    l2_normalize,
    load_features,
    load_features_csv,
    sq_distances,
    sq_norms,
    unit_rows,
    write_features,
)

from corruption import corrupt, corruptions
from oracles import add_at_group_sums, naive_aggregate_tracks, naive_cooccurrence, pair_set


def make_fs(features, frame=None, track=None, label=None):
    return FeatureSet(np.asarray(features, dtype=np.float32), frame, track, label)


def test_load_in_file_order(tmp_path):
    fs = make_fs([[1, 0, 0], [0, 1, 0]])
    path = tmp_path / "two.cclf"
    write_features(fs, path)
    loaded = load_features(path)
    assert loaded.features.shape == (2, 3)
    np.testing.assert_array_equal(loaded.features, fs.features)
    assert loaded.frame_id is None and loaded.track_id is None and loaded.label is None


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    fs = FeatureSet(
        rng.normal(size=(100, 16)).astype(np.float32),
        frame_id=rng.integers(0, 50, 100),
        track_id=rng.integers(0, 10, 100),
        label=rng.integers(0, 3, 100),
    )
    path = tmp_path / "rt.cclf"
    write_features(fs, path)
    loaded = load_features(path)
    assert loaded.features.tobytes() == fs.features.tobytes()
    np.testing.assert_array_equal(loaded.frame_id, fs.frame_id)
    np.testing.assert_array_equal(loaded.track_id, fs.track_id)
    np.testing.assert_array_equal(loaded.label, fs.label)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.cclf"
    header = struct.pack("<4sIQQ???", b"CCLF", 1, 1, 4, False, False, False)
    path.write_bytes(header)  # N=1 promised, zero payload bytes
    with pytest.raises(FeatureFileError, match="truncated"):
        load_features(path)


def test_header_larger_than_file_is_rejected_before_reading(tmp_path):
    path = tmp_path / "huge.cclf"
    header = struct.pack("<4sIQQ???", b"CCLF", 1, 2**40, 2**20, True, False, False)
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(FeatureFileError, match="truncated payload: header declares"):
        load_features(path)
    # the payload fits, the declared frame_id array does not
    path.write_bytes(struct.pack("<4sIQQ???", b"CCLF", 1, 2, 1, True, False, False)
                     + np.ones(2, dtype="<f4").tobytes() + b"\x00" * 15)
    with pytest.raises(FeatureFileError, match="truncated"):
        load_features(path)


@pytest.fixture(scope="module")
def valid_cclf(tmp_path_factory):
    rng = np.random.default_rng(3)
    fs = FeatureSet(rng.normal(size=(6, 3)).astype(np.float32), frame_id=np.arange(6),
                    track_id=np.arange(6) // 2, label=np.arange(6) % 2)
    path = tmp_path_factory.mktemp("cclf") / "valid.cclf"
    write_features(fs, path)
    return path


@settings(max_examples=300, deadline=None)
@given(corruption=corruptions)
def test_corrupted_feature_file_raises_only_domain_errors(valid_cclf, corruption):
    path = valid_cclf.with_name("corrupt.cclf")
    path.write_bytes(corrupt(valid_cclf.read_bytes(), corruption))
    try:
        load_features(path)
    except FeatureFileError:
        return
    assert corruption[0] == "flip", "a file whose size differs from its header loaded"


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.cclf"
    path.write_bytes(struct.pack("<4sIQQ???", b"NOPE", 1, 1, 1, False, False, False) + b"\x00" * 4)
    with pytest.raises(FeatureFileError, match="magic"):
        load_features(path)
    path.write_bytes(struct.pack("<4sIQQ???", b"CCLF", 9, 1, 1, False, False, False) + b"\x00" * 4)
    with pytest.raises(FeatureFileError, match="version"):
        load_features(path)


def test_load_rejects_nonfinite_and_zero_rows(tmp_path):
    path = tmp_path / "nan.cclf"
    feats = np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=np.float32)
    header = struct.pack("<4sIQQ???", b"CCLF", 1, 2, 2, False, False, False)
    path.write_bytes(header + feats.tobytes())
    with pytest.raises(FeatureFileError, match="row 1"):
        load_features(path)

    zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    path.write_bytes(header + zero.tobytes())
    with pytest.raises(FeatureFileError, match="zero-norm.*row 1"):
        load_features(path)


def test_load_accepts_tiny_and_huge_rows_and_rejects_zero_rows(tmp_path):
    # a float32 norm underflows to 0 on [1e-30, 0] and overflows on 3e38
    feats = np.array([[1e-30, 0.0], [3e38, -3e38], [0.0, 1.0]], dtype=np.float32)
    path = tmp_path / "extreme.cclf"
    write_features(FeatureSet(feats), path)
    csv_path = tmp_path / "extreme.csv"
    csv_path.write_text("frame_id,track_id,label,f0,f1\n"
                        + "".join(f"0,0,0,{a!r},{b!r}\n" for a, b in feats.tolist()))
    for loaded in (load_features(path), load_features_csv(csv_path)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(loaded.features, feats)
            unit = l2_normalize(loaded).features
        np.testing.assert_array_equal(unit[0], [1.0, 0.0])
        np.testing.assert_allclose(unit[1], [2 ** -0.5, -(2 ** -0.5)], rtol=1e-6)

    feats[2] = 0.0
    write_features(FeatureSet(feats), path)
    with pytest.raises(FeatureFileError, match="zero-norm feature row 2"):
        load_features(path)
    csv_path.write_text(csv_path.read_text().replace("0,0,0,0.0,1.0", "0,0,0,0.0,-0.0"))
    with pytest.raises(FeatureFileError, match=r"extreme\.csv line 4: zero-norm feature row"):
        load_features_csv(csv_path)


def test_csv_import(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(
        "frame_id,track_id,label,f0,f1\n"
        "0,0,1,0.5,0.25\n"
        "0,1,0,1.0,-1.0\n"
        "3,-1,-1,2.0,0.0\n"
    )
    fs = load_features_csv(path)
    assert fs.features.shape == (3, 2)
    np.testing.assert_array_equal(fs.frame_id, [0, 0, 3])
    np.testing.assert_array_equal(fs.track_id, [0, 1, -1])
    np.testing.assert_array_equal(fs.label, [1, 0, -1])
    np.testing.assert_allclose(fs.features[0], [0.5, 0.25])


@pytest.mark.parametrize("bad_line, message", [
    ("x,0,1,0.5,0.25", "invalid literal for int"),
    ("0,1.5,1,0.5,0.25", "invalid literal for int"),
    ("0,0,,0.5,0.25", "invalid literal for int"),
    ("0,0,1,0.5,abc", "could not convert string to float"),
    ("0,0,1,0.5", "4 fields, expected 5"),
    ("0,99999999999999999999,1,0.5,0.25", "id outside the int64 range"),
    ("0,0,1,0.5,nan", "non-finite value in feature row"),
    ("0,0,1,0.5,-1e39", r"value outside the float32 range \[-3\.4028235e\+38, "
                        r"3\.4028235e\+38\] in feature row"),
    ("0,0,1,0.0,0.0", "zero-norm feature row"),
])
def test_csv_bad_cell_names_file_and_line(tmp_path, bad_line, message):
    path = tmp_path / "bad.csv"
    path.write_text("frame_id,track_id,label,f0,f1\n0,0,1,0.5,0.25\n" + bad_line + "\n")
    with pytest.raises(FeatureFileError, match=rf"bad\.csv line 3: {message}"):
        load_features_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,f0\n0,0,0,1.0\n")
    with pytest.raises(FeatureFileError, match="header"):
        load_features_csv(path)


def test_l2_normalize_345():
    fs = l2_normalize(make_fs([[3.0, 4.0]]))
    np.testing.assert_allclose(fs.features[0], [0.6, 0.8], atol=1e-7)


def test_l2_normalize_unit_unchanged():
    fs = l2_normalize(make_fs([[0.0, 1.0]]))
    np.testing.assert_allclose(fs.features[0], [0.0, 1.0], atol=1e-7)


def test_l2_normalize_random_norms():
    rng = np.random.default_rng(3)
    fs = l2_normalize(make_fs(rng.normal(size=(50, 8))))
    # recompute norms with plain python arithmetic
    for row in fs.features:
        norm = math.sqrt(sum(float(v) ** 2 for v in row))
        assert abs(norm - 1.0) < 1e-5


def test_l2_normalize_zero_row_errors():
    with pytest.raises(ValueError, match="row 1"):
        l2_normalize(make_fs([[1.0, 0.0], [0.0, 0.0]]))


def test_aggregate_identical_rows():
    fs = make_fs([[0.6, 0.8], [0.6, 0.8]], track=[4, 4], label=[2, 2])
    tr = aggregate_tracks(fs)
    assert tr.num_samples == 1
    np.testing.assert_allclose(tr.features[0], [0.6, 0.8], atol=1e-6)
    assert tr.label[0] == 2 and tr.track_id[0] == 4


def test_aggregate_symmetric_rows():
    fs = make_fs([[1.0, 0.0], [0.0, 1.0]], track=[0, 0], label=[1, 1])
    tr = aggregate_tracks(fs)
    np.testing.assert_allclose(tr.features[0], [1 / math.sqrt(2)] * 2, atol=1e-6)


def test_aggregate_matches_groupby_oracle():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(30, 5)).astype(np.float32)
    track = rng.integers(0, 3, 30)
    label = track.copy()  # one label per track
    tr = aggregate_tracks(make_fs(feats, track=track, label=label))
    assert tr.num_samples == 3
    np.testing.assert_array_equal(tr.track_id, [0, 1, 2])
    for t in range(3):
        mean = feats[track == t].astype(np.float64).mean(axis=0)
        mean /= math.sqrt(float((mean ** 2).sum()))
        np.testing.assert_allclose(tr.features[t], mean, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(tracks=st.one_of(
    st.lists(st.integers(0, 6), min_size=1, max_size=40),        # a few interleaved tracks
    st.lists(st.integers(0, 10**12), min_size=1, max_size=40),   # mostly singleton tracks
    st.integers(1, 40).map(lambda n: [7] * n)),                   # one track holds every row
    labels=st.sampled_from(["none", "per track", "per row"]),
    dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_aggregate_matches_naive_oracle(tracks, labels, dim, seed):
    rng = np.random.default_rng(seed)
    track = np.asarray(tracks, dtype=np.int64)
    label = {"none": None, "per track": track % 3 - 1,
             "per row": rng.integers(-1, 2, track.size)}[labels]
    fs = make_fs(rng.normal(size=(track.size, dim)), track=track, label=label)
    try:
        features, track_ids, track_labels = naive_aggregate_tracks(fs)
    except ValueError as exc:  # mixed labels: the same track must be named
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            aggregate_tracks(fs)
        return
    tr = aggregate_tracks(fs)
    assert tr.features.dtype == np.float32 and tr.features.shape == features.shape
    assert tr.features.tobytes() == features.tobytes()
    np.testing.assert_array_equal(tr.track_id, track_ids)
    np.testing.assert_array_equal(tr.label, track_labels)
    assert tr.frame_id is None


def test_aggregate_names_the_track_of_a_zero_norm_mean():
    fs = make_fs([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], track=[3, 9, 9])
    with pytest.raises(ValueError, match="zero-norm mean of track 9"):
        aggregate_tracks(fs)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 30), dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_unit_rows_matches_the_expressions_it_replaces(rows, dim, seed):
    wide = np.random.default_rng(seed).normal(size=(rows, dim))
    narrow = wide.astype(np.float32)
    # l2_normalize: float32 rows widened, then divided by their float64 norms
    as_f64 = narrow.astype(np.float64)
    expected = (as_f64 / np.linalg.norm(as_f64, axis=1)[:, None]).astype(np.float32)
    assert unit_rows(narrow).astype(np.float32).tobytes() == expected.tobytes()
    # embed: float32 rows divided by float64 norms
    expected = (narrow / np.linalg.norm(as_f64, axis=1)[:, None]).astype(np.float32)
    assert unit_rows(narrow).astype(np.float32).tobytes() == expected.tobytes()
    # cluster_means: float64 rows
    expected = wide / np.linalg.norm(wide, axis=1)[:, None]
    assert unit_rows(wide).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 40), dim=st.integers(1, 5),
       extra_groups=st.integers(0, 3), dtype=st.sampled_from([np.float32, np.float64]))
def test_group_sums_match_scatter_add_bitwise(data, rows, dim, extra_groups, dtype):
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6, width=32))
    points = data.draw(hnp.arrays(dtype, (rows, dim), elements=values))
    m = data.draw(st.integers(1, 6)) + extra_groups  # groups past the drawn labels stay empty
    labels = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, m - extra_groups - 1)))
    sums = group_sums(points, labels, m)
    assert sums.dtype == np.float64 and sums.shape == (m, dim)
    assert sums.tobytes() == add_at_group_sums(points, labels, m).tobytes()


@pytest.mark.parametrize("block", [1, 7, 256])
def test_unit_rows_in_blocks_match_one_division_bitwise(monkeypatch, block):
    monkeypatch.setattr("ccl.data.BLOCK_ROWS", block)
    wide = np.random.default_rng(block).normal(size=(600, 9))
    expected = wide / np.linalg.norm(wide, axis=1)[:, None]
    assert unit_rows(wide).tobytes() == expected.tobytes()
    narrow = wide.astype(np.float32)
    as_f64 = narrow.astype(np.float64)
    assert (unit_rows(narrow).tobytes()
            == (as_f64 / np.linalg.norm(as_f64, axis=1)[:, None]).tobytes())
    copy = wide.copy()
    assert unit_rows(copy, in_place=True) is copy and copy.tobytes() == expected.tobytes()
    wide[[300, 400]] = 0.0
    with pytest.raises(ValueError, match="zero-norm row 300$"):
        unit_rows(wide)


def test_unit_rows_names_the_zero_row():
    rows = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    with pytest.raises(ValueError, match="zero-norm row 1$"):
        unit_rows(rows)
    with pytest.raises(ValueError, match="zero-norm embedding row 1$"):
        unit_rows(rows, lambda r: f"embedding row {r}")


def test_aggregate_rejects_mixed_labels():
    fs = make_fs([[1.0, 0.0], [0.0, 1.0]], track=[0, 0], label=[1, 2])
    with pytest.raises(ValueError, match="mixed"):
        aggregate_tracks(fs)


def test_aggregate_rejects_missing_track():
    fs = make_fs([[1.0, 0.0], [0.0, 1.0]], track=[0, -1], label=[1, 1])
    with pytest.raises(ValueError, match="track_id"):
        aggregate_tracks(fs)
    with pytest.raises(ValueError, match="track_id"):
        aggregate_tracks(make_fs([[1.0, 0.0]]))


def test_cooccurrence_single_shared_frame():
    fs = make_fs([[1, 0], [0, 1], [1, 1]], frame=[0, 0, 1])
    cooc = build_cooccurrence(fs)
    assert pair_set(cooc) == {(0, 1)}


def test_cooccurrence_all_distinct():
    fs = make_fs([[1, 0], [0, 1], [1, 1]], frame=[0, 1, 2])
    assert len(build_cooccurrence(fs)) == 0


@given(st.integers(min_value=2, max_value=8))
def test_cooccurrence_combinatorial_count(k):
    feats = np.ones((k, 2), dtype=np.float32)
    cooc = build_cooccurrence(make_fs(feats, frame=[5] * k))
    assert len(cooc) == k * (k - 1) // 2


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_cooccurrence_permutation_invariant(r):
    n = 12
    frames = [r.randrange(5) for _ in range(n)]
    feats = np.eye(n, 3, dtype=np.float32) + 1.0
    base = build_cooccurrence(make_fs(feats, frame=frames))
    perm = list(range(n))
    r.shuffle(perm)
    permuted = build_cooccurrence(make_fs(feats[perm], frame=[frames[p] for p in perm]))
    # map base pairs through the permutation
    inv = {p: i for i, p in enumerate(perm)}
    remapped = {tuple(sorted((inv[a], inv[b]))) for a, b in pair_set(base)}
    assert remapped == pair_set(permuted)


@settings(max_examples=200, deadline=None)
@given(frames=st.one_of(
    st.lists(st.integers(-1, 6), min_size=1, max_size=40),       # -1 = no frame
    st.lists(st.integers(-1, 1000), min_size=1, max_size=40),    # mostly singletons
    st.integers(1, 40).map(lambda n: [3] * n)))                  # one frame holds every row
def test_cooccurrence_matches_naive_oracle(frames):
    fs = make_fs(np.ones((len(frames), 2)), frame=frames)
    cooc = build_cooccurrence(fs)
    assert cooc.n == len(frames) and cooc.codes.dtype == np.int64
    assert np.all(np.diff(cooc.codes) > 0)
    assert pair_set(cooc) == naive_cooccurrence(fs)


def test_feature_set_validation():
    with pytest.raises(ValueError):
        FeatureSet(np.zeros((0, 3), dtype=np.float32))
    with pytest.raises(FeatureFileError):
        FeatureSet(np.array([[np.inf, 1.0]], dtype=np.float32))
    fs = make_fs([[1, 2]], label=[4])
    assert fs.num_classes == 5
    assert make_fs([[1, 2]]).num_classes == 0


@pytest.mark.parametrize("rows, cols", [(1, 5), (37, 19), (300, 300), (513, 40)])
def test_sq_distances_in_place_blocks_match_one_expression_bitwise(monkeypatch, rows, cols):
    rng = np.random.default_rng(rows)
    a, b = rng.normal(size=(rows, 7)), rng.normal(size=(cols, 7))
    b[:2] = a[:2]  # clamped: a distance of a row to itself rounds to about 0
    aa = np.einsum("ij,ij->i", a, a)[:, None]
    bb = np.einsum("ij,ij->i", b, b)[None, :]
    want = np.maximum(aa + bb - 2.0 * a @ b.T, 0.0)
    for block in (1, 7, 256):  # the norms and the finishing step, in blocks
        monkeypatch.setattr("ccl.data.BLOCK_ROWS", block)
        assert sq_norms(a).tobytes() == aa[:, 0].tobytes()
        assert sq_distances(a, b).tobytes() == want.tobytes()
