import json
import logging
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings

from ccl import data, hac, memory, pipeline, siamese
from ccl.data import (FeatureFileError, FeatureSet, aggregate_tracks, load_features_csv,
                      write_features)
from ccl.hac import ward_hac, ward_matrix_bytes
from ccl.mining import MiningConfig
from ccl.pipeline import (
    ABLATION_ROWS,
    ID_COLUMNS,
    PipelineConfig,
    PipelineError,
    StageTimer,
    config_from_values,
    load_any_features,
    level_points,
    parse_config_file,
    read_cooc_csv,
    read_labels_csv,
    read_partition_csv,
    run_ablation,
    run_pipeline,
    write_labels_csv,
    write_partition_csv,
)
from ccl.siamese import TrainConfig, embed, init_model
from ccl.synth import synth_generate

from corruption import corrupt, corruptions


@pytest.fixture(scope="module")
def small_dataset():
    return synth_generate(3, 60, 12, 0.15, 5, 0.3, seed=1)


def quick_config(**overrides):
    defaults = dict(num_clusters=3, eval_level="frame", seed=0,
                    mining=MiningConfig(z_near=5, z_far=5),
                    training=TrainConfig(epochs=2, lr=1e-3, hidden_dim=16))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# the timing keys of a labelled in-memory run (no 'load') whose frames co-occur
STAGE_KEYS = {"normalize", "cooccurrence", "finch", "select_partition", "video_correction",
              "rank_clusters", "train", "embed", "aggregate", "hac", "evaluate", "baseline"}


def test_run_pipeline_report_and_artifacts(tmp_path, small_dataset):
    cfg = quick_config(out_dir=str(tmp_path / "run"))
    report = run_pipeline(cfg, small_dataset)
    assert {"config", "partition_stats", "ccl", "baseline", "timings"} <= report.keys()
    assert 0.0 <= report["ccl"]["acc"] <= 1.0
    out = tmp_path / "run"
    for name in ("partitions.csv", "partitions.csv.json", "pairs_epoch0.csv",
                 "model.ccl", "labels.csv", "report.json"):
        assert (out / name).exists(), name
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["ccl"]["acc"] == report["ccl"]["acc"]
    assert report["timings"].keys() == STAGE_KEYS
    kmeans = run_pipeline(quick_config(backend="kmeans"), small_dataset)
    assert kmeans["timings"].keys() == STAGE_KEYS | {"kmeans"}


def test_pair_audit_is_epoch_zero_with_and_without_training(tmp_path, small_dataset):
    audits = []
    for epochs in (2, 0):
        out = tmp_path / f"e{epochs}"
        training = TrainConfig(epochs=epochs, lr=1e-3, hidden_dim=16)
        run_pipeline(quick_config(out_dir=str(out), training=training), small_dataset)
        audits.append((out / "pairs_epoch0.csv").read_bytes())
    assert audits[0] == audits[1]
    assert audits[0].count(b"\n") > 1


def test_a_run_failing_in_training_leaves_the_pair_audit(tmp_path, small_dataset, monkeypatch):
    run_pipeline(quick_config(out_dir=str(tmp_path / "run")), small_dataset)

    def failing_step(*args):
        raise RuntimeError("step failed")

    monkeypatch.setattr(siamese, "_train_step", failing_step)
    with pytest.raises(PipelineError, match="^stage 'train' failed: step failed$"):
        run_pipeline(quick_config(out_dir=str(tmp_path / "failed")), small_dataset)
    audit = (tmp_path / "failed" / "pairs_epoch0.csv").read_bytes()
    assert audit == (tmp_path / "run" / "pairs_epoch0.csv").read_bytes()


@pytest.mark.parametrize("level", ["track", "frame"])
def test_each_hac_runs_without_the_arrays_no_later_stage_reads(tmp_path, small_dataset,
                                                               monkeypatch, level):
    path = tmp_path / "features.cclf"
    write_features(small_dataset, path)
    refs = {}

    def load(path):
        fs = load_any_features(path)
        refs["features"] = weakref.ref(fs.features)
        return fs

    def normalize(fs):
        normalized = data.l2_normalize(fs)
        refs["normalized"] = weakref.ref(normalized.features)
        return normalized

    def embed(model, fs):
        embedded = siamese.embed(model, fs)
        refs["embeddings"] = weakref.ref(embedded.features)
        return embedded

    alive = []

    def ward(points, c):
        alive.append(sorted(name for name, ref in refs.items() if ref() is not None))
        return ward_hac(points, c)

    monkeypatch.setattr(pipeline, "load_any_features", load)
    monkeypatch.setattr(pipeline, "l2_normalize", normalize)
    monkeypatch.setattr(pipeline, "embed", embed)
    monkeypatch.setattr(pipeline, "ward_hac", ward)
    run_pipeline(quick_config(features=str(path), eval_level=level))
    # the baseline HAC, then the refined HAC; the normalized rows are dead by
    # the refined HAC, whose points at frame level are the embeddings
    assert alive == [["normalized"], ["embeddings"] if level == "frame" else []]


def stream_setup(n=53, dim=8, hidden=24, seed=6):
    """A float32 model with a non-trivial batch norm and rows whose track ids
    are interleaved and unsorted; track 88's 20 consecutive rows cross chunk
    boundaries at every chunk size below 20."""
    rng = np.random.default_rng(seed)
    model = init_model(dim, hidden, 4, seed=seed, dtype=np.float32)
    model.bn_mean[:] = 0.25
    track = np.concatenate([np.full(20, 88), rng.choice([41, 3, 17, 9, 26], n - 20)])
    return model, FeatureSet(rng.normal(size=(n, dim)), track_id=track)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_track_points_stream_the_embeddings_bitwise(monkeypatch, chunk):
    model, fs = stream_setup()
    refined = aggregate_tracks(embed(model, fs)).features
    baseline = aggregate_tracks(fs).features
    monkeypatch.setattr(data, "BLOCK_ROWS", chunk or fs.num_samples)
    timer = StageTimer()
    points = level_points(fs, "track", timer, model)
    assert timer.timings.keys() == {"embed", "aggregate"}
    assert points.dtype == np.float32 and points.tobytes() == refined.tobytes()
    points = level_points(fs, "track", StageTimer())
    assert points.dtype == np.float32 and points.tobytes() == baseline.tobytes()


def test_track_points_name_a_zero_norm_embedding_row_and_track_mean(monkeypatch):
    monkeypatch.setattr(data, "BLOCK_ROWS", 16)
    # zero biases and running mean: the embedding is linear in the row
    model = init_model(4, 6, 2, seed=0, dtype=np.float32)
    features = np.random.default_rng(1).normal(size=(40, 4))
    track = np.arange(40) // 4
    features[21] = 0.0  # embeds to the zero vector, in the second chunk
    with pytest.raises(PipelineError, match="^stage 'embed' failed: zero-norm embedding row 21$"):
        level_points(FeatureSet(features, track_id=track), "track", StageTimer(), model)
    features[21] = 1.0
    features[[29, 31]] = -features[[28, 30]]  # track 7's rows cancel in pairs
    with pytest.raises(PipelineError,
                       match="^stage 'aggregate' failed: zero-norm mean of track 7$"):
        level_points(FeatureSet(features, track_id=track), "track", StageTimer(), model)


def test_run_names_a_stage_nested_in_another_once(small_dataset):
    # Track 0 keeps four rows, which cancel in pairs once normalized, so the
    # baseline HAC's 'aggregate' stage fails inside the 'baseline' stage.
    fs = small_dataset
    track_id = fs.track_id.copy()
    rows = np.flatnonzero(track_id == 0)
    track_id[rows[4:]] = track_id.max() + 1 + np.arange(rows.size - 4)
    features = fs.features.copy()
    features[rows[[1, 3]]] = -features[rows[[0, 2]]]
    with pytest.raises(PipelineError, match="^stage 'aggregate' failed: zero-norm mean of track 0$"):
        run_pipeline(quick_config(eval_level="track"),
                     FeatureSet(features, fs.frame_id, track_id, fs.label))


def test_track_points_never_hold_the_embeddings():
    n, hidden = 6000, 64
    model, fs = stream_setup(n=n, hidden=hidden)
    fs = FeatureSet(fs.features, track_id=np.arange(n) // 20)  # 300 tracks
    tracemalloc.start()
    try:
        level_points(fs, "track", StageTimer(), model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # under one N x H float32 array: per-track sums and one chunk's temporaries
    assert peak < 4 * n * hidden


def test_partition_stats_fields(small_dataset):
    report = run_pipeline(quick_config(), small_dataset)
    stats = report["partition_stats"]
    assert stats["selected_index"] == 2
    assert stats["largest_cluster"] >= stats["smallest_cluster"] >= 1
    assert stats["correct_samples"] + stats["incorrect_samples"] == small_dataset.num_samples
    assert 0.0 <= stats["purity"] <= 1.0


def test_track_level_evaluation(small_dataset):
    report = run_pipeline(quick_config(eval_level="track"), small_dataset)
    assert report["ccl"]["acc"] >= 0.0
    assert report["baseline"]["acc"] >= 0.0


def test_kmeans_backend(small_dataset):
    report = run_pipeline(quick_config(backend="kmeans"), small_dataset)
    stats = report["partition_stats"]
    assert stats["mining_num_clusters"] >= 2
    assert "ccl" in report


def test_partition_index_out_of_range(small_dataset):
    with pytest.raises(PipelineError, match="L="):
        run_pipeline(quick_config(partition_index=99), small_dataset)


@pytest.mark.parametrize("eval_level", ["frame", "track"])
def test_run_deterministic_with_same_seed(tmp_path, small_dataset, eval_level):
    outputs = []
    for run in ("a", "b"):
        cfg = quick_config(out_dir=str(tmp_path / run), seed=7, eval_level=eval_level)
        report = run_pipeline(cfg, small_dataset)
        labels = (tmp_path / run / "labels.csv").read_bytes()
        model = (tmp_path / run / "model.ccl").read_bytes()
        pairs = (tmp_path / run / "pairs_epoch0.csv").read_bytes()
        outputs.append((labels, model, pairs, report["ccl"], report["baseline"]))
    assert outputs[0] == outputs[1]


def test_different_seed_changes_pairs(tmp_path, small_dataset):
    pairs = []
    for seed in (0, 1):
        cfg = quick_config(out_dir=str(tmp_path / f"s{seed}"), seed=seed)
        run_pipeline(cfg, small_dataset)
        pairs.append((tmp_path / f"s{seed}" / "pairs_epoch0.csv").read_bytes())
    assert pairs[0] != pairs[1]


def test_ablation_structure(small_dataset):
    summary = run_ablation(quick_config(), small_dataset)
    names = [row["name"] for row in summary["rows"]]
    assert names == ["Base", "PosC", "NegC", "PosC+NVid", "PosC+NegC",
                     "NegC+NVid", "PosC+NegC+NVid"]
    for row in summary["rows"]:
        assert 0.0 <= row["acc"] <= 1.0


def test_ablation_runs_the_baseline_hac_once(tmp_path, small_dataset, monkeypatch):
    # the summary separate runs give, each with its own baseline HAC
    expected = {"rows": []}
    for name, (pos_c, neg_c, n_vid) in ABLATION_ROWS:
        cfg = quick_config(video_correction=n_vid, mining=MiningConfig(
            z_near=5, z_far=5, use_pos_cluster=pos_c, use_neg_cluster=neg_c,
            use_neg_video=n_vid))
        report = run_pipeline(cfg, small_dataset)
        if not expected["rows"]:
            expected["rows"].append({"name": "Base", "sources": {},
                                     "acc": report["baseline"]["acc"]})
        expected["rows"].append({"name": name,
                                 "sources": {"PosC": pos_c, "NegC": neg_c, "NVid": n_vid},
                                 "acc": report["ccl"]["acc"]})

    calls = []

    def counting_ward_hac(points, num_clusters):
        calls.append(points.shape[0])
        return ward_hac(points, num_clusters)

    monkeypatch.setattr(pipeline, "ward_hac", counting_ward_hac)
    run_ablation(quick_config(out_dir=str(tmp_path)), small_dataset)
    assert len(calls) == 1 + len(ABLATION_ROWS)
    assert (tmp_path / "ablation.json").read_text() == json.dumps(expected, indent=2) + "\n"


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "ccl.cfg"
    path.write_text(
        "# comment line\n"
        "pipeline.partition_index = 1\n"
        "pipeline.eval_level = frame\n"
        "pipeline.num_clusters = 4\n"
        "sources.neg_video = false\n"
        "mining.z_near = 7\n"
        "train.lr = 1e-3   # inline comment\n"
        "train.epochs = 3\n"
    )
    cfg = config_from_values(parse_config_file(path))
    assert cfg.partition_index == 1
    assert cfg.eval_level == "frame"
    assert cfg.num_clusters == 4
    assert cfg.mining.use_neg_video is False
    assert cfg.mining.z_near == 7
    assert cfg.training.lr == pytest.approx(1e-3)
    assert cfg.training.epochs == 3


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("pipeline.unknown = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(path)
    path.write_text("no equals sign here\n")
    with pytest.raises(ValueError, match="expected"):
        parse_config_file(path)


@pytest.mark.parametrize("line, message", [
    ("pipeline.partition_index = abc", "pipeline.partition_index must be int, got 'abc'"),
    ("pipeline.seed = 1.5", "pipeline.seed must be int"),
    ("train.epochs = 2.5", "train.epochs must be int"),
    ("mining.z_near = true", "mining.z_near must be int"),
    ("train.lr = false", "train.lr must be float"),
    ("sources.neg_video = 0", "sources.neg_video must be bool"),
    ("pipeline.backend = 3", "pipeline.backend must be str"),
    ("pipeline.features = x.cclf", "unknown config key 'pipeline.features'"),
    ("pipeline.out_dir = out", "unknown config key 'pipeline.out_dir'"),
    ("train.squared_hinge = true", "unknown config key 'train.squared_hinge'"),
    ("mining.near_positives_for_all = true", "unknown config key 'mining.near_positives_for_all'"),
])
def test_config_file_rejects_values_of_the_wrong_type(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"train.epochs = 2\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        parse_config_file(path)


@pytest.mark.parametrize("key", ["train.squared_hinge", "mining.near_positives_for_all"])
def test_values_naming_a_removed_training_variant_are_refused(key):
    with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
        config_from_values({key: True})


# the keys of the paper's fixed settings, which are now module constants
FIXED_SETTING_KEYS = ["mining.small_cluster_threshold", "mining.clusters_per_batch",
                      "mining.pos_per_cluster", "mining.neg_per_cluster", "train.lr_drop_epoch",
                      "train.lr_drop_factor", "train.beta1", "train.beta2", "train.adam_eps",
                      "train.margin"]


@pytest.mark.parametrize("key", FIXED_SETTING_KEYS)
def test_a_key_of_a_fixed_setting_is_refused_naming_file_and_line(tmp_path, key):
    path = tmp_path / "ccl.cfg"
    path.write_text(f"train.epochs = 2\n{key} = 1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: unknown config key '{key}'$"):
        parse_config_file(path)


def test_config_file_accepts_an_int_for_a_float(tmp_path):
    path = tmp_path / "ccl.cfg"
    path.write_text("train.lr = 1\n")
    cfg = config_from_values(parse_config_file(path))
    assert cfg.training.lr == 1


def test_config_validation():
    with pytest.raises(ValueError, match="partition_index"):
        quick_config(partition_index=0).validate()
    with pytest.raises(ValueError, match="eval_level"):
        quick_config(eval_level="scene").validate()
    with pytest.raises(ValueError, match="backend"):
        quick_config(backend="dbscan").validate()
    with pytest.raises(ValueError, match="source"):
        quick_config(mining=MiningConfig(use_pos_cluster=False, use_neg_cluster=False,
                                         use_neg_video=False)).validate()


def test_sources_are_mining_fields_set_by_config_keys(small_dataset):
    assert not [name for name in vars(PipelineConfig()) if name.startswith("use_")]
    cfg = config_from_values({"sources.pos_cluster": False, "sources.neg_cluster": False,
                              "mining.z_near": 3, "pipeline.seed": 4, "train.epochs": 1})
    assert (cfg.mining.use_pos_cluster, cfg.mining.use_neg_cluster,
            cfg.mining.use_neg_video) == (False, False, True)
    assert cfg.mining.z_near == 3 and cfg.seed == 4 and cfg.training.epochs == 1
    assert cfg.resolved_mining() == replace(cfg.mining, seed=4)
    with pytest.raises(ValueError, match="unknown config key 'sources.use_neg_video'"):
        config_from_values({"sources.use_neg_video": False})
    echo = run_pipeline(quick_config(), small_dataset)["config"]
    assert not [key for key in echo if key.startswith("use_")]
    assert echo["mining"]["use_neg_video"] is True


def test_nested_mining_config_switches_off_video_negatives(tmp_path, small_dataset):
    out = tmp_path / "run"
    cfg = quick_config(out_dir=str(out), mining=MiningConfig(z_near=5, z_far=5,
                                                             use_neg_video=False))
    run_pipeline(cfg, small_dataset)
    pairs = (out / "pairs_epoch0.csv").read_text()
    assert ",NegC\n" in pairs and ",NVid\n" not in pairs
    with_video = tmp_path / "video"
    run_pipeline(quick_config(out_dir=str(with_video)), small_dataset)
    assert ",NVid\n" in (with_video / "pairs_epoch0.csv").read_text()


def test_no_negative_source_warns_once_per_run(caplog, small_dataset):
    with caplog.at_level(logging.WARNING, logger="ccl"):
        run_pipeline(quick_config(), small_dataset)
        assert caplog.records == []
        run_pipeline(quick_config(mining=MiningConfig(z_near=5, z_far=5, use_neg_cluster=False,
                                                      use_neg_video=False)), small_dataset)
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("ccl.pipeline", "no negative pair source enabled; training may collapse embeddings")]


@pytest.mark.parametrize("nested", [{"mining": MiningConfig(seed=7)},
                                    {"training": TrainConfig(seed=7)}])
def test_nested_seed_must_agree_with_the_pipeline_seed(nested):
    name = next(iter(nested))
    with pytest.raises(ValueError, match=re.escape(
            f"{name}.seed 7 disagrees with pipeline.seed 3; pipeline.seed (--seed) sets the seed")):
        PipelineConfig(seed=3, **nested).validate()
    PipelineConfig(seed=7, **nested).validate()
    PipelineConfig(seed=3, **{name: replace(nested[name], seed=0)}).validate()


def test_config_echo_carries_resolved_seed():
    cfg = quick_config(seed=9)
    echoed = cfg.to_dict()
    assert echoed["mining"]["seed"] == 9
    assert echoed["training"]["seed"] == 9


def test_partition_csv_round_trip(tmp_path, small_dataset):
    from ccl.data import l2_normalize
    from ccl.finch import finch_hierarchy

    hierarchy = finch_hierarchy(l2_normalize(small_dataset))
    n = small_dataset.num_samples
    path = tmp_path / "partitions.csv"
    write_partition_csv(hierarchy, path)
    sidecar = json.loads((tmp_path / "partitions.csv.json").read_text())
    assert sidecar["cluster_counts"] == hierarchy.cluster_counts
    for level in range(1, hierarchy.num_partitions + 1):
        np.testing.assert_array_equal(read_partition_csv(path, level, n),
                                      hierarchy.partitions[level - 1])
    with pytest.raises(ValueError, match="L="):
        read_partition_csv(path, hierarchy.num_partitions + 1, n)


def test_partition_csv_must_match_the_feature_rows(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("sample_index,p1\n0,0\n1,1\n")
    with pytest.raises(ValueError, match=r"short\.csv: 2 partition rows, expected .* \(200\)"):
        read_partition_csv(path, 1, 200)
    path.write_text("sample_index,p1\n0,0\n1,5\n")
    with pytest.raises(ValueError, match=r"short\.csv line 3: cluster id 5 outside \[0, 2\)"):
        read_partition_csv(path, 1, 2)


def test_labels_csv_header_names_the_level(tmp_path):
    path = tmp_path / "labels.csv"
    for level, column in ID_COLUMNS.items():
        write_labels_csv([4, 7], [1, 0], path, column)
        read_level, ids, labels = read_labels_csv(path)
        assert read_level == level and ids.tolist() == [4, 7] and labels.tolist() == [1, 0]
    for header in ("track_id,label,extra", "label,track_id", ""):
        path.write_text(header + "\n0,1\n")
        with pytest.raises(ValueError, match=rf"labels\.csv: header '{header}' is not "
                                             r"'sample_index,label' or 'track_id,label'"):
            read_labels_csv(path)


def test_csv_readers_name_the_file_and_line_of_a_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_index,p1\n0,0\n1,x\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: expected an integer"):
        read_partition_csv(path, 1, 2)
    path.write_text("sample_index,label\n0,1\n1,1.5\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: expected an integer"):
        read_labels_csv(path)
    path.write_text("sample_index,label\n0,1\n1\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: expected an integer"):
        read_labels_csv(path)
    path.write_text("sample_index,p1\n0,0\n1,1180591620717411303424\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: expected an integer"):
        read_partition_csv(path, 1, 2)
    path.write_text("sample_index,label\n0,1\n1,-9223372036854775809\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: expected an integer"):
        read_labels_csv(path)


# one character over the csv module's default field limit
LONG_CELL = "1" * 131_073
# a valid file of each text kind, and its reader
TEXT_FILES = {
    "features": ("frame_id,track_id,label,f0,f1\n0,0,1,0.5,0.25\n0,1,0,1.0,-1.0\n"
                 "3,2,0,2.0,0.0\n", load_features_csv),
    "partition": ("sample_index,p1,p2\n0,0,0\n1,1,0\n2,1,0\n",
                  lambda path: read_partition_csv(path, 2, 3)),
    "cooccurrence": ("i,j\n0,1\n2,0\n", lambda path: read_cooc_csv(path, 3)),
    "labels": ("track_id,label\n0,1\n1,0\n2,1\n", read_labels_csv),
    "config": ("pipeline.num_clusters = 3\nmining.z_near = 4\ntrain.lr = 1e-3\n"
               "sources.neg_video = false\n",
               lambda path: config_from_values(parse_config_file(path)).validate()),
}


@pytest.mark.parametrize("kind", ["features", "partition", "cooccurrence", "labels"])
def test_csv_readers_refuse_a_cell_over_the_field_limit(tmp_path, kind):
    text, read = TEXT_FILES[kind]
    lines = text.split("\n")
    lines[2] = LONG_CELL + lines[2][lines[2].index(","):]  # line 3's first cell
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines))
    with pytest.raises(FeatureFileError if kind == "features" else ValueError,
                       match=f"^{re.escape(str(path))} line 3: field larger than field "
                             f"limit \\(131072\\)$"):
        read(path)


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("text")


@pytest.mark.parametrize("kind", list(TEXT_FILES))
@settings(max_examples=200, deadline=None)
@given(corruption=corruptions)
@example(corruption=("extend", f",{LONG_CELL}\n".encode()))
def test_corrupted_text_file_raises_only_domain_errors(text_dir, kind, corruption):
    text, read = TEXT_FILES[kind]
    path = text_dir / f"corrupt-{kind}.txt"
    path.write_bytes(corrupt(text.encode(), corruption))
    try:
        read(path)
    except (FeatureFileError, ValueError, PipelineError):
        pass


def test_ward_matrix_larger_than_physical_memory_fails_before_any_stage(
        tmp_path, small_dataset, monkeypatch):
    # track level: 36 tracks, so the frame-level hint of the CLI test is left out
    need = ward_matrix_bytes(36)
    monkeypatch.setattr(memory, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(pipeline, "prepare_mining", None)  # the first stage
    with pytest.raises(PipelineError) as error:
        run_pipeline(quick_config(eval_level="track", out_dir=str(tmp_path)), small_dataset)
    assert str(error.value) == (
        f"stage 'cluster' failed: Ward HAC over 36 track-level units needs a {need}-byte "
        f"distance matrix, more than the {need - 1} bytes of physical memory")
