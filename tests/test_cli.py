import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from oracles import naive_cooccurrence

from ccl import cli, hac, memory, pipeline
from ccl.cli import main
from ccl.data import FeatureSet, load_features, write_features
from ccl.pipeline import load_any_features, read_labels_csv


@pytest.fixture(scope="module")
def feature_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.cclf"
    main(["synth", "--classes", "3", "--per-class", "50", "--dim", "12",
          "--noise", "0.15", "--frames-per-track", "5", "--cooc-rate", "0.3",
          "--seed", "1", "--out", str(path)])
    return path


def test_synth_writes_loadable_features(feature_file):
    fs = load_features(feature_file)
    assert fs.num_samples == 150 and fs.dim == 12
    assert fs.num_classes == 3


def test_finch_subcommand(feature_file, tmp_path):
    out = tmp_path / "partitions.csv"
    main(["finch", "--features", str(feature_file), "--out", str(out)])
    assert out.exists()
    sidecar = json.loads((tmp_path / "partitions.csv.json").read_text())
    assert sidecar["cluster_counts"][0] > sidecar["cluster_counts"][-1]


def test_kmeans_subcommand(feature_file, tmp_path):
    out = tmp_path / "kmeans.csv"
    main(["kmeans", "--features", str(feature_file), "--k", "3",
          "--seed", "0", "--out", str(out)])
    level, ids, labels = read_labels_csv(out)
    assert level == "frame" and ids.tolist() == list(range(150))
    assert labels.max() <= 2


def test_mine_subcommand(feature_file, tmp_path):
    out = tmp_path / "pairs.csv"
    main(["mine", "--features", str(feature_file), "--seed", "3", "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "a,b,y,source"
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[2] in ("0", "1") for r in rows)
    assert all(r[3] in ("PosC", "PosC-near", "NegC", "NVid") for r in rows)


def test_train_embed_cluster_evaluate_chain(feature_file, tmp_path):
    model = tmp_path / "model.ccl"
    config = tmp_path / "train.cfg"
    config.write_text("train.epochs = 2\ntrain.lr = 1e-3\ntrain.hidden_dim = 16\n"
                      "mining.z_near = 5\nmining.z_far = 5\n")
    main(["train", "--features", str(feature_file), "--config", str(config),
          "--seed", "0", "--out", str(model)])
    assert model.exists()

    embeddings = tmp_path / "embedded.cclf"
    main(["embed", "--model", str(model), "--features", str(feature_file),
          "--out", str(embeddings)])
    emb = load_features(embeddings)
    assert emb.dim == 16

    labels = tmp_path / "labels.csv"
    main(["cluster", "--embeddings", str(embeddings), "--num-clusters", "3",
          "--level", "frame", "--out", str(labels)])
    assert read_labels_csv(labels)[2].size == 150

    report_path = tmp_path / "report.json"
    main(["evaluate", "--pred", str(labels), "--gt", str(feature_file),
          "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["acc"] <= 1.0
    assert 0.0 <= report["bcubed_f"] <= 1.0


def test_cluster_track_level(feature_file, tmp_path):
    labels = tmp_path / "track_labels.csv"
    main(["cluster", "--features", str(feature_file), "--num-clusters", "3",
          "--level", "track", "--out", str(labels)])
    level, _, pred = read_labels_csv(labels)
    assert level == "track" and pred.size == 30  # 150 rows / 5 frames per track

    report_path = tmp_path / "track_report.json"
    main(["evaluate", "--pred", str(labels), "--gt", str(feature_file),
          "--out", str(report_path)])
    assert json.loads(report_path.read_text())["num_clusters"] == 3


@pytest.mark.parametrize("level", ["track", "frame"])
def test_cluster_runs_its_hac_without_the_loaded_features(feature_file, tmp_path,
                                                          monkeypatch, level):
    refs = []

    def load(path):
        fs = load_any_features(path)
        refs.append(weakref.ref(fs.features))
        return fs

    alive = []

    def ward(points, c):
        alive.append(refs[0]() is not None)
        return hac.ward_hac(points, c)

    monkeypatch.setattr(cli, "load_any_features", load)
    monkeypatch.setattr(cli, "ward_hac", ward)
    main(["cluster", "--features", str(feature_file), "--num-clusters", "3",
          "--level", level, "--out", str(tmp_path / "labels.csv")])
    assert alive == [False]


def test_run_subcommand(feature_file, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("train.epochs = 2\ntrain.lr = 1e-3\ntrain.hidden_dim = 16\n"
                      "mining.z_near = 5\nmining.z_far = 5\n")
    out_dir = tmp_path / "run_out"
    main(["run", "--features", str(feature_file), "--out-dir", str(out_dir),
          "--config", str(config), "--seed", "0", "--num-clusters", "3",
          "--level", "frame"])
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["seed"] == 0
    assert report["config"]["training"]["epochs"] == 2
    assert (out_dir / "labels.csv").exists()


def test_evaluate_rejects_mismatched_prediction(feature_file, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("sample_index,label\n0,0\n1,1\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--pred", str(bad), "--gt", str(feature_file)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ccl evaluate: error: {bad}: its 2 sample_index ids are not the 150 frame-level "
        f"units of {feature_file} in order; they first differ on line 4\n")


@pytest.mark.parametrize("level", ["frame", "track"])
def test_evaluate_prints_the_scores_run_reports(feature_file, tmp_path, capsys, level):
    config = tmp_path / "run.cfg"
    config.write_text("train.epochs = 1\ntrain.hidden_dim = 16\n"
                      "mining.z_near = 5\nmining.z_far = 5\n")
    out_dir = tmp_path / "run"
    main(["run", "--features", str(feature_file), "--out-dir", str(out_dir),
          "--config", str(config), "--level", level])
    capsys.readouterr()
    main(["evaluate", "--pred", str(out_dir / "labels.csv"), "--gt", str(feature_file)])
    report = json.loads((out_dir / "report.json").read_text())
    assert json.loads(capsys.readouterr().out) == report["ccl"]


def test_evaluate_pairs_track_labels_by_track_id(tmp_path, capsys):
    # one row per track, track ids not in row order: three well separated classes
    label = np.repeat(np.arange(3), 4)
    rng = np.random.default_rng(0)
    features = np.eye(3)[label] + 0.01 * rng.normal(size=(12, 3))
    track = rng.permutation(12)
    path = tmp_path / "tracks.cclf"
    write_features(FeatureSet(features.astype(np.float32), track_id=track, label=label), path)
    labels = tmp_path / "labels.csv"
    main(["cluster", "--features", str(path), "--num-clusters", "3", "--level", "track",
          "--out", str(labels)])
    capsys.readouterr()
    main(["evaluate", "--pred", str(labels), "--gt", str(path)])
    scores = json.loads(capsys.readouterr().out)
    assert scores["acc"] == 1.0 and scores["bcubed_f"] == 1.0


@pytest.mark.parametrize("label", [[0, 0, 1, 1], [0, 1, 1, 1]])
def test_evaluate_at_track_level_reads_no_track_means(tmp_path, capsys, label):
    # Track 0's rows cancel out, so its mean has no direction; scoring needs only its label.
    features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    path = tmp_path / "tracks.cclf"
    write_features(FeatureSet(features, track_id=np.array([0, 0, 1, 1]), label=np.array(label)),
                   path)
    labels = tmp_path / "labels.csv"
    labels.write_text("track_id,label\n0,0\n1,1\n")
    if label[1] != label[0]:
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--pred", str(labels), "--gt", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "ccl evaluate: error: track 0 has mixed labels [0, 1]\n"
        return
    main(["evaluate", "--pred", str(labels), "--gt", str(path)])
    scores = json.loads(capsys.readouterr().out)
    assert scores["acc"] == 1.0 and scores["bcubed_f"] == 1.0


@pytest.mark.parametrize("edit", ["swapped", "missing"])
def test_evaluate_refuses_labels_whose_ids_are_not_the_units_in_order(
        feature_file, tmp_path, capsys, edit):
    labels = tmp_path / "labels.csv"
    main(["cluster", "--features", str(feature_file), "--num-clusters", "3",
          "--out", str(labels)])
    lines = labels.read_text().splitlines()
    if edit == "swapped":
        lines[3], lines[4] = lines[4], lines[3]
    else:
        del lines[3]
    labels.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--pred", str(labels), "--gt", str(feature_file)])
    assert exit_info.value.code == 2
    rows = 150 if edit == "swapped" else 149
    assert capsys.readouterr().err == (
        f"ccl evaluate: error: {labels}: its {rows} sample_index ids are not the 150 "
        f"frame-level units of {feature_file} in order; they first differ on line 4\n")


@pytest.mark.parametrize("argv", [
    ["train", "--features", "{missing}", "--out", "{out}"],
    ["mine", "--features", "{missing}", "--out", "{out}"],
    ["finch", "--features", "{missing}", "--out", "{out}"],
    ["kmeans", "--features", "{missing}", "--k", "3", "--out", "{out}"],
    ["cluster", "--features", "{missing}", "--num-clusters", "3", "--out", "{out}"],
    ["embed", "--model", "{missing}", "--features", "{features}", "--out", "{out}"],
    ["run", "--features", "{features}", "--config", "{missing}", "--out-dir", "{out}"],
    ["train", "--features", "{features}", "--partition", "{missing}", "--out", "{out}"],
], ids=["train", "mine", "finch", "kmeans", "cluster", "embed-model", "run-config",
        "train-partition"])
def test_missing_input_file_is_one_line_error(feature_file, tmp_path, capsys, argv):
    missing = tmp_path / "missing.file"
    paths = {"missing": missing, "features": feature_file, "out": tmp_path / "out"}
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(**paths) for arg in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ccl {argv[0]}: error: ") and err.count("\n") == 1
    assert str(missing) in err


@pytest.mark.parametrize("flags, sources, correction", [
    ([], (True, True, True), True),
    (["--no-posc"], (False, True, True), True),
    (["--no-negc"], (True, False, True), True),
    (["--no-nvid"], (True, True, False), False),
])
def test_source_flags_set_the_sources_keys(feature_file, tmp_path, flags, sources, correction):
    args = cli.build_parser().parse_args(["run", "--features", str(feature_file), "--seed", "5",
                                          "--out-dir", str(tmp_path), *flags])
    cfg = cli._pipeline_config(args)
    assert (cfg.mining.use_pos_cluster, cfg.mining.use_neg_cluster,
            cfg.mining.use_neg_video) == sources
    assert cfg.video_correction is correction
    assert cfg.seed == 5 and cfg.out_dir == str(tmp_path)


def test_train_rejects_cooc_pair_outside_feature_rows(feature_file, tmp_path, capsys):
    cooc = tmp_path / "cooc.csv"
    cooc.write_text("i,j\n0,1\n0,999999\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--features", str(feature_file), "--cooc", str(cooc),
              "--seed", "0", "--out", str(tmp_path / "model.ccl")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert re.search(r"cooc\.csv line 3: pair \(0, 999999\)", err)


def test_train_rejects_cooc_self_pair(feature_file, tmp_path, capsys):
    cooc = tmp_path / "cooc.csv"
    cooc.write_text("i,j\n0,1\n3,3\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--features", str(feature_file), "--cooc", str(cooc),
              "--seed", "0", "--out", str(tmp_path / "model.ccl")])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (f"ccl train: error: {cooc} line 3: pair (3, 3) is not "
                                       "two distinct rows of the 150 feature rows\n")


def test_train_rejects_partition_cell_outside_int64(feature_file, tmp_path, capsys):
    partition = tmp_path / "partition.csv"
    partition.write_text("sample_index,p1,p2\n0,0,0\n1,0,1180591620717411303424\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--features", str(feature_file), "--partition", str(partition),
              "--seed", "0", "--out", str(tmp_path / "model.ccl")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ccl train: error: {partition} line 3: expected an integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize("line", ["pipeline.partition_index = abc", "train.epochs = 2.5",
                                  "pipeline.seed = 1.5", "mining.z_near = true"])
def test_run_rejects_config_value_of_the_wrong_type_before_any_stage(feature_file, tmp_path,
                                                                     capsys, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--features", str(feature_file), "--config", str(config),
              "--out-dir", str(out_dir)])
    assert exit_info.value.code == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err.startswith(f"ccl run: error: {config}:1: {key} must be ")
    assert not out_dir.exists()


def test_train_cooc_file_of_frame_pairs_matches_frame_ids(feature_file, tmp_path):
    pairs = sorted(naive_cooccurrence(load_features(feature_file)))
    assert len(pairs) > 10
    rng = np.random.default_rng(0)
    listed = [pairs[k] for k in rng.permutation(len(pairs))] + [pairs[0]]  # one duplicate
    lines = [f"{j},{i}" if k % 3 == 0 else f"{i},{j}" for k, (i, j) in enumerate(listed)]
    cooc = tmp_path / "cooc.csv"
    cooc.write_text("i,j\n" + "\n".join(lines) + "\n")
    config = tmp_path / "train.cfg"
    config.write_text("train.epochs = 2\ntrain.hidden_dim = 16\n"
                      "mining.z_near = 3\nmining.z_far = 3\n")
    common = ["train", "--features", str(feature_file), "--config", str(config), "--seed", "1"]
    main([*common, "--out", str(tmp_path / "frames.ccl")])
    main([*common, "--cooc", str(cooc), "--out", str(tmp_path / "file.ccl")])
    assert (tmp_path / "file.ccl").read_bytes() == (tmp_path / "frames.ccl").read_bytes()


@pytest.fixture(scope="module")
def noisy_file(tmp_path_factory):
    """Overlapping classes with dense co-occurrence: video correction evicts rows."""
    path = tmp_path_factory.mktemp("noisy") / "noisy.cclf"
    main(["synth", "--classes", "4", "--per-class", "50", "--noise", "0.6",
          "--cooc-rate", "0.5", "--seed", "0", "--out", str(path)])
    return path


@pytest.mark.parametrize("key, seed_flags, given_partition", [
    ("pipeline.backend = kmeans", ["--seed", "2"], False),
    ("pipeline.partition_index = 1", ["--seed", "2"], False),
    ("pipeline.video_correction = false", ["--seed", "2"], False),
    ("pipeline.seed = 2", [], False),
    # FINCH backend: run's partitions.csv is the FINCH hierarchy
    ("pipeline.partition_index = 1", ["--seed", "2"], True),
], ids=["kmeans", "partition-index-1", "no-video-correction", "config-seed", "given-partition"])
def test_train_writes_the_model_run_writes(noisy_file, tmp_path, key, seed_flags,
                                           given_partition):
    config = tmp_path / "run.cfg"
    config.write_text("train.epochs = 2\ntrain.hidden_dim = 16\n"
                      f"mining.z_near = 3\nmining.z_far = 3\n{key}\n")
    main(["run", "--features", str(noisy_file), "--config", str(config), *seed_flags,
          "--out-dir", str(tmp_path / "run")])
    partition = ["--partition", str(tmp_path / "run" / "partitions.csv")] if given_partition else []
    main(["train", "--features", str(noisy_file), "--config", str(config), *seed_flags,
          *partition, "--out", str(tmp_path / "model.ccl")])
    assert (tmp_path / "model.ccl").read_bytes() == (tmp_path / "run" / "model.ccl").read_bytes()
    assert json.loads((tmp_path / "run" / "report.json").read_text())["config"]["seed"] == 2


def test_mine_writes_the_pair_audit_run_writes(noisy_file, tmp_path):
    main(["mine", "--features", str(noisy_file), "--seed", "2", "--epoch", "0",
          "--out", str(tmp_path / "pairs.csv")])
    # written as training mines epoch 0, or at the end of a run that trains no epoch
    for epochs in (1, 20, 0):
        config = tmp_path / "run.cfg"
        config.write_text(f"train.epochs = {epochs}\ntrain.hidden_dim = 16\n")
        main(["run", "--features", str(noisy_file), "--config", str(config), "--seed", "2",
              "--out-dir", str(tmp_path / f"run{epochs}")])
        audit = (tmp_path / f"run{epochs}" / "pairs_epoch0.csv").read_bytes()
        assert (tmp_path / "pairs.csv").read_bytes() == audit, epochs
    stats = json.loads((tmp_path / "run1" / "report.json").read_text())["partition_stats"]
    assert stats["mining_num_clusters"] > stats["selected_num_clusters"]  # rows were evicted


def test_domain_errors_exit_2_with_one_line(feature_file, tmp_path, capsys):
    partition = tmp_path / "partition.csv"
    partition.write_text("sample_index,p1,p2\n0,0,0\n1,1,0\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--features", str(feature_file), "--partition", str(partition),
              "--seed", "0", "--out", str(tmp_path / "model.ccl")])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (f"ccl train: error: {partition}: 2 partition rows, "
                                       "expected one per feature row (150)\n")

    padded = tmp_path / "padded.cclf"
    padded.write_bytes(feature_file.read_bytes() + b"\x00" * 7)
    with pytest.raises(SystemExit) as exit_info:
        main(["cluster", "--features", str(padded), "--num-clusters", "3",
              "--out", str(tmp_path / "labels.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("ccl cluster: error: trailing bytes") and err.count("\n") == 1


@pytest.fixture
def loaded(monkeypatch):
    """Paths the CLI loads features from; every stage starts by loading them."""
    paths = []

    def recording_load(path):
        paths.append(path)
        return load_any_features(path)

    for module in (cli, pipeline):
        monkeypatch.setattr(module, "load_any_features", recording_load)
    return paths


@pytest.mark.parametrize("argv, message", [
    (["run", "--seed", "-3"], "pipeline.seed (--seed) must be >= 0, got -3"),
    (["run", "--seed", "-3", "--backend", "kmeans"], "pipeline.seed (--seed) must be >= 0, got -3"),
    (["train", "--seed", "-1"], "pipeline.seed (--seed) must be >= 0, got -1"),
    (["mine", "--seed", "-1"], "pipeline.seed (--seed) must be >= 0, got -1"),
    (["mine", "--epoch", "-1"], "epoch must be >= 0, got -1"),
    (["kmeans", "--k", "3", "--seed", "-1"], "k-means seed (--seed) must be >= 0, got -1"),
    (["kmeans", "--k", "0"], "k-means k (--k) must be >= 1, got 0"),
    (["run", "--num-clusters", "-2"], "pipeline.num_clusters (--num-clusters) must be >= 0, got -2"),
], ids=["run", "run-kmeans", "train", "mine-seed", "mine-epoch", "kmeans", "kmeans-k",
        "run-num-clusters"])
def test_negative_seed_epoch_or_count_is_named(feature_file, tmp_path, capsys, loaded,
                                               argv, message):
    out = tmp_path / "out"
    out_flag = "--out-dir" if argv[0] == "run" else "--out"
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--features", str(feature_file), out_flag, str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"ccl {argv[0]}: error: {message}\n"
    assert not out.exists()
    assert loaded == [], "a stage ran"


@pytest.mark.parametrize("command", ["run", "train", "mine"])
@pytest.mark.parametrize("line, message", [
    ("mining.z_near = 0", "mining.z_near must be >= 1, got 0"),
    ("mining.pos_per_cluster = 10", "pos_per_cluster and neg_per_cluster must match"),
    ("train.lr = -1", "train.lr must be positive, got -1"),
    ("train.epochs = -2", "train.epochs must be >= 0, got -2"),
    ("train.margin = 0", "train.margin must be positive, got 0"),
    ("train.hidden_dim = 0", "train.hidden_dim must be >= 1, got 0"),
    ("train.out_dim = 0", "train.out_dim must be >= 1, got 0"),
    ("train.beta1 = 1", "train.beta1 must lie in [0, 1), got 1"),
    ("train.beta2 = -0.5", "train.beta2 must lie in [0, 1), got -0.5"),
    ("train.adam_eps = inf", "train.adam_eps must be positive and finite, got inf"),
], ids=["z-near", "pos-per-cluster", "lr", "epochs", "margin", "hidden-dim", "out-dim",
        "beta1", "beta2", "adam-eps"])
def test_out_of_range_config_is_rejected_before_any_stage(feature_file, tmp_path, capsys,
                                                          monkeypatch, loaded, command,
                                                          line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [command, "--features", str(feature_file),
            "--out-dir" if command == "run" else "--out", str(out)]
    if command == "mine":  # mine takes no --config: the bad value becomes a default
        bad = pipeline.parse_config_file(config)
        monkeypatch.setattr(cli, "config_from_values",
                            lambda values: pipeline.config_from_values({**bad, **values}))
    else:
        argv += ["--config", str(config)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"ccl {command}: error: {message}\n"
    assert not out.exists()
    assert loaded == [], "a stage ran"


@pytest.mark.parametrize("flags, line, key", [
    (["--no-posc"], "", "sources.pos_cluster"),
    (["--no-negc"], "", "sources.neg_cluster"),
    (["--no-nvid"], "", "sources.neg_video"),
    ([], "sources.neg_cluster = true", "sources.neg_cluster"),
    ([], "pipeline.video_correction = false", "pipeline.video_correction"),
], ids=["no-posc", "no-negc", "no-nvid", "sources-key", "video-correction-key"])
def test_ablate_rejects_the_source_switches_its_rows_set(feature_file, tmp_path, capsys, loaded,
                                                         flags, line, key):
    config = tmp_path / "ablate.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "ablation"
    with pytest.raises(SystemExit) as exit_info:
        main(["ablate", "--features", str(feature_file), "--config", str(config),
              "--out-dir", str(out), *flags])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (f"ccl ablate: error: ablate sets {key} in each of its "
                                       "runs; remove the key or the flag that sets it\n")
    assert not out.exists()
    assert loaded == [], "a stage ran"


def test_synth_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "synth.cclf"
    with pytest.raises(SystemExit) as exit_info:
        main(["synth", "--classes", "2", "--per-class", "5", "--seed", "-1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "ccl synth: error: synth seed (--seed) must be >= 0, got -1\n"
    assert not out.exists()


def test_synth_of_an_unallocatable_size_is_a_one_line_error(tmp_path, capsys):
    # 2^55 rows: 256 PiB of int64, past any 64-bit Linux address space, and
    # below the size NumPy refuses with a ValueError.
    out = tmp_path / "huge.cclf"
    with pytest.raises(SystemExit) as exit_info:
        main(["synth", "--classes", "2", "--per-class", str(2**54), "--out", str(out)])
    assert exit_info.value.code == 2
    assert re.fullmatch(r"ccl synth: error: Unable to allocate .*\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("level, units", [("frame", 150), ("track", 30)])
def test_run_rejects_more_clusters_than_units_before_training(feature_file, tmp_path, capsys,
                                                              level, units):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--features", str(feature_file), "--out-dir", str(out),
              "--num-clusters", str(units + 1), "--level", level])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ccl run: error: stage 'cluster' failed: {units + 1} clusters requested, but there "
        f"are only {units} {level}-level units to cluster\n")
    assert not out.exists()


def test_track_level_run_rejects_untracked_rows_before_training(feature_file, tmp_path, capsys):
    fs = load_features(feature_file)
    track_id = fs.track_id.copy()
    track_id[7] = -1
    untracked = tmp_path / "untracked.cclf"
    write_features(FeatureSet(fs.features, fs.frame_id, track_id, fs.label), untracked)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--features", str(untracked), "--out-dir", str(out), "--level", "track"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == ("ccl run: error: stage 'aggregate' failed: row 7 has no "
                                       "track_id (-1)\n")
    assert not out.exists()


def test_frame_run_whose_ward_matrix_exceeds_memory_is_refused_before_training(
        feature_file, tmp_path, capsys, monkeypatch):
    need = hac.ward_matrix_bytes(150)
    monkeypatch.setattr(memory, "_physical_memory", lambda: need - 1)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--features", str(feature_file), "--out-dir", str(out), "--level", "frame"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ccl run: error: stage 'cluster' failed: Ward HAC over 150 frame-level units needs a "
        f"{need}-byte distance matrix, more than the {need - 1} bytes of physical memory; "
        "track-level evaluation (--level track) clusters one point per track\n")
    assert not out.exists()


def no_stage(fs):
    """Stands in for `l2_normalize`, the first stage of `run` and `cluster`."""
    raise AssertionError("a stage ran")


@pytest.mark.parametrize("count, physical, message", [
    ("3", lambda need: need - 1,
     "Ward HAC over 150 frame-level units needs a {need}-byte distance matrix, more than the "
     "{less} bytes of physical memory; track-level evaluation (--level track) clusters one "
     "point per track"),
    ("0", lambda need: need, "the cluster count must be >= 1, got 0"),
], ids=["memory", "zero-count"])
def test_frame_cluster_it_cannot_run_is_refused_before_any_stage(
        feature_file, tmp_path, capsys, monkeypatch, count, physical, message):
    need = hac.ward_matrix_bytes(150)
    monkeypatch.setattr(memory, "_physical_memory", lambda: physical(need))
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "l2_normalize", no_stage)
    out = tmp_path / "labels.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["cluster", "--features", str(feature_file), "--num-clusters", count,
              "--level", "frame", "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        "ccl cluster: error: stage 'cluster' failed: "
        + message.format(need=need, less=need - 1) + "\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, hidden, message", [
    (["run", "--out-dir"], 100000000, "training a 12 x 100000000 x 2 model "
                                      "(train.hidden_dim = 100000000, train.out_dim = 2)"),
    (["train", "--out"], 100000000, "training a 12 x 100000000 x 2 model "
                                    "(train.hidden_dim = 100000000, train.out_dim = 2)"),
    # a model that fits, but not its 150 x 1024 frame-level embeddings
    (["run", "--level", "frame", "--out-dir"], 1024,
     "the 150 x 1024 embeddings (train.hidden_dim = 1024)"),
], ids=["run", "train", "frame-embed"])
def test_a_model_larger_than_memory_is_refused_before_any_stage(
        feature_file, tmp_path, capsys, monkeypatch, argv, hidden, message):
    monkeypatch.setattr(memory, "_physical_memory", lambda: 4 * 2**20)
    monkeypatch.setattr(memory, "_cgroup_memory_limit", lambda: None)
    monkeypatch.setattr(pipeline, "l2_normalize", no_stage)
    config = tmp_path / "run.cfg"
    config.write_text(f"train.hidden_dim = {hidden}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], "--features", str(feature_file), "--config", str(config),
              *argv[1:], str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ccl {argv[0]}: error: {message} may need ") and err.count("\n") == 1
    assert not out.exists()


@pytest.fixture
def mixed_label_file(feature_file, tmp_path):
    """The feature file with row 0's label changed, so its track has two labels;
    returns the path and the error that names the track."""
    fs = load_features(feature_file)
    label = fs.label.copy()
    label[0] = (label[0] + 1) % fs.num_classes
    path = tmp_path / "mixed.cclf"
    write_features(FeatureSet(fs.features, fs.frame_id, fs.track_id, label), path)
    track = fs.track_id[0]
    assert np.sum(fs.track_id == track) > 1
    return path, (f"track {track} has mixed labels "
                  f"{sorted({int(fs.label[0]), int(label[0])})}")


def test_track_level_run_refuses_a_mixed_label_track_before_any_stage(
        mixed_label_file, tmp_path, capsys, monkeypatch):
    path, message = mixed_label_file
    monkeypatch.setattr(pipeline, "l2_normalize", no_stage)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--features", str(path), "--out-dir", str(out), "--level", "track"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"ccl run: error: stage 'aggregate' failed: {message}\n"
    assert not out.exists()


def test_track_cluster_refuses_a_mixed_label_track_before_any_stage(
        mixed_label_file, tmp_path, capsys, monkeypatch):
    path, message = mixed_label_file
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "l2_normalize", no_stage)
    out = tmp_path / "labels.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["cluster", "--features", str(path), "--num-clusters", "3", "--level", "track",
              "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"ccl cluster: error: stage 'aggregate' failed: {message}\n"
    assert not out.exists()


# -- every failure is one stderr line: `python -m ccl.cli` in a subprocess ----

SWEEP_KEYS = ["train.hidden_dim = 16", "train.epochs = 2"]


def ccl_subprocess(*argv, env=None) -> subprocess.CompletedProcess:
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **(env or {}))
    return subprocess.run([sys.executable, "-m", "ccl.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture(scope="module")
def sweep_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "synth.cclf"
    main(["synth", "--classes", "4", "--per-class", "50", "--seed", "0", "--out", str(path)])
    return path


def sweep_run(sweep_file, tmp_path, keys):
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(SWEEP_KEYS + keys) + "\n")
    return ccl_subprocess("run", "--features", sweep_file, "--config", config,
                          "--out-dir", tmp_path / "run")


@pytest.mark.parametrize("keys, named", [
    (["train.adam_eps = 1e300"], "train.adam_eps must be finite in float32"),
    (["train.margin = 1e20"], "train.margin must keep the squared hinge finite in float32"),
    (["train.lr = 1e10"], "stage 'train' failed: non-finite loss"),
    # one single-batch epoch: training ends with finite tensors too large to embed
    (["train.lr = 1e30", "train.epochs = 1", "mining.clusters_per_batch = 1000"],
     "stage 'train' failed: hidden unit"),
    (["mining.clusters_per_batch = 1000000000000000"], "mining.clusters_per_batch"),
    (["train.hidden_dim = 100000000"], "(train.hidden_dim = 100000000, train.out_dim = 2)"),
], ids=["adam_eps", "margin", "lr", "lr-one-step", "clusters_per_batch", "hidden_dim"])
def test_an_extreme_setting_ends_run_with_one_error_line(sweep_file, tmp_path, keys, named):
    result = sweep_run(sweep_file, tmp_path, keys)
    assert result.returncode == 2, result.stderr
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n"), result.stderr
    assert result.stderr.startswith("ccl run: error: ") and named in result.stderr


@pytest.mark.parametrize("keys", [["train.adam_eps = 1e-50"], ["train.lr = 1e-12"],
                                  ["mining.clusters_per_batch = 1000"]],
                         ids=["adam_eps", "lr", "clusters_per_batch"])
def test_a_benign_extreme_setting_runs_silently(sweep_file, tmp_path, keys):
    result = sweep_run(sweep_file, tmp_path, keys)
    assert (result.returncode, result.stderr) == (0, "")


def test_a_csv_cell_outside_float32_is_one_error_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("frame_id,track_id,label,f0,f1\n0,0,1,0.5,0.25\n1,1,0,1e39,1.0\n")
    result = ccl_subprocess("finch", "--features", path, "--out", tmp_path / "partitions.csv")
    assert result.returncode == 2
    assert result.stderr == (f"ccl finch: error: {path} line 3: value outside the float32 range "
                             f"[-3.4028235e+38, 3.4028235e+38] in feature row\n")


def test_a_csv_cell_over_the_field_limit_is_one_error_line(sweep_file, tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(f"track_id,label\n0,{'1' * 131073}\n")
    result = ccl_subprocess("evaluate", "--pred", path, "--gt", sweep_file)
    assert result.returncode == 2
    assert result.stderr == (f"ccl evaluate: error: {path} line 2: field larger than "
                             f"field limit (131072)\n")


def test_run_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """800 rows of dim 128, the benchmark's training keys, 2 epochs: model.ccl,
    labels.csv and pairs_epoch0.csv are byte-identical at 1 and at 2 BLAS threads."""
    features = tmp_path / "synth.cclf"
    main(["synth", "--classes", "8", "--per-class", "100", "--dim", "128", "--noise", "0.25",
          "--cooc-rate", "0.5", "--seed", "0", "--out", str(features)])
    config = tmp_path / "run.cfg"
    config.write_text("mining.z_near = 5\nmining.z_far = 5\ntrain.lr = 0.003\n"
                      "train.hidden_dim = 256\ntrain.out_dim = 16\ntrain.epochs = 2\n")
    for threads in ("1", "2"):
        env = {name: threads for name in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        result = ccl_subprocess("run", "--features", features, "--config", config,
                                "--out-dir", tmp_path / threads, env=env)
        assert result.returncode == 0, result.stderr
    for name in ("model.ccl", "labels.csv", "pairs_epoch0.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
