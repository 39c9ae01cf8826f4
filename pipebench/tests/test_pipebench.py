"""Tests of the pipeline benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
from checks import OutputError, check_run, check_same_outputs, scores  # noqa: E402
from layers import self_time  # noqa: E402
from tracing import Tracer, config_for, traced_run  # noqa: E402
from workloads import WORKLOADS, generate, unit_truth, write_cclf, write_config  # noqa: E402

from ccl.metrics import bcubed, wcp  # noqa: E402
from ccl.pipeline import run_pipeline  # noqa: E402

TINY = {name: replace(w, classes=4, per_class=30,
                      config={**w.config, "train.epochs": 2, "pipeline.num_clusters": 4})
        for name, w in WORKLOADS.items()}


def _inputs(tmp_path, workload, seed=0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    inputs = generate(workload, seed)
    write_cclf(inputs, tmp_path / "input.cclf")
    write_config(workload, seed, tmp_path / "run.cfg")
    return inputs


def test_generator_is_seeded_and_sound():
    w = TINY["fine-frame"]
    first, again, other = generate(w, 3), generate(w, 3), generate(w, 4)
    for name in ("features", "frame_id", "track_id", "label"):
        assert np.array_equal(getattr(first, name), getattr(again, name))
    assert not np.array_equal(first.features, other.features)
    # co-occurring rows never share a class; tracks never mix classes
    for frame in np.unique(first.frame_id):
        rows = np.flatnonzero(first.frame_id == frame)
        assert rows.size <= 2 and np.unique(first.label[rows]).size == rows.size
    for track in np.unique(first.track_id):
        assert np.unique(first.label[first.track_id == track]).size == 1
    assert np.allclose(np.linalg.norm(first.features, axis=1), 1.0, atol=1e-5)


def test_cclf_file_loads_in_the_program(tmp_path):
    from ccl.data import load_features

    inputs = _inputs(tmp_path, TINY["coarse-track-kmeans"])
    fs = load_features(tmp_path / "input.cclf")
    assert np.array_equal(fs.features, inputs.features)
    assert np.array_equal(fs.frame_id, inputs.frame_id)
    assert np.array_equal(fs.track_id, inputs.track_id)
    assert np.array_equal(fs.label, inputs.label)


def test_scores_match_program_metrics():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred, gt = rng.integers(0, 5, 60), rng.integers(0, 4, 60)
        ours = scores(pred, gt)
        assert ours["acc"] == pytest.approx(wcp(pred, gt)[0], abs=1e-12)
        assert ours["bcubed_f"] == pytest.approx(bcubed(pred, gt)[2], abs=1e-12)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "train", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
        {"id": 1, "name": "epoch", "parent": 0, "start": 1.0, "end": 3.0, "counts": {}},
        {"id": 2, "name": "epoch", "parent": 0, "start": 5.0, "end": 6.5, "counts": {}},
        {"id": 3, "name": "inner", "parent": 1, "start": 1.5, "end": 2.0, "counts": {}},
    ]
    assert self_time(spans[0], spans) == pytest.approx(6.5)
    assert self_time(spans[1], spans) == pytest.approx(1.5)


def test_tracer_records_nesting():
    tracer = Tracer()
    with tracer.span("outer") as counts:
        counts["n"] = 3
        tracer.call("inner", time.sleep, 0)
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert outer["counts"] == {"n": 3}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_composition_reproduces_run_pipeline(tmp_path, name):
    _inputs(tmp_path, TINY[name])
    report = run_pipeline(config_for(tmp_path / "run.cfg", tmp_path / "input.cclf",
                                     tmp_path / "plain"))
    summary = traced_run(config_for(tmp_path / "run.cfg", tmp_path / "input.cclf",
                                    tmp_path / "traced"), Tracer())
    for artifact in ("labels.csv", "model.ccl", "partitions.csv", "pairs_epoch0.csv"):
        assert ((tmp_path / "plain" / artifact).read_bytes()
                == (tmp_path / "traced" / artifact).read_bytes()), artifact
    for key in ("ccl", "baseline", "train_epoch_losses"):
        assert report[key] == summary[key]


def test_check_run_rejects_wrong_outputs(tmp_path):
    w = TINY["fine-frame"]
    inputs = _inputs(tmp_path, w)
    run_pipeline(config_for(tmp_path / "run.cfg", tmp_path / "input.cclf", tmp_path / "out"))
    ids, gt = unit_truth(inputs, w.level)
    num_clusters = w.config["pipeline.num_clusters"]
    check_run(tmp_path / "out", ids, gt, num_clusters, w.model_shape)

    with pytest.raises(OutputError, match="clusters"):
        check_run(tmp_path / "out", ids, gt, num_clusters + 1, w.model_shape)
    with pytest.raises(OutputError, match="shape"):
        check_run(tmp_path / "out", ids, gt, num_clusters, (w.dim, 8, 8))

    report_path = tmp_path / "out" / "report.json"
    report = json.loads(report_path.read_text())
    report["ccl"]["acc"] += 0.01
    report_path.write_text(json.dumps(report))
    with pytest.raises(OutputError, match="acc"):
        check_run(tmp_path / "out", ids, gt, num_clusters, w.model_shape)

    other = tmp_path / "other"
    other.mkdir()
    (other / "labels.csv").write_text("sample_index,label\n")
    (other / "model.ccl").write_bytes((tmp_path / "out" / "model.ccl").read_bytes())
    with pytest.raises(OutputError, match="labels.csv"):
        check_same_outputs(tmp_path / "out", other)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_end_to_end_and_traced(tmp_path, name):
    bench = bench_run.Bench(ROOT, tmp_path / "work", TINY[name], seed=1,
                            started=time.perf_counter())
    metrics, detail = bench_run.end_to_end(bench, seconds=0)
    assert set(metrics) == set(bench_run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    assert len(detail["pipeline_s"]) == 1 and len(detail["setup_s"]) == bench_run.SETUP_REPEATS

    layers, detail = bench_run.traced(bench, seconds=0)
    assert set(layers) == set(bench_run.PER_LAYER_UNITS)
    assert layers["siamese.steps"] > 0 and layers["mining.pairs"] > 0
    assert (layers["kmeans.k"] > 0) == (TINY[name].config["pipeline.backend"] == "kmeans")
    timed = [n for n, unit in bench_run.PER_LAYER_UNITS.items() if unit == "s"]
    assert all(layers[n] > 0 for n in timed if n != "pipeline.untraced_gap_s")
    assert bench.errors == [] and bench.attempted == 3


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "fine-frame",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
