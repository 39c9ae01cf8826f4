#!/usr/bin/env python3
"""Pipeline benchmark: time the real `ccl run` path on seeded synthetic inputs.

    python3 pipebench/run.py --workload fine-frame --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each pipeline run is a fresh worker process running `ccl.cli.main(["run",
...])` on a generated `.cclf` file and config. Runs repeat, one at a time,
until the next one would overrun `--seconds`; every run's outputs are
checked. `--trace 0` reports the end-to-end metrics; `--trace 1` pairs each
untraced run with a traced one on the same input, checks that both write
byte-identical labels and checkpoint, and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Details of every run (environment, samples, spans) go to `.pipebench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import OutputError, check_run, check_same_outputs
from layers import layer_metrics
from workloads import WORKLOADS, generate, unit_truth, write_cclf, write_config

HERE = Path(__file__).resolve().parent

HARD_LIMIT_S = 170          # every run of this script ends well inside 180 s
SETUP_REPEATS = 9
IMPORT_PROBE = "import ccl.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"

END_TO_END_UNITS = {
    "pipeline_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
    "ccl_acc": "ratio", "ccl_bcubed_f": "ratio", "baseline_acc": "ratio",
}
PER_LAYER_UNITS = {
    "data.load_s": "s", "data.normalize_s": "s", "data.cooccurrence_s": "s",
    "data.cooc_pairs": "count", "data.aggregate_s": "s",
    "finch.hierarchy_s": "s", "finch.levels": "count", "finch.selected_clusters": "count",
    "finch.selected_purity": "ratio",
    "kmeans.fit_s": "s", "kmeans.k": "count", "kmeans.used_clusters": "count",
    "kmeans.useful_ratio": "ratio",
    "mining.video_correction_s": "s", "mining.evicted_rows": "count", "mining.rank_s": "s",
    "mining.epoch_s": "s", "mining.pairs": "count", "mining.unique_pair_ratio": "ratio",
    "mining.nvid_share": "ratio",
    "siamese.train_self_s": "s", "siamese.steps": "count", "siamese.pairs_per_s": "1/s",
    "siamese.gflop": "GFLOP", "siamese.gflop_per_s": "GFLOP/s", "siamese.embed_s": "s",
    "siamese.final_loss": "loss",
    "hac.ward_s": "s", "hac.baseline_ward_s": "s", "hac.points": "count",
    "hac.dist_matrix_mb": "MiB",
    "metrics.evaluate_s": "s",
    "pipeline.artifacts_s": "s", "pipeline.artifact_bytes": "bytes",
    "pipeline.untraced_gap_s": "s",
}


class WorkerError(RuntimeError):
    """A worker process failed or produced no result."""


class Bench:
    """One benchmark invocation: inputs, worker environment, scratch space."""

    def __init__(self, root: Path, work: Path, workload, seed: int, started: float):
        self.root = root
        self.work = work
        self.workload = workload
        self.started = started
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS=str(self.nproc), OMP_NUM_THREADS=str(self.nproc))
        work.mkdir(parents=True)
        inputs = generate(workload, seed)
        self.features = self.work / "input.cclf"
        self.config = self.work / "run.cfg"
        write_cclf(inputs, self.features)
        write_config(workload, seed, self.config)
        self.unit_ids, self.unit_gt = unit_truth(inputs, workload.level)
        self.attempted = 0      # worker runs started
        self.errors: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def setup_seconds(self) -> list[float]:
        """Fresh interpreter until `import ccl.cli` returns, after one warm-up."""
        samples = []
        for i in range(SETUP_REPEATS + 1):
            start = time.perf_counter()
            with subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], cwd=self.root,
                                  env=self.env, stdout=subprocess.PIPE) as proc:
                ready = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.communicate(timeout=30)
            if proc.returncode != 0 or ready != b"ready\n":
                raise WorkerError("`import ccl.cli` failed in a fresh interpreter")
            if i:
                samples.append(elapsed)
        return samples

    def worker(self, mode: str, out_dir: Path) -> dict:
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = out_dir.with_name(out_dir.name + ".json")
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), mode, str(self.features),
               str(self.config), str(out_dir), str(result_path)]
        self.attempted += 1
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=max(1.0, self.remaining()))
        if proc.returncode != 0 or not result_path.exists():
            raise WorkerError(f"{mode} worker exited with {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text())

    def checked(self, mode: str, out_dir: Path) -> tuple[dict, dict]:
        result = self.worker(mode, out_dir)
        report = check_run(out_dir, self.unit_ids, self.unit_gt,
                           self.workload.config["pipeline.num_clusters"],
                           self.workload.model_shape)
        return result, report


def _artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def run_rounds(bench: Bench, seconds: float, one_round) -> list:
    """Repeat one_round until the next would overrun `seconds` (at least once).

    A round that raises is a failed run: it is reported and adds no figures.
    """
    results = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        try:
            results.append(one_round())
        except Exception as exc:  # noqa: BLE001 - counted in error_rate, run goes on
            bench.errors.append("".join(traceback.format_exception_only(exc)).strip())
            traceback.print_exc(file=sys.stderr)
        last = time.perf_counter() - round_start
        elapsed = time.perf_counter() - start
        if elapsed + last > seconds or last > bench.remaining() - 5:
            return results


def end_to_end(bench: Bench, seconds: float) -> tuple[dict | None, dict]:
    out_dir = bench.work / "plain"

    def one_round():
        result, report = bench.checked("plain", out_dir)
        return {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"],
                "report": report}

    setup = bench.setup_seconds()
    runs = run_rounds(bench, seconds, one_round)
    walls = [r["wall_s"] for r in runs]
    detail = {"pipeline_s": walls, "setup_s": setup}
    if not runs:
        return None, detail
    pipeline_s = statistics.median(walls)
    report = runs[0]["report"]
    return {
        "pipeline_s": pipeline_s,
        "rows_per_s": bench.workload.rows / pipeline_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "ccl_acc": report["ccl"]["acc"],
        "ccl_bcubed_f": report["ccl"]["bcubed_f"],
        "baseline_acc": report["baseline"]["acc"],
    }, detail


def traced(bench: Bench, seconds: float) -> tuple[dict | None, dict]:
    plain_dir, traced_dir = bench.work / "plain", bench.work / "traced"
    traces = []

    def one_round():
        plain, report = bench.checked("plain", plain_dir)
        result, _ = bench.checked("traced", traced_dir)
        check_same_outputs(plain_dir, traced_dir)
        for key in ("ccl", "baseline", "train_epoch_losses"):
            if report[key] != result[key]:
                raise OutputError(f"traced run's {key} differs from the untraced report")
        traces.append(result["spans"])
        return layer_metrics(result["spans"], result["counters"], plain["wall_s"],
                             _artifact_bytes(plain_dir))

    runs = run_rounds(bench, seconds, one_round)
    if not runs:
        return None, {"spans": traces}
    return ({name: statistics.median(r[name] for r in runs) for name in PER_LAYER_UNITS},
            {"spans": traces})


def environment(nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": nproc, "nproc": nproc, "cpu": cpu,
            "load": "one worker process at a time"}


def _tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(samples)
    if n < 11:
        return f"n={n}; a tail percentile needs >= 11 samples"
    ordered = sorted(samples)
    return f"n={n}; p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.4f}"


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="ccl pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ccl" / "cli.py").is_file():
        print(f"pipebench: no program source at {root / 'src' / 'ccl'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload]
    work = root / ".pipebench" / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(root, work, workload, args.seed, started)
        measure = traced if args.trace else end_to_end
        metrics, detail = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(bench.nproc)
    attempted, failed, errors = bench.attempted, len(bench.errors), bench.errors
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    results_dir = root / ".pipebench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "errors": errors, "metrics": metrics, **detail}
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"pipebench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rows={workload.rows}")
    print("env " + json.dumps(env))
    if metrics is None:
        print(f"pipebench: all {attempted} runs failed: {errors[-1]}", file=sys.stderr)
        return 3
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'pipeline_s samples':<28} {_tail(detail['pipeline_s'])}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
