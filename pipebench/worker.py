"""One pipeline run in a fresh interpreter; writes its measurements as JSON.

    python3 pipebench/worker.py plain  FEATURES CONFIG OUT_DIR RESULT_JSON
    python3 pipebench/worker.py traced FEATURES CONFIG OUT_DIR RESULT_JSON

`plain` runs `ccl.cli.main(["run", ...])` and times the call; `traced` runs
the span-wrapped composition from tracing.py on the same inputs. Both record
the process's peak resident memory. `ccl` must be importable (run.py puts the
checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_plain(features, config, out_dir) -> dict:
    import ccl.cli

    argv = ["run", "--features", features, "--out-dir", out_dir, "--config", config]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = ccl.cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"ccl run exited with {code}")
    return {"wall_s": wall, "peak_rss_mb": _peak_rss_mb()}


def run_traced(features, config, out_dir) -> dict:
    from tracing import Tracer, config_for, run_counters, traced_run

    cfg = config_for(config, features, out_dir)
    tracer = Tracer()
    start = time.perf_counter()
    summary = traced_run(cfg, tracer)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "spans": tracer.spans,
            "counters": run_counters(summary),
            "ccl": summary["ccl"], "baseline": summary["baseline"],
            "train_epoch_losses": summary["train_epoch_losses"]}


def main(argv) -> int:
    mode, features, config, out_dir, result_path = argv
    runner = {"plain": run_plain, "traced": run_traced}[mode]
    result = runner(features, config, out_dir)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
