"""Benchmark worker: runs trackfuse CLI calls in-process, one job per process.

Usage: python3 perfbench/worker.py JOB.json

The job lists CLI argument vectors; each runs through ``trackfuse.cli.main``
with its standard output discarded. The worker writes a result file with
each call's exit code and seconds, the seconds of ``calibrate`` before the
first call and after each call, the process's peak RSS after the last
pipeline stage, and, for a traced job, the per-layer summary of its spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibrate() -> float:
    """Seconds of a fixed numpy and pure-Python loop that uses no trackfuse code.

    Its mix (a dense vector-matrix product, a run-length expansion, sorting
    and dict building) resembles the pipeline's, so its duration tracks the
    speed the host gives this process at the moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    weights = rng.standard_normal((60, 4096))
    query = rng.standard_normal(60)
    runs = np.tile(np.array([30, 34]), 60)
    start = time.perf_counter()
    for i in range(400):
        np.count_nonzero(query @ weights > 0)
        np.repeat(np.arange(runs.size) % 2 == 1, runs).sum()
        sorted({j: (j * 7919 + i) % 1009 for j in range(300)}.values())
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(package_dir: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "trackfuse": os.path.relpath(package_dir),
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, "src")
    from trackfuse import cli

    recorder = None
    if job.get("trace"):
        import tracer

        recorder = tracer.Recorder(job["run_id"], job["label"])
        unwrapped = recorder.install()

    calls = []
    rss_mb = None
    calibration = [calibrate()]
    with open(os.devnull, "w") as devnull:
        for call in job["calls"]:
            error = None
            sid = recorder.open(f"cli.{call['stage']}") if recorder else None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    rc = cli.main(call["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc, error = None, traceback.format_exc(limit=4)
            seconds = time.perf_counter() - start
            if recorder:
                recorder.close(sid)
            calls.append({"stage": call["stage"], "rc": rc, "seconds": seconds, "error": error})
            if call["stage"] == "eval":
                rss_mb = peak_rss_mb()
            calibration.append(calibrate())

    result = {"calls": calls, "rss_mb": rss_mb if rss_mb is not None else peak_rss_mb(),
              "calibration_s": calibration}
    if job.get("env"):
        result["env"] = environment(os.path.dirname(cli.__file__))
    if recorder:
        result["layers"] = recorder.summary()
        result["unwrapped"] = unwrapped
        recorder.write_spans(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
