#!/usr/bin/env python3
"""trackfuse benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark generates the workload's scenes
from the seed with ``trackfuse synth`` and drives the pipeline only through
the CLI, each stage one ``trackfuse.cli.main`` call, in worker processes
with BLAS/OpenMP pinned to one thread.

``--trace 0`` measures the end-to-end metrics (see BENCHMARK.json):

- ``setup_s``: one ``trackfuse synth`` process from start to exit
  (interpreter and numpy start-up included); every scene is set up once and
  the first twice;
- ``pipeline_s``: associate, consensus, keyframe, train and eval, run back
  to back in one fresh process per pipeline run;
- ``sweep_s``: ``trackfuse sweep --param tau_sem`` over five values on the
  pipeline's tracks, in the same process after eval;
- ``peak_rss_mb``: peak RSS of that process, read right after eval;
- ``miou_short``, ``miou_long``, ``tscm_acc``: read from report.json.

Pipeline runs cycle over the scenes until ``--seconds`` seconds have
passed and every scene has run at least twice. A timing is reported as the mean over scenes of each scene's
median; quality metrics are the mean over scenes.

Timings are reported in reference seconds. The speed a shared host gives
one process drifts by up to 1.5x over tens of seconds, which no run length
this benchmark can afford averages out. Each worker therefore times a fixed
calibration loop that uses no trackfuse code (``worker.calibrate``) before
its first call and after each call, and each call's seconds are scaled by
CALIBRATION_REF_S over the mean of the two runs around it. A program change
cannot move the calibration, so its effect passes through whole. Raw
wall-clock medians are printed alongside.

``--trace 1`` runs every scene once untraced and once traced (one pass,
whatever ``--seconds`` says), the traced run with each stage in its own
process (which gives per-stage peak RSS), and reports the per-layer metrics
of perfbench/tracer.py in raw seconds, except ``cli.tracing_overhead_s``:
traced minus untraced ``pipeline_s``, both in reference seconds.

Every run checks its outputs: each CLI call exits 0 and writes its
artifact; the tracks partition the detections; report metrics are finite
and in [0, 1]; and every artifact's sha256 is identical across the repeats
of a scene and between the untraced and the traced run. Each CLI call is
one attempted operation, and each failed call or check counts as failed.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from worker import THREAD_VARS  # noqa: E402
from workloads import STAGES, SWEEP_VALUES, WORKLOADS  # noqa: E402

DEADLINE_S = 165.0  # the run must end within 180 s
CALIBRATION_REF_S = 0.06  # worker.calibrate() seconds at the reference speed
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
    ("miou_short", "fraction"),
    ("miou_long", "fraction"),
    ("tscm_acc", "fraction"),
)
QUALITY = ("miou_short", "miou_long", "tscm_acc")
REPORT_KEYS = QUALITY + ("per_view_acc",)
CHILD_ENV = {var: "1" for var in THREAD_VARS}


def sha256_tree(path: Path) -> dict[str, str]:
    files = sorted(p for p in path.rglob("*") if p.is_file())
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def speed_factor(result: dict, call: int) -> float:
    """Reference speed over the speed measured by the calibration runs around a call."""
    before, after = result["calibration_s"][call : call + 2]
    return 2 * CALIBRATION_REF_S / (before + after)


def mean_of_medians(per_scene: dict[int, list[float]]) -> float:
    return statistics.fmean(statistics.median(v) for v in per_scene.values() if v)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.run_id = f"{workload}-s{seed}-t{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        self.out = Path("perfbench") / "out" / self.run_id
        self.work = self.out / "work"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failures: list[str] = []
        self.jobs = 0
        self.scene_digests: dict[int, dict[str, str]] = {}
        self.rep_digests: dict[int, dict[str, str]] = {}
        self.samples: dict[str, dict[int, list[float]]] = {}
        self.quality: dict[int, dict[str, float]] = {}
        self.layers: dict[int, list[dict[str, float]]] = {}
        self.machine: dict = {}
        self.unwrapped: set[str] = set()

    # -- process plumbing ----------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, label: str, calls: list[tuple[str, list[str], Path]],
              trace: bool = False, env: bool = False) -> tuple[dict | None, float]:
        """Run one worker job; count its calls and check their exit codes and artifacts.

        Returns the worker's result, or None if any call failed.
        """
        self.jobs += 1
        stem = self.work / f"job{self.jobs:03d}-{label}"
        job = {
            "calls": [{"stage": stage, "argv": argv} for stage, argv, _ in calls],
            "trace": trace,
            "env": env,
            "run_id": self.run_id,
            "label": label,
            "result": f"{stem}.result.json",
            "spans": str(self.out / f"spans-{label}.jsonl.gz"),
        }
        Path(f"{stem}.job.json").write_text(json.dumps(job))
        self.attempted += len(calls)
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        start = time.perf_counter()
        try:
            with open(f"{stem}.stderr", "w") as err:
                proc = subprocess.run(
                    [sys.executable, "perfbench/worker.py", f"{stem}.job.json"],
                    env=self.env, stdout=subprocess.DEVNULL, stderr=err, timeout=timeout,
                )
            wall = time.perf_counter() - start
            result = json.loads(Path(job["result"]).read_text()) if proc.returncode == 0 else None
        except subprocess.TimeoutExpired:
            wall, result = time.perf_counter() - start, None
        if result is None:
            stderr = Path(f"{stem}.stderr").read_text().strip().splitlines()[-3:]
            self.failures.append(f"{label}: worker failed: {' | '.join(stderr) or 'timeout'}")
            return None, wall
        ok = True
        for (stage, _, artifact), call in zip(calls, result["calls"]):
            if call["rc"] != 0:
                self.failures.append(f"{label}: {stage} exited {call['rc']}: {call['error'] or ''}".strip())
                ok = False
            elif not (artifact.is_file() and artifact.stat().st_size > 0):
                self.failures.append(f"{label}: {stage} wrote no {artifact.name}")
                ok = False
        return (result if ok else None), wall

    def sample(self, metric: str, scene: int, value: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(scene, []).append(value)

    def sample_time(self, metric: str, scene: int, result: dict, calls: range, extra_s: float = 0.0) -> None:
        """Record the summed seconds of some calls, raw and scaled to the reference speed."""
        raw = sum(result["calls"][i]["seconds"] for i in calls)
        scaled = sum(result["calls"][i]["seconds"] * speed_factor(result, i) for i in calls)
        self.sample(f"{metric}.raw", scene, raw + extra_s)
        self.sample(metric, scene, (raw + extra_s) * scaled / raw)

    # -- stages ----------------------------------------------------------------

    def scene_dir(self, scene: int) -> Path:
        return self.work / f"scene{scene}"

    def config_path(self, scene: int) -> Path:
        return self.work / f"config{scene}.json"

    def synth_call(self, scene: int, out: Path):
        argv = ["synth", "--config", str(self.config_path(scene)), "--out", str(out)]
        return ("synth", argv, out / "dataset" / "manifest.json")

    def pipeline_calls(self, scene: int, scene_dir: Path, rep: Path):
        cfg = ["--config", str(self.config_path(scene))]
        manifest = ["--manifest", str(scene_dir / "dataset" / "manifest.json")]
        gt = ["--ground-truth", str(scene_dir / "ground_truth.json")]
        a = {name: rep / name for name in ("tracks.jsonl", "consensus.jsonl", "descriptions.jsonl",
                                            "model.json", "loss_curve.csv", "report.json", "sweep.csv")}
        return [
            ("associate", ["associate", *cfg, *manifest, "--out", str(a["tracks.jsonl"])],
             a["tracks.jsonl"]),
            ("consensus", ["consensus", *cfg, *manifest, "--tracks", str(a["tracks.jsonl"]),
                           "--out", str(a["consensus.jsonl"])], a["consensus.jsonl"]),
            ("keyframe", ["keyframe", *cfg, *manifest, "--consensus", str(a["consensus.jsonl"]),
                          "--out", str(a["descriptions.jsonl"])], a["descriptions.jsonl"]),
            ("train", ["train", *cfg, *manifest, "--consensus", str(a["consensus.jsonl"]),
                       "--descriptions", str(a["descriptions.jsonl"]),
                       "--geometry", str(scene_dir / "field_geometry.json"),
                       "--loss-curve", str(a["loss_curve.csv"]), "--out", str(a["model.json"])],
             a["model.json"]),
            ("eval", ["eval", *cfg, *manifest, "--consensus", str(a["consensus.jsonl"]),
                      "--model", str(a["model.json"]), "--descriptions", str(a["descriptions.jsonl"]),
                      *gt, "--out", str(a["report.json"])], a["report.json"]),
            ("sweep", ["sweep", *cfg, *manifest, "--tracks", str(a["tracks.jsonl"]),
                       "--param", "tau_sem", "--values", SWEEP_VALUES, *gt,
                       "--out", str(a["sweep.csv"])], a["sweep.csv"]),
        ]

    def setup(self) -> None:
        """Write each scene's config and generate it; repeat the first to check determinism."""
        result, _ = self.spawn("warmup", [], env=True)
        self.machine = (result or {}).get("env", {})
        for scene in range(self.workload.scenes):
            cfg = self.workload.scene_config(self.seed, scene)
            self.config_path(scene).write_text(json.dumps(cfg, sort_keys=True))
        for scene in list(range(self.workload.scenes)) + [0]:
            repeat = scene in self.scene_digests
            out = self.work / "scene-repeat" if repeat else self.scene_dir(scene)
            result, wall = self.spawn(f"synth{scene}", [self.synth_call(scene, out)])
            if result is None:
                continue
            # setup_s is the whole process: start-up, imports and synth, without calibration
            startup = wall - sum(result["calibration_s"]) - result["calls"][0]["seconds"]
            self.sample_time("setup_s", scene, result, range(1), extra_s=startup)
            self.check_digests(f"scene {scene}", self.scene_digests, scene, sha256_tree(out))
            if repeat:
                shutil.rmtree(out)

    def check_digests(self, what: str, refs: dict, scene: int, digests: dict[str, str]) -> None:
        if scene not in refs:
            refs[scene] = digests
        elif refs[scene] != digests:
            changed = sorted(k for k in set(refs[scene]) | set(digests) if refs[scene].get(k) != digests.get(k))
            self.failures.append(f"{what}: artifacts differ between repeats: {changed}")

    def check_outputs(self, scene: int, rep: Path) -> None:
        """Tracks partition the detections; report metrics are finite and in [0, 1]."""
        try:
            self._check_outputs(scene, rep)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"scene {scene}: unreadable artifact: {exc!r}")

    def _check_outputs(self, scene: int, rep: Path) -> None:
        detections = (self.scene_dir(scene) / "dataset" / "detections.jsonl").read_text().splitlines()
        per_view = Counter(json.loads(line)["view"] for line in detections if line.strip())
        expected = {(v, i) for v, n in per_view.items() for i in range(n)}
        members = [tuple(m) for line in (rep / "tracks.jsonl").read_text().splitlines() if line.strip()
                   for m in json.loads(line)["members"]]
        if len(members) != len(set(members)) or set(members) != expected:
            self.failures.append(f"scene {scene}: tracks do not partition the detections")
        metrics = json.loads((rep / "report.json").read_text())["metrics"]
        for key in REPORT_KEYS:
            value = metrics.get(key)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0):
                self.failures.append(f"scene {scene}: report {key} = {value!r} is not a finite value in [0, 1]")
        rows = (rep / "sweep.csv").read_text().splitlines()
        if len(rows) != 1 + len(SWEEP_VALUES.split(",")):
            self.failures.append(f"scene {scene}: sweep.csv has {len(rows) - 1} rows")
        n_objects = len(json.loads((self.scene_dir(scene) / "ground_truth.json").read_text())["objects"])
        self.quality.setdefault(scene, {k: metrics.get(k, float("nan")) for k in QUALITY})
        self.quality[scene]["tracks_per_object"] = len(set(
            json.loads(line)["track"] for line in (rep / "tracks.jsonl").read_text().splitlines()
            if line.strip())) / n_objects

    def pipeline(self, scene: int, label: str) -> bool:
        """One untraced pipeline plus sweep in one process; returns whether it succeeded."""
        rep = self.work / label
        rep.mkdir()
        calls = self.pipeline_calls(scene, self.scene_dir(scene), rep)
        result, _ = self.spawn(label, calls)
        if result is None:
            return False
        self.sample_time("pipeline_s", scene, result, range(len(STAGES)))
        self.sample_time("sweep_s", scene, result, range(len(STAGES), len(calls)))
        self.sample("peak_rss_mb", scene, result["rss_mb"])
        self.check_outputs(scene, rep)
        self.check_digests(f"scene {scene} pipeline", self.rep_digests, scene, sha256_tree(rep))
        shutil.rmtree(rep)
        return True

    def traced_pipeline(self, scene: int, label: str) -> None:
        """Synth and every stage in its own traced process; digests must match untraced."""
        scene_dir = self.work / f"{label}-scene"
        rep = self.work / label
        rep.mkdir()
        raw: Counter = Counter()
        traced_pipeline_s = 0.0
        calls = [self.synth_call(scene, scene_dir)] + self.pipeline_calls(scene, scene_dir, rep)
        for stage, argv, artifact in calls:
            result, _ = self.spawn(f"{label}-{stage}", [(stage, argv, artifact)], trace=True)
            if result is None:
                return
            self.unwrapped.update(result["unwrapped"])
            summary = Counter(result["layers"])
            if stage == "eval":
                summary["eval_render_mask_bytes"] = summary.get("render_mask_bytes", 0)
            raw.update(summary)
            raw[f"cli.{stage}.rss_mb"] = result["rss_mb"]
            if stage in STAGES:
                traced_pipeline_s += result["calls"][0]["seconds"] * speed_factor(result, 0)
        self.check_digests(f"scene {scene} traced synth", self.scene_digests, scene, sha256_tree(scene_dir))
        self.check_digests(f"scene {scene} traced pipeline", self.rep_digests, scene, sha256_tree(rep))
        shutil.rmtree(rep)
        shutil.rmtree(scene_dir)
        values = tracer.layer_metrics(raw, self.quality[scene]["tracks_per_object"])
        self.layers.setdefault(scene, []).append(values)
        self.sample("traced_pipeline_s", scene, traced_pipeline_s)

    # -- run -------------------------------------------------------------------

    def run(self) -> dict:
        self.setup()
        if self.failures:
            return self.result({})
        scenes = self.workload.scenes
        minimum = scenes if self.trace else 2 * scenes
        window = time.perf_counter()
        for rep in itertools.count():
            if rep >= minimum and (self.trace or time.perf_counter() - window >= self.seconds
                                   or self.elapsed() > DEADLINE_S * 0.6):
                break
            scene = rep % scenes
            if self.pipeline(scene, f"r{rep}s{scene}") and self.trace:
                self.traced_pipeline(scene, f"r{rep}s{scene}t")
            if self.failures:
                return self.result({})
        return self.result(self.trace_metrics() if self.trace else self.end_to_end_metrics())

    def end_to_end_metrics(self) -> dict[str, float]:
        values = {m: mean_of_medians(self.samples[m]) for m, _ in END_TO_END if m in self.samples}
        for key in QUALITY:
            values[key] = statistics.fmean(q[key] for q in self.quality.values())
        return values

    def trace_metrics(self) -> dict[str, float]:
        values = {m.name: statistics.fmean(statistics.median(rep[m.name] for rep in reps)
                                           for reps in self.layers.values())
                  for m in tracer.METRICS if m.name != "cli.tracing_overhead_s"}
        values["cli.tracing_overhead_s"] = (
            mean_of_medians(self.samples["traced_pipeline_s"]) - mean_of_medians(self.samples["pipeline_s"])
        )
        return values

    def result(self, values: dict[str, float]) -> dict:
        declared = [(m.name, m.unit) for m in tracer.METRICS] if self.trace else END_TO_END
        missing = [name for name, _ in declared if name not in values]
        if missing and not self.failures:
            self.failures.append(f"metrics not measured: {missing}")
        return {
            "correct": not self.failures,
            "attempted": max(self.attempted, 1),
            "failed": len(self.failures),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared
                        if name in values},
        }

    def report(self, result: dict) -> None:
        """Human-readable lines, and the full record in perfbench/out/<run>/result.json."""
        m = self.machine
        print(f"run {self.run_id}: workload {self.workload.name} ({self.workload.input_size}), "
              f"seed {self.seed}, {self.workload.scenes} scenes, closed loop, 1 client")
        print(f"env: {' '.join(f'{k}={v}' for k, v in (m.get('threads') or {}).items())} "
              f"nproc={m.get('nproc')} cpu={m.get('cpu')!r} python={m.get('python')} "
              f"numpy={m.get('numpy')} blas={m.get('blas')!r} trackfuse={m.get('trackfuse')}")
        for name, metric in result["metrics"].items():
            line = f"{name:34s} {metric['value']:>14.6g} {metric['unit']}"
            pooled = [x for v in self.samples.get(name, {}).values() for x in v]
            if pooled:
                tail = tail_percentile(pooled)
                tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no tail percentile (n < 20)"
                line += f"  median {statistics.median(pooled):.6g}, {tail_text}, n={len(pooled)}"
                if f"{name}.raw" in self.samples and not self.trace:
                    raw = [x for v in self.samples[f"{name}.raw"].values() for x in v]
                    line += f"; raw wall median {statistics.median(raw):.6g} s"
            elif any(x.name == name and x.computed for x in tracer.METRICS):
                line += "  (computed from shapes, not measured)"
            print(line)
        if self.trace and self.layers:
            stage_s = {s: result["metrics"][f"cli.{s}.s"]["value"] for s in STAGES}
            total = sum(stage_s.values())
            print("traced share of pipeline_s: "
                  + ", ".join(f"{s} {100 * v / total:.1f}%" for s, v in stage_s.items()))
        if self.unwrapped:
            print(f"not traced (no longer in trackfuse; their metrics read 0): {sorted(self.unwrapped)}")
        for failure in self.failures:
            print(f"FAILED: {failure}")
        (self.out / "result.json").write_text(json.dumps(
            {"result": result, "env": m, "samples": self.samples, "quality": self.quality,
             "layers": self.layers, "failures": self.failures}, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/trackfuse/cli.py").is_file():
        print("error: run from the repository root; src/trackfuse/cli.py not found", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    bench.report(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
