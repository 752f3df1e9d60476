"""Span recorder for the traced benchmark run, and the per-layer metric table.

The recorder wraps public functions of the ``trackfuse`` modules from
outside: each wrapped function is replaced on every ``trackfuse.*`` module
attribute that holds the same function object (so names bound by
``from .rle import rle_decode`` are caught too, because the program looks
up globals at call time), and methods are replaced on their class. Each
call records a span (name, parent span, start, end); spans stay in memory
and are written when the traced process ends. Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.

Counters marked ``computed`` below are derived from argument shapes and
return values, not measured.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

MB = 1 << 20

# (module under trackfuse, attribute); span name is "<module>.<function>".
WRAPPED = (
    ("records", "load_dataset"),
    ("rle", "rle_decode"),
    ("rle", "mask_iou"),
    ("rle", "rle_encode"),
    ("tracking", "associate_greedy"),
    ("tracking", "import_tracks"),
    ("consensus", "cluster_synonyms"),
    ("keyframes", "run_keyframes"),
    ("field", "train"),
    ("field", "render_mask"),
    ("field", "render_logits"),
    ("field", "ToyReferringField.weights"),
    ("field", "ToyReferringField.features"),
    ("field", "seg_loss"),
    ("field", "contrastive_loss"),
    ("field", "select_gaussians"),
    ("metrics", "miou"),
    ("metrics", "match_tracks_to_objects"),
    ("metrics", "consensus_accuracy"),
    ("synth", "generate_scene"),
    ("synth", "corrupt"),
)


@dataclass(frozen=True)
class Metric:
    """A per-layer metric; every one is better when lower."""

    name: str
    unit: str
    computed: bool = False


@dataclass(frozen=True)
class Layer:
    name: str
    metrics: tuple[Metric, ...]
    moves: str
    workloads: str


def _fn(name: str, calls: bool = True) -> tuple[Metric, ...]:
    timed = (Metric(f"{name}.s", "s"),)
    return ((Metric(f"{name}.calls", "count"),) if calls else ()) + timed


# Which end-to-end metric each layer's metrics should move, on which workload.
LAYERS = (
    Layer(
        "cli",
        tuple(Metric(f"cli.{s}.s", "s") for s in ("associate", "consensus", "keyframe", "train", "eval", "sweep"))
        + (Metric("cli.train.rss_mb", "MB"), Metric("cli.eval.rss_mb", "MB"),
           Metric("cli.tracing_overhead_s", "s")),
        "pipeline_s, sweep_s, peak_rss_mb",
        "all",
    ),
    Layer("records", _fn("records.load_dataset"), "pipeline_s", "eval_fragmented"),
    Layer(
        "rle",
        _fn("rle.rle_decode") + _fn("rle.mask_iou") + _fn("rle.rle_encode"),
        "pipeline_s (decode, IoU); setup_s (encode)",
        "eval_fragmented; field_train for setup_s",
    ),
    Layer(
        "tracking",
        (Metric("tracking.associate.s", "s"), Metric("tracking.pairs_scored", "count"),
         Metric("tracking.tracks_per_object", "tracks/object", computed=True)),
        "pipeline_s; miou_long through fragmentation",
        "eval_fragmented, field_train",
    ),
    Layer(
        "consensus",
        _fn("consensus.cluster_synonyms")
        + (Metric("consensus.labels", "labels/call", computed=True),
           Metric("consensus.merges", "merges/call", computed=True)),
        "pipeline_s, sweep_s",
        "vocab_wide; no change predicted elsewhere",
    ),
    Layer("keyframes", _fn("keyframes.run_keyframes", calls=False), "pipeline_s", "eval_fragmented"),
    Layer(
        "field",
        _fn("field.train", calls=False)
        + (Metric("field.train.iterations", "count"),)
        + _fn("field.render_logits")
        + (Metric("field.render_logits.gflop", "GFLOP", computed=True),
           Metric("field.render_logits.gb_moved", "GB", computed=True),
           Metric("field.weights.s", "s"),
           Metric("field.weights_cache_mb", "MB", computed=True),
           Metric("field.features.calls", "count"),
           Metric("field.seg_loss.s", "s"),
           Metric("field.contrastive_loss.s", "s"))
        + _fn("field.select_gaussians"),
        "pipeline_s; peak_rss_mb through weights_cache_mb",
        "field_train (train), eval_fragmented (eval); no change predicted on vocab_wide",
    ),
    Layer(
        "metrics",
        (Metric("metrics.miou.s", "s"), Metric("metrics.miou.grids", "count"),
         Metric("metrics.pred_grids_mb", "MB", computed=True),
         Metric("metrics.match_tracks_to_objects.s", "s"),
         Metric("metrics.consensus_accuracy.s", "s")),
        "pipeline_s; peak_rss_mb through pred_grids_mb",
        "eval_fragmented",
    ),
    Layer(
        "synth",
        (Metric("synth.generate_scene.s", "s"), Metric("synth.corrupt.s", "s")),
        "setup_s",
        "field_train most",
    ),
)

METRICS = tuple(m for layer in LAYERS for m in layer.metrics)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _field_shape(field_) -> tuple[int, int, int]:
    return len(field_.gaussians), field_.height * field_.width, field_.dim


class Recorder:
    """Spans and shape counters of one traced process."""

    def __init__(self, run_id: str, label: str):
        self.run_id = run_id
        self.label = label
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._cached: set[tuple[int, int]] = set()

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    # -- computed counters ---------------------------------------------------

    def _probe_field_render_logits(self, args, kwargs, result):
        g, hw, dim = _field_shape(_arg(args, kwargs, 0, "field_"))
        self.counters["render_flop"] += 2 * g * dim + 2 * g * hw
        self.counters["render_bytes"] += g * hw * 8

    def _probe_field_render_mask(self, args, kwargs, result):
        _, hw, _ = _field_shape(_arg(args, kwargs, 0, "field_"))
        self.counters["render_mask_bytes"] += hw * 8

    def _probe_field_weights(self, args, kwargs, result):
        field_ = args[0]
        key = (id(field_), _arg(args, kwargs, 1, "view"))
        if key not in self._cached:
            self._cached.add(key)
            g, hw, _ = _field_shape(field_)
            self.counters["weights_bytes"] += g * hw * 8

    def _probe_field_train(self, args, kwargs, result):
        self.counters["train_iterations"] += len(result[1])

    def _probe_consensus_cluster_synonyms(self, args, kwargs, result):
        n = len(_arg(args, kwargs, 0, "labels"))
        self.counters["labels"] += n
        self.counters["merges"] += n - len(result.canonical)

    def _probe_metrics_miou(self, args, kwargs, result):
        preds = _arg(args, kwargs, 0, "preds")
        self.counters["miou_grids"] += sum(len(views) for views in preds.values())

    # -- installation and output ---------------------------------------------

    def install(self) -> list[str]:
        """Replace every WRAPPED function on all loaded trackfuse modules.

        Returns the WRAPPED names the program no longer has; their metrics read 0.
        """
        missing = []
        for module_name, attr in WRAPPED:
            module = importlib.import_module(f"trackfuse.{module_name}")
            span_name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(span_name, original)
            if owner is not module:
                setattr(owner, name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "trackfuse" or mod_name.startswith("trackfuse."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return missing

    def summary(self) -> dict[str, float]:
        """Calls, self seconds (inclusive for ``cli.*``), and counters of this process."""
        child = [0.0] * len(self.spans)
        in_greedy = [False] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent is not None:
                child[parent] += end - start
                in_greedy[i] = in_greedy[parent] or self.spans[parent][0] == "tracking.associate_greedy"
        out: Counter = Counter(self.counters)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if name.startswith("cli."):
                out[f"{name}.s"] += end - start
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start - child[i]
            if name == "rle.mask_iou" and in_greedy[i]:
                out["pairs_scored"] += 1
        return dict(out)

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "proc": self.label, "id": sid,
                                     "parent": parent, "name": name, "start": start,
                                     "end": end}) + "\n")


def layer_metrics(raw: Counter, tracks_per_object: float) -> dict[str, float]:
    """Per-layer metric values of one traced pipeline from the summed process summaries.

    ``cli.tracing_overhead_s`` needs the untraced run and is filled in by the caller.
    """
    calls = raw["consensus.cluster_synonyms.calls"]
    derived = {
        "tracking.associate.s": raw["tracking.associate_greedy.s"] + raw["tracking.import_tracks.s"],
        "tracking.pairs_scored": raw["pairs_scored"],
        "tracking.tracks_per_object": tracks_per_object,
        "consensus.labels": raw["labels"] / calls if calls else 0.0,
        "consensus.merges": raw["merges"] / calls if calls else 0.0,
        "field.train.iterations": raw["train_iterations"],
        "field.render_logits.gflop": raw["render_flop"] / 1e9,
        "field.render_logits.gb_moved": raw["render_bytes"] / 1e9,
        "field.weights_cache_mb": raw["weights_bytes"] / MB,
        "metrics.miou.grids": raw["miou_grids"],
        "metrics.pred_grids_mb": raw["eval_render_mask_bytes"] / MB,
    }
    return {m.name: derived.get(m.name, raw[m.name])
            for m in METRICS if m.name != "cli.tracing_overhead_s"}
