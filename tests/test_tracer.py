"""What perfbench/tracer.py reads from trackfuse, checked without installing the tracer.

``Recorder.install()`` patches the trackfuse modules for the whole process,
so these tests only load the tracer's module, read its tables and wrap
single functions by hand.
"""

import importlib
import runpy
from pathlib import Path

import numpy as np

from trackfuse.consensus import cluster_synonyms, run_consensus
from trackfuse.field import (
    ToyReferringField,
    TrainConfig,
    field_from_ground_truth,
    load_field,
    render_logits,
    render_mask,
    save_field,
    train,
)
from trackfuse.keyframes import run_keyframes

from oracles import category_grids, miou, object_grids, render_grids

TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"))


def test_field_shape_of_a_loaded_field(tmp_path, clean_scene):
    ds, gt, _ = clean_scene
    save_field(field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim), tmp_path / "f.json", ds)
    field_ = load_field(tmp_path / "f.json", ds)
    assert TRACER["_field_shape"](field_) == (5 * len(gt.objects), ds.height * ds.width, ds.dim)


def test_every_wrapped_name_resolves_but_the_features_matrix():
    # the features are one matrix on each field, not a method, and the per-pair mask IoU, the
    # grid-by-grid mIoU and the checking Gaussian choice and contrastive loss are references in
    # tests/oracles.py, which no stage runs: those names are reported as not traced and read 0
    missing = []
    for module_name, attr in TRACER["WRAPPED"]:
        owner = importlib.import_module(f"trackfuse.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == [
        "rle.mask_iou", "field.ToyReferringField.features", "field.contrastive_loss", "field.select_gaussians",
        "metrics.miou",
    ]


def test_every_probe_reads_one_real_call(clean_scene):
    """Each ``Recorder._probe_*`` runs on the arguments and result of a real call, as the
    traced run wraps it, so a changed signature or return type fails here, not under --trace 1."""
    ds, gt, trajectories = clean_scene
    result = run_consensus(ds, trajectories)
    descriptions = run_keyframes(ds, result.records)
    field_ = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
    categories = sorted({o.identity for o in gt.objects})
    queries = np.stack([ds.embedding(c) for c in categories])
    preds = dict(zip(categories, render_grids(field_, [0, 1], list(queries))))
    gts = category_grids(gt, object_grids(gt, [0, 1]))
    labels = list(ds.labels)
    calls = {
        "field.render_logits": (render_logits, (field_, 0, queries)),
        "field.render_mask": (render_mask, (field_, 0, queries[0])),
        "field.weights": (ToyReferringField.weights, (field_, 1)),
        "field.train": (train, (field_, ds, result.records, descriptions, TrainConfig(epochs=1))),
        "consensus.cluster_synonyms": (cluster_synonyms, (labels, ds.embeddings, 0.85)),
        "metrics.miou": (miou, (preds, gts)),
    }
    probed = sorted(name[len("_probe_"):] for name in vars(TRACER["Recorder"]) if name.startswith("_probe_"))
    assert probed == sorted(name.replace(".", "_") for name in calls)

    recorder = TRACER["Recorder"]("test", "test")
    values = {}
    for name, (fn, args) in calls.items():
        values[name] = recorder.wrap(name, fn)(*args)
    g, hw, dim = len(field_.gaussians), ds.height * ds.width, ds.dim
    assert dict(recorder.counters) == {
        "render_flop": 2 * g * dim + 2 * g * hw,
        "render_bytes": g * hw * 8,
        "render_mask_bytes": hw * 8,
        "weights_bytes": g * hw * 8,
        "train_iterations": len(values["field.train"][1]),
        "labels": len(labels),
        "merges": len(labels) - len(values["consensus.cluster_synonyms"].canonical),
        "miou_grids": 2 * len(categories),
    }
    assert values["field.train"][1] and len(categories) == 2
