"""Evaluation: query-averaged mIoU, consensus accuracy, report emission."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord, SynonymClustering
from .errors import SchemaError
from .records import SceneDataset, config_hash, read_json, write_json
from .rle import mask_iou, rle_decode
from .synth import GroundTruth

BINARIZE_THRESHOLD = 0.5


def _binarize(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid)
    if grid.dtype == bool:
        return grid
    return grid > BINARIZE_THRESHOLD


def iou_grids(pred: np.ndarray, gt: np.ndarray) -> float:
    if pred.shape != gt.shape:
        raise SchemaError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    pred = _binarize(pred)
    gt = np.asarray(gt, dtype=bool)
    union = int(np.count_nonzero(pred | gt))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(pred & gt)) / union


def miou(
    preds: dict[str, dict[int, np.ndarray]],
    gts: dict[str, dict[int, np.ndarray]],
) -> tuple[dict[str, float], float]:
    """Per-query mean IoU over its views, then the mean across queries.

    Predictions may be probability grids (binarized at 0.5) or boolean
    grids. Invariant to query and view ordering.
    """
    if not preds:
        return {}, float("nan")
    per_query: dict[str, float] = {}
    for query in sorted(preds):
        if query not in gts:
            raise SchemaError(f"missing ground truth for query {query!r}")
        views = sorted(preds[query])
        if not views:
            raise SchemaError(f"query {query!r} has no views to evaluate")
        vals = []
        for view in views:
            if view not in gts[query]:
                raise SchemaError(f"missing ground truth for query {query!r} view {view}")
            vals.append(iou_grids(preds[query][view], gts[query][view]))
        per_query[query] = float(np.mean(vals))
    overall = float(np.mean([per_query[q] for q in sorted(per_query)]))
    return per_query, overall


def short_query_union(gt: GroundTruth, category: str, view: int) -> np.ndarray:
    """Pixelwise OR of all ground-truth instances of a category at a view."""
    members = [o for o in gt.objects if o.identity == category]
    if not members:
        raise SchemaError(f"unknown category {category!r}")
    acc = None
    for obj in members:
        grid = rle_decode(obj.masks[view])
        acc = grid if acc is None else (acc | grid)
    return acc


def match_detections_to_objects(ds: SceneDataset, gt: GroundTruth) -> dict[tuple[int, int], int]:
    """Map each detection (view, idx) to the max-IoU ground-truth object."""
    mapping: dict[tuple[int, int], int] = {}
    for view, idx, det in ds.all_detections():
        best_obj, best_iou = None, 0.0
        for obj in gt.objects:
            score = mask_iou(det.mask, obj.masks[view])
            if score > best_iou:
                best_obj, best_iou = obj.object_id, score
        if best_obj is None:
            continue
        mapping[(view, idx)] = best_obj
    return mapping


def match_tracks_to_objects(
    ds: SceneDataset, records: list[ConsensusRecord], gt: GroundTruth
) -> dict[int, int]:
    """Map each track to the ground-truth object with the largest summed mask IoU."""
    out: dict[int, int] = {}
    for rec in records:
        totals = {obj.object_id: 0.0 for obj in gt.objects}
        for view, idx in rec.members:
            det = ds.detection(view, idx)
            for obj in gt.objects:
                totals[obj.object_id] += mask_iou(det.mask, obj.masks[view])
        out[rec.track_id] = min(totals, key=lambda oid: (-totals[oid], oid))
    return out


def consensus_accuracy(
    ds: SceneDataset,
    gt: GroundTruth,
    clustering: SynonymClustering,
) -> dict[str, float]:
    """Per-view (clustered raw label) vs consensus (resolved label) accuracy.

    Both are fractions over all detections matched to a ground-truth
    object; detections must carry resolved labels (run propagate first).
    """
    mapping = match_detections_to_objects(ds, gt)
    identity_of = {o.object_id: o.identity for o in gt.objects}
    total = 0
    per_view_hits = 0
    consensus_hits = 0
    for view, idx, det in ds.all_detections():
        key = (view, idx)
        if key not in mapping:
            continue
        truth = identity_of[mapping[key]]
        total += 1
        _, clustered = clustering.resolve(det.raw_label)
        if clustered == truth:
            per_view_hits += 1
        if det.resolved_label == truth:
            consensus_hits += 1
    if total == 0:
        raise SchemaError("no detections matched any ground-truth object")
    return {
        "per_view_acc": per_view_hits / total,
        "tscm_acc": consensus_hits / total,
    }


def emit_report(
    metrics: dict,
    config: dict,
    seeds: dict[str, int],
    path: str | Path,
) -> dict:
    """Write the run report; returns the report object."""
    report = {
        "config_hash": config_hash(config),
        "seeds": seeds,
        "metrics": metrics,
    }
    write_json(report, path)
    return report


def load_report(path: str | Path) -> dict:
    return read_json(path)
