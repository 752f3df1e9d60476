"""Evaluation: query-averaged mIoU, consensus accuracy, report emission."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord, SynonymClustering
from .errors import SchemaError
from .records import SceneDataset, config_hash, write_json
from .rle import iou_table, rle_decode
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


def object_grids(gt: GroundTruth, views) -> list[dict[int, np.ndarray]]:
    """Each ground-truth object's decoded mask per view of ``views``, in ``gt.objects`` order."""
    return [{v: rle_decode(obj.masks[v]) for v in views} for obj in gt.objects]


def category_grids(gt: GroundTruth, grids: list[dict[int, np.ndarray]]) -> dict[str, dict[int, np.ndarray]]:
    """Short-query targets: per category, the pixelwise OR of its objects' ``grids``."""
    out: dict[str, dict[int, np.ndarray]] = {}
    for obj, per_view in zip(gt.objects, grids):
        acc = out.setdefault(obj.identity, {})
        for view, grid in per_view.items():
            acc[view] = grid if view not in acc else (acc[view] | grid)
    return out


def iou_tables(ds: SceneDataset, gt: GroundTruth) -> list[np.ndarray]:
    """Per view, the (detections x ``gt.objects``) mask IoU table."""
    return [
        iou_table([det.mask for det in ds.detections[view]], [obj.masks[view] for obj in gt.objects])
        for view in range(ds.n_views)
    ]


def match_detections_to_objects(tables: list[np.ndarray], gt: GroundTruth) -> dict[tuple[int, int], int]:
    """Map each detection (view, idx) to its max-IoU ground-truth object.

    The first object with the largest IoU wins; a detection that overlaps
    no object stays unmatched.
    """
    mapping: dict[tuple[int, int], int] = {}
    for view, table in enumerate(tables):
        if not table.size:
            continue
        best = table.argmax(axis=1)
        for idx, k in enumerate(best.tolist()):
            if table[idx, k] > 0.0:
                mapping[(view, idx)] = gt.objects[k].object_id
    return mapping


def match_tracks_to_objects(
    records: list[ConsensusRecord], gt: GroundTruth, tables: list[np.ndarray]
) -> dict[int, int]:
    """Map each track to the ground-truth object with the largest summed mask IoU.

    Member rows of ``tables`` are added in member order; ties go to the
    lowest object id.
    """
    ids = [obj.object_id for obj in gt.objects]
    out: dict[int, int] = {}
    for rec in records:
        totals = np.zeros(len(ids))
        for view, idx in rec.members:
            totals += tables[view][idx]
        top = totals.max()
        out[rec.track_id] = min(oid for oid, total in zip(ids, totals) if total == top)
    return out


def consensus_accuracy(
    ds: SceneDataset,
    gt: GroundTruth,
    clustering: SynonymClustering,
    mapping: dict[tuple[int, int], int],
) -> dict[str, float]:
    """Per-view (clustered raw label) vs consensus (resolved label) accuracy.

    Both are fractions over the detections ``mapping`` matches to a
    ground-truth object (``match_detections_to_objects``); detections must
    carry resolved labels (run propagate first).
    """
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

