"""Evaluation: query-averaged mIoU, consensus accuracy, report emission.

Eval scores each view as it renders: ``eval_queries`` builds one query
matrix with a target per row, and ``iou_by_view`` renders all rows of a
view at once and keeps one IoU per (query, view) in a (Q, V) table, so no
mask grid lives longer than its view. ``query_means`` reduces the table:
each query's ``np.mean`` over its views in ascending view order, then the
``np.mean`` of those values in sorted query-name order. ``miou`` is the
grid-by-grid reference; it scores dicts of grids and reduces through the
same ``query_means``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord, SynonymClustering
from .errors import SchemaError
from .field import ToyReferringField, binarize_logits, render_logits
from .records import DescriptionSet, SceneDataset, config_hash, kept, write_json
from .rle import iou_table, rle_decode_many
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


def query_means(names: list[str], rows) -> tuple[dict[str, float], float]:
    """Per-query mean IoU, then the mean across queries: the one reduction rule.

    ``rows[i]`` holds query ``names[i]``'s IoUs over its views in ascending
    view order; a repeated name keeps its last row. Each query's value is
    ``np.mean`` of its row, and the overall value is ``np.mean`` of those
    values in sorted name order; no queries give ``({}, nan)``.
    """
    last = dict(zip(names, rows))
    if not last:
        return {}, float("nan")
    per_query = {name: float(np.mean(last[name])) for name in sorted(last)}
    return per_query, float(np.mean(list(per_query.values())))


def miou(
    preds: dict[str, dict[int, np.ndarray]],
    gts: dict[str, dict[int, np.ndarray]],
) -> tuple[dict[str, float], float]:
    """Per-query mean IoU over its views, then the mean across queries.

    The grid-by-grid reference of the eval path (``eval_queries`` and
    ``iou_by_view``), reduced through the same ``query_means``. Predictions
    may be probability grids (binarized at 0.5) or boolean grids. Invariant
    to query and view ordering.
    """
    names, rows = [], []
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
        names.append(query)
        rows.append(vals)
    return query_means(names, rows)


def eval_queries(
    ds: SceneDataset,
    gt: GroundTruth,
    records: list[ConsensusRecord],
    tables: list[np.ndarray],
    descriptions: list[DescriptionSet] | None = None,
) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Eval's queries: ``(short names, long names, (Q, dim) matrix, (Q,) targets)``.

    The rows are the categories in sorted order (the short queries), then,
    by ascending track id, the referrals of each described track that
    ``match_tracks_to_objects`` matches (the long queries, named
    ``"<track>:<text>"``); without ``descriptions`` there are none. A row's
    target indexes ``view_targets``: category c is target c, and object k
    of ``gt.objects`` is target ``len(categories) + k``.
    """
    categories = sorted({o.identity for o in gt.objects})
    rows = [ds.embedding(c) for c in categories]
    targets = list(range(len(categories)))
    long_names: list[str] = []
    if descriptions is not None:
        track_to_obj = match_tracks_to_objects(records, gt, tables)
        position = {o.object_id: k for k, o in enumerate(gt.objects)}
        for desc in sorted(descriptions, key=lambda d: d.track_id):
            if desc.track_id not in track_to_obj:
                continue
            target = len(categories) + position[track_to_obj[desc.track_id]]
            for text, vec in desc.referrals:
                long_names.append(f"{desc.track_id}:{text}")
                rows.append(vec)
                targets.append(target)
    matrix = np.stack(rows) if rows else np.zeros((0, ds.dim))
    return categories, long_names, matrix, np.array(targets, dtype=np.intp)


class ObjectMasks:
    """The ground-truth (object, view) masks, each decoded once per eval.

    ``at(view)`` decodes a view's masks on its first call and keeps them
    bit-packed, an eighth of their size, for the calls after it.
    """

    def __init__(self, gt: GroundTruth):
        self.gt = gt
        self._packed: dict[int, np.ndarray] = {}

    def at(self, view: int) -> np.ndarray:
        """The view's (objects, h*w) boolean masks, in ``gt.objects`` order."""
        packed = self._packed.get(view)
        if packed is None:
            rows = rle_decode_many([obj.masks[view] for obj in self.gt.objects])
            self._packed[view] = np.packbits(rows, axis=1)
            return rows
        first = self.gt.objects[0].masks[view]
        return np.unpackbits(packed, axis=1, count=first.height * first.width).view(bool)


def view_targets(masks: ObjectMasks, view: int) -> np.ndarray:
    """One view's (C + O, h*w) boolean targets: each sorted category's OR of its
    objects' masks, then each object's mask, in ``masks.gt.objects`` order."""
    objects = masks.at(view)
    members: dict[str, list[int]] = {}
    for k, obj in enumerate(masks.gt.objects):
        members.setdefault(obj.identity, []).append(k)
    groups = [members[c] for c in sorted(members)]
    # a category of one object copies its mask; only a shared category takes an OR
    categories = objects[[g[0] for g in groups]]
    for row, group in enumerate(groups):
        for k in group[1:]:
            categories[row] |= objects[k]
    return np.concatenate([categories, objects])


def iou_by_view(
    field_: ToyReferringField,
    gt: GroundTruth,
    views: list[int],
    queries: np.ndarray,
    targets: np.ndarray,
    masks: ObjectMasks | None = None,
) -> np.ndarray:
    """The (Q, V) IoU table of each query row against its target at each view.

    Column j is the j-th of ``sorted(set(views))``. Each view renders every
    row in one product, binarizes it and is scored at once, so no mask
    outlives its view. A cell is ``inter / union`` of the two pixel counts,
    or 1.0 when the union is empty, as ``iou_grids`` gives it. ``masks``, if
    given, holds ``gt``'s masks, so that a view decoded before is not decoded again.
    """
    masks = ObjectMasks(gt) if masks is None else masks
    views = sorted(set(views))
    table = np.zeros((len(queries), len(views)))
    if not len(queries):
        return table
    logits = np.empty((len(queries), field_.height * field_.width))  # one render buffer for every view
    for col, view in enumerate(views):
        pred = binarize_logits(render_logits(field_, view, queries, out=logits)).reshape(len(queries), -1)
        target = view_targets(masks, view)[targets]
        # uint32 counts every pixel of a grid below 2**32 pixels exactly, at twice the speed of intp
        inter = (pred & target).sum(axis=1, dtype=np.uint32)
        union = (pred | target).sum(axis=1, dtype=np.uint32)
        table[:, col] = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return table


def eval_miou(
    field_: ToyReferringField,
    ds: SceneDataset,
    gt: GroundTruth,
    records: list[ConsensusRecord],
    tables: list[np.ndarray],
    views: list[int],
    descriptions: list[DescriptionSet] | None = None,
    masks: ObjectMasks | None = None,
) -> dict:
    """The report's mIoU entries: ``miou_short`` with its per-query values, and
    ``miou_long`` with its per-query values when there are long queries."""
    short_names, long_names, queries, targets = eval_queries(ds, gt, records, tables, descriptions)
    table = iou_by_view(field_, gt, views, queries, targets, masks)
    out: dict = {}
    out["miou_short_per_query"], out["miou_short"] = query_means(short_names, table[: len(short_names)])
    if long_names:
        out["miou_long_per_query"], out["miou_long"] = query_means(long_names, table[len(short_names):])
    return out


def iou_tables(ds: SceneDataset, gt: GroundTruth, masks: ObjectMasks | None = None) -> tuple[np.ndarray, ...]:
    """Per view, the (detections x ``gt.objects``) mask IoU table, read-only; the object masks
    come from ``masks`` if given, so that a later use of ``masks`` decodes none again.

    The process keeps (``records.kept``) the tables of one (dataset, ground truth) pair, keyed
    by both keys; a dataset or ground truth not read from files keeps nothing.
    """

    def build() -> tuple[np.ndarray, ...]:
        tables = tuple(
            iou_table(
                [det.mask for det in ds.detections[view]],
                [obj.masks[view] for obj in gt.objects],
                masks.at(view) if masks is not None and gt.objects else None,
            )
            for view in range(ds.n_views)
        )
        for table in tables:
            table.flags.writeable = False
        return tables

    key = None if ds.key is None or gt.key is None else (ds.key, gt.key)
    return kept("iou_tables", key, build)


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
    records: list[ConsensusRecord],
    gt: GroundTruth,
    clustering: SynonymClustering,
    mapping: dict[tuple[int, int], int],
) -> dict[str, float]:
    """Per-view (clustered raw label) vs consensus (voted label) accuracy.

    Both are fractions over the detections ``mapping`` matches to a
    ground-truth object (``match_detections_to_objects``). A detection's
    voted label is the ``canonical`` of the record it is a member of; a
    detection of no record has none, and is never a consensus hit.
    """
    identity_of = {o.object_id: o.identity for o in gt.objects}
    voted = {member: rec.canonical for rec in records for member in rec.members}
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
        if voted.get(key) == truth:
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

