"""Evaluation: query-averaged mIoU, consensus accuracy, report emission.

Eval scores each view as it renders: ``eval_queries`` builds one query
matrix with a target per row, and ``iou_by_view`` renders all rows of a
view at once and keeps one IoU per (query, view) in a (Q, V) table, so no
mask grid lives longer than its view. ``query_means`` reduces the table:
each query's ``np.mean`` over its views in ascending view order, then the
``np.mean`` of those values in sorted query-name order. ``miou`` is the
grid-by-grid reference; it scores dicts of grids and reduces through the
same ``query_means``.

``consensus_accuracy`` counts per-view and consensus hits on the member
table the vote reads (``consensus.member_table``): each matched
detection's clustered identity and its track's winner are array lookups,
so one value of a ``tau_sem`` sweep (``tau_sem_row``: cut, vote, score)
builds no record and loops over no member.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord, MemberTable, SynonymClustering, TrackVote, check_clustering, member_table, vote
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
    bit-packed, an eighth of their size, for the calls after it, which
    ``packed(view)`` returns as they are.
    """

    def __init__(self, gt: GroundTruth):
        self.gt = gt
        self._packed: dict[int, np.ndarray] = {}
        members: dict[str, list[int]] = {}
        for k, obj in enumerate(gt.objects):
            members.setdefault(obj.identity, []).append(k)
        # each sorted category's objects, as positions in gt.objects
        self.categories = [members[c] for c in sorted(members)]

    def at(self, view: int) -> np.ndarray:
        """The view's (objects, h*w) boolean masks, in ``gt.objects`` order."""
        packed = self._packed.get(view)
        if packed is None:
            rows = rle_decode_many([obj.masks[view] for obj in self.gt.objects])
            self._packed[view] = np.packbits(rows, axis=1)
            return rows
        first = self.gt.objects[0].masks[view]
        return np.unpackbits(packed, axis=1, count=first.height * first.width).view(bool)

    def packed(self, view: int) -> np.ndarray:
        """The view's masks as ``at`` gives them, bit-packed along each row (``np.packbits``)."""
        if view not in self._packed:
            self.at(view)
        return self._packed[view]


def view_targets(masks: ObjectMasks, view: int) -> np.ndarray:
    """One view's (C + O) bit-packed targets: each sorted category's OR of its
    objects' masks, then each object's mask, in ``masks.gt.objects`` order.

    The OR is taken on the packed bytes: their padding bits are zero in
    every row, so it gives the bytes of the packed OR of the masks.
    """
    objects = masks.packed(view)
    # a category of one object copies its mask; only a shared category takes an OR
    categories = objects[[g[0] for g in masks.categories]]
    for row, group in enumerate(masks.categories):
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
    row in one product into one (Q, h*w) logits buffer that serves every
    view, binarizes it and is scored at once, so no mask outlives its view.
    A cell is ``inter / union`` of the two pixel counts, or 1.0 when the
    union is empty, as ``iou_grids`` gives it. The counts are taken on
    bit-packed rows (``np.packbits``), eight pixels a byte, by
    ``np.bitwise_count`` of their AND and OR; the view's packed (C + O)
    targets (``view_targets``) are indexed by query. The zero bits that pad
    a row's last byte are set in neither row, so they add to neither count.
    ``masks``, if given, holds ``gt``'s masks, so that a view decoded before
    is not decoded again.
    """
    masks = ObjectMasks(gt) if masks is None else masks
    views = sorted(set(views))
    table = np.zeros((len(queries), len(views)))
    if not len(queries):
        return table
    logits = np.empty((len(queries), field_.height * field_.width))
    for col, view in enumerate(views):
        pred = binarize_logits(render_logits(field_, view, queries, out=logits)).reshape(len(queries), -1)
        pred = np.packbits(pred, axis=1)
        target = view_targets(masks, view)[targets]
        # uint32 counts every pixel of a grid below 2**32 pixels exactly
        inter = np.bitwise_count(pred & target).sum(axis=1, dtype=np.uint32)
        union = np.bitwise_count(pred | target).sum(axis=1, dtype=np.uint32)
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
    records,
    gt: GroundTruth,
    clustering: SynonymClustering,
    mapping: dict[tuple[int, int], int],
) -> dict[str, float]:
    """Per-view (clustered raw label) vs consensus (voted label) accuracy.

    Both are fractions over the detections of ``ds`` that ``mapping`` matches
    to a ground-truth object (``match_detections_to_objects``). A
    detection's voted label is the ``canonical`` of the record it is a
    member of (of two, the later in track order); a detection of no record
    has none, and is never a consensus hit. ``records`` may also be a
    ``TrackVote``, whose winners are the records' canonicals, so that a sweep
    scores each value without building records. Both counts are taken on
    the member table of ``ds`` and the records' tracks (``member_table``),
    with every name keyed by its cluster in ``clustering``, which must be of
    the table's labels (``check_clustering``).
    """
    if isinstance(records, TrackVote):
        table, voted_names = records.table, records.winner_names()
    else:
        table = member_table(ds, records)
        voted_names = [rec.canonical for rec in sorted(records, key=lambda r: r.track_id)]
    view, idx = np.fromiter(chain.from_iterable(mapping), dtype=np.intp, count=2 * len(mapping)).reshape(-1, 2).T
    rows = table.first[view] + idx
    if not rows.size:
        raise SchemaError("no detections matched any ground-truth object")
    check_clustering(table, clustering)
    clustered = clustering.cluster[table.label[rows]]

    keys = {name: k for k, name in enumerate(clustering.canonical)}

    def key(name: str) -> int:
        # distinct names no cluster has count down from -2; -1 is no voted label
        return keys.setdefault(name, -2 - len(keys))

    voted = np.array([key(name) for name in voted_names] + [-1], dtype=np.intp)[table.owner[rows]]
    truth_of = {o.object_id: key(o.identity) for o in gt.objects}
    truth = np.array([truth_of[obj] for obj in mapping.values()], dtype=np.intp)
    return {
        "per_view_acc": int(np.count_nonzero(clustered == truth)) / len(rows),
        "tscm_acc": int(np.count_nonzero(voted == truth)) / len(rows),
    }


def tau_sem_row(
    ds: SceneDataset,
    table: MemberTable,
    agglomeration: SynonymClustering,
    value: float,
    gt: GroundTruth | None = None,
    mapping: dict[tuple[int, int], int] | None = None,
) -> dict:
    """One row of a ``tau_sem`` sweep: the clustering cut at ``value`` from ``agglomeration``
    (``at``), its cluster count, and, with ``mapping``, the ``consensus_accuracy`` of its vote
    over ``table``."""
    clustering = agglomeration.at(value)
    row = {"value": value, "cluster_count": len(clustering.canonical)}
    if mapping is not None:
        row.update(consensus_accuracy(ds, vote(table, clustering), gt, clustering, mapping))
    return row


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

