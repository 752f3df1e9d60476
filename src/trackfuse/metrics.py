"""Evaluation: query-averaged mIoU, consensus accuracy, report emission.

Eval scores each view as it renders: ``eval_queries`` builds one query
matrix with a target per row, and ``iou_by_view`` renders all rows of a
view at once and keeps one IoU per (query, view) in a (Q, V) table, so no
mask grid lives longer than its view. Every mask IoU here, of a render or
of a detection (``iou_tables``), is ``rle.packed_iou`` of bit-packed rows,
the targets' read from ``gt.packed`` and the detections' from ``ds.packed``,
where each mask is decoded once a process. ``query_means`` reduces the table:
each query's ``np.mean`` over its views in ascending view order, then the
``np.mean`` of those values in sorted query-name order. ``miou`` is the
grid-by-grid reference; it scores dicts of grids and reduces through the
same ``query_means``.

``consensus_accuracy`` counts per-view and consensus hits on the member
table the vote reads (``consensus.member_table``): each matched
detection's clustered identity and its track's winner are array lookups.
A ``tau_sem`` sweep (``tau_sem_rows``) votes all its values in one tally
(``consensus.vote_identities``) and counts their hits the same way, as one
(values x matched detections) array each; the process keeps the detection
matching (``detection_matches``), so eval and a later sweep match once.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .consensus import (ConsensusRecord, MemberTable, SynonymClustering, TrackVote, check_clustering, member_table,
                        vote_identities)
from .errors import SchemaError
from .field import ToyReferringField, binarize_logits, render_logits
from .records import DescriptionSet, SceneDataset, config_hash, kept, write_json
from .rle import check_same_size, iou_table, packed_iou
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


def view_targets(gt: GroundTruth, view: int) -> np.ndarray:
    """One view's (C + O) bit-packed targets: each sorted category's OR of its
    objects' masks, then each object's mask, in ``gt.objects`` order (``gt.packed``).

    The OR is taken on the packed bytes: their padding bits are zero in
    every row, so it gives the bytes of the packed OR of the masks.
    """
    objects = gt.packed[view]
    categories = sorted({o.identity for o in gt.objects})
    targets = np.zeros((len(categories), objects.shape[1]), dtype=np.uint8)
    np.bitwise_or.at(targets, [categories.index(o.identity) for o in gt.objects], objects)
    return np.concatenate([targets, objects])


def iou_by_view(
    field_: ToyReferringField,
    gt: GroundTruth,
    views: list[int],
    queries: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """The (Q, V) IoU table of each query row against its target at each view.

    Column j is the j-th of ``sorted(set(views))``. Each distinct query row
    is rendered once per view: the rows are keyed by their bytes, in
    first-seen order, and an inverse index gives each query its distinct
    row, so a repeated row is scored from the one render of its bytes.
    Each view renders every distinct row in one product into one
    (U, h*w) logits buffer that serves every view, binarizes it and is
    scored at once, so no mask outlives its view. A cell is ``iou_grids``'s
    value, as ``rle.packed_iou`` of the packed render, by the inverse index,
    and the view's packed (C + O) target (``view_targets``), by query.
    """
    views = sorted(set(views))
    table = np.zeros((len(queries), len(views)))
    if not len(queries):
        return table
    queries = np.ascontiguousarray(queries, dtype=float)
    index: dict[bytes, int] = {}  # a distinct row's bytes -> its index among the distinct rows
    inverse = np.array([index.setdefault(row.tobytes(), len(index)) for row in queries], dtype=np.intp)
    distinct = np.empty((len(index), queries.shape[1]))
    distinct[inverse] = queries  # a repeated row writes the same bytes again
    logits = np.empty((len(distinct), field_.height * field_.width))
    for col, view in enumerate(views):
        pred = binarize_logits(render_logits(field_, view, distinct, out=logits)).reshape(len(distinct), -1)
        table[:, col] = packed_iou(np.packbits(pred, axis=1)[inverse], view_targets(gt, view)[targets])
    return table


def eval_miou(
    field_: ToyReferringField,
    ds: SceneDataset,
    gt: GroundTruth,
    records: list[ConsensusRecord],
    tables: list[np.ndarray],
    views: list[int],
    descriptions: list[DescriptionSet] | None = None,
) -> dict:
    """The report's mIoU entries: ``miou_short`` with its per-query values, and
    ``miou_long`` with its per-query values when there are long queries."""
    short_names, long_names, queries, targets = eval_queries(ds, gt, records, tables, descriptions)
    table = iou_by_view(field_, gt, views, queries, targets)
    out: dict = {}
    out["miou_short_per_query"], out["miou_short"] = query_means(short_names, table[: len(short_names)])
    if long_names:
        out["miou_long_per_query"], out["miou_long"] = query_means(long_names, table[len(short_names):])
    return out


def _pair_key(ds: SceneDataset, gt: GroundTruth):
    """The key of what the process keeps of a (dataset, ground truth) pair: both keys, or None."""
    return None if ds.key is None or gt.key is None else (ds.key, gt.key)


def iou_tables(ds: SceneDataset, gt: GroundTruth) -> tuple[np.ndarray, ...]:
    """Per view, the (detections x ``gt.objects``) mask IoU table (``iou_table`` of the view's rows
    of ``ds.packed`` and ``gt.packed[view]``), read-only. Ground truth of another mask size than the
    dataset raises ``mask dimensions differ: <dataset> vs <ground truth>``.

    The process keeps (``records.kept``) the tables of one (dataset, ground truth) pair, keyed
    by both keys; a dataset or ground truth not read from files keeps nothing.
    """

    def build() -> tuple[np.ndarray, ...]:
        if not gt.objects:
            tables = tuple(np.zeros((n, 0)) for n in np.diff(ds.first).tolist())
        else:
            check_same_size(ds, gt.objects[0].masks[0])
            tables = tuple(iou_table(ds.packed[ds.first[v] : ds.first[v + 1]], gt.packed[v]) for v in range(ds.n_views))
        for table in tables:
            table.flags.writeable = False
        return tables

    return kept("iou_tables", _pair_key(ds, gt), build)


def detection_matches(ds: SceneDataset, gt: GroundTruth) -> Mapping:
    """``match_detections_to_objects`` on the ``iou_tables`` of ``ds`` and ``gt``, read-only.

    The process keeps (``records.kept``) the matching under the tables' key: masks, not labels,
    decide it, so eval and a sweep of the same pair match once.
    """
    return kept("matching", _pair_key(ds, gt),
                lambda: MappingProxyType(match_detections_to_objects(iou_tables(ds, gt), gt)))


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
    mapping: Mapping[tuple[int, int], int],
) -> dict[str, float]:
    """Per-view (clustered raw label) vs consensus (voted label) accuracy.

    Both are fractions over the detections of ``ds`` that ``mapping`` matches
    to a ground-truth object (``match_detections_to_objects``). A
    detection's voted label is the ``canonical`` of the record it is a
    member of (of two, the later in track order); a detection of no record
    has none, and is never a consensus hit. ``records`` may also be a
    ``TrackVote``, whose winners are the records' canonicals, so that eval
    scores its re-vote without building records. Both counts are taken on
    the member table of ``ds`` and the records' tracks (``member_table``),
    with every name keyed by its cluster in ``clustering``, which must be of
    the table's labels (``check_clustering``), and counted as a sweep counts
    each of its values (``tau_sem_rows``).
    """
    table = records.table if isinstance(records, TrackVote) else member_table(ds, records)
    check_clustering(table, clustering)
    ids = {lab: k for k, lab in enumerate(table.ds.labels)}
    name = np.array([ids[n] for n in clustering.canonical], dtype=np.intp)
    if isinstance(records, TrackVote):
        voted = name[records.winner]
    else:
        voted = [ids.setdefault(rec.canonical, len(ids)) for rec in sorted(records, key=lambda r: r.track_id)]
    return _accuracies(table, gt, mapping, name[clustering.cluster][None], np.array([voted], dtype=np.intp), ids)[0]


def _accuracies(table: MemberTable, gt: GroundTruth, mapping: Mapping, clustered, voted, ids: dict) -> list[dict]:
    """``consensus_accuracy`` of V rows at once: (V, labels) ``clustered`` holds each label's
    clustered identity and (V, tracks) ``voted`` each track's voted one, keyed by ``ids``, which
    gives a name no key holds yet the next key."""
    view, idx = np.fromiter(chain.from_iterable(mapping), dtype=np.intp, count=2 * len(mapping)).reshape(-1, 2).T
    rows = table.ds.first[view] + idx
    if not rows.size:
        raise SchemaError("no detections matched any ground-truth object")
    truth_of = {o.object_id: ids.setdefault(o.identity, len(ids)) for o in gt.objects}
    truth = np.array([truth_of[obj] for obj in mapping.values()], dtype=np.intp)
    # a detection of no track (owner -1) reads the last column: -1, no voted label
    voted = np.column_stack([voted, np.full(len(voted), -1)])[:, table.owner[rows]]
    per_view = np.count_nonzero(clustered[:, table.ds.label[rows]] == truth, axis=1).tolist()
    tscm = np.count_nonzero(voted == truth, axis=1).tolist()
    return [{"per_view_acc": p / len(rows), "tscm_acc": t / len(rows)} for p, t in zip(per_view, tscm)]


def tau_sem_rows(table: MemberTable, agglomeration: SynonymClustering, values: list[float],
                 gt: GroundTruth | None = None, mapping: Mapping | None = None) -> list[dict]:
    """The rows of a ``tau_sem`` sweep, one per value in order: the clustering cut at the value
    from ``agglomeration`` (``at``), its cluster count, and, with ``mapping``, the
    ``consensus_accuracy`` of its vote over ``table``; all values vote in one ``vote_identities``."""
    clusterings = [agglomeration.at(value) for value in values]
    rows = [{"value": value, "cluster_count": len(c.canonical)} for value, c in zip(values, clusterings)]
    if mapping is not None:
        clustered, voted = vote_identities(table, clusterings)
        ids = {lab: k for k, lab in enumerate(table.ds.labels)}
        for row, accuracy in zip(rows, _accuracies(table, gt, mapping, clustered, voted, ids)):
            row.update(accuracy)
    return rows


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

