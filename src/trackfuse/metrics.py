"""Evaluation: query-averaged mIoU, consensus accuracy, report emission.

Eval scores each view as it renders: ``eval_queries`` builds one query
matrix with a target per row, and ``iou_by_view`` renders a view's distinct
rows at most G (the field's Gaussian count) per product, so a render block
is never larger than the field's (G, h*w) weight buffer. It bit-packs each
block's masks into one table and keeps one IoU per (query, view) in a
(Q, V) table, so no mask grid outlives its block. Every mask IoU here, of
a render or of a detection (``detection_ious``), is ``rle.packed_iou`` of
bit-packed rows, the targets' read from ``gt.packed`` and the detections'
from ``ds.packed``, where each mask is decoded once a process.
``query_means`` reduces the table: each query's ``np.mean`` over its views
in ascending view order, then the ``np.mean`` of those values in sorted
query-name order. The grid-by-grid reference, ``miou`` in
``tests/oracles.py``, scores dicts of grids and reduces through the same
``query_means``.

Scoring works in the dataset's row space: one (detections x objects) IoU
table (``detection_ious``), one array of each row's matched object
(``matched_objects``), and the member table the vote reads
(``consensus.member_table``). ``consensus_accuracy`` scores a
``consensus.TrackVote`` under each of its clusterings and tallies nothing:
eval scores the re-vote it checks its records with, and a ``tau_sem`` sweep
(``tau_sem_rows``) the one vote of all its values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord, MemberTable, SynonymClustering, TrackVote, member_table, vote
from .errors import SchemaError
from .field import ToyReferringField, binarize_logits, render_logits
from .records import DescriptionSet, SceneDataset, config_hash, kept, write_json
from .rle import check_same_size, iou_table, packed_iou
from .synth import GroundTruth

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


def eval_queries(
    ds: SceneDataset,
    gt: GroundTruth,
    records: list[ConsensusRecord],
    ious: np.ndarray,
    descriptions: list[DescriptionSet] | None = None,
) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Eval's queries: ``(short names, long names, (Q, dim) matrix, (Q,) targets)``.

    The rows are the categories in sorted order (the short queries), then,
    by ascending track id, the referrals of each described track that
    ``match_tracks_to_objects`` matches on ``ious`` (the long queries, named
    ``"<track>:<text>"``); without ``descriptions`` there are none. A row's
    target indexes ``view_targets``: category c is target c, and object k
    of ``gt.objects`` is target ``len(categories) + k``.
    """
    categories = sorted({o.identity for o in gt.objects})
    rows = [ds.embedding(c) for c in categories]
    targets = list(range(len(categories)))
    long_names: list[str] = []
    if descriptions is not None:
        track_to_obj = match_tracks_to_objects(member_table(ds, records), gt, ious)
        for desc in sorted(descriptions, key=lambda d: d.track_id):
            if desc.track_id not in track_to_obj:
                continue
            target = len(categories) + track_to_obj[desc.track_id]
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
    A view's U distinct rows render in blocks of min(U, max(1, G)) rows, G
    the field's Gaussian count, into one logits buffer that serves every
    block and view; each block is binarized and bit-packed into its rows of
    one (U, ceil(h*w / 8)) table. A block is then never larger than the
    field's (G, h*w) weights, so memory is bounded by the weights, not by
    U, and reading the weights once more per block after the first adds
    fewer bytes than the view's U rows of logits. A cell is the value of
    ``iou_grids`` (``tests/oracles.py``) as ``rle.packed_iou`` of the packed
    render, by the inverse index, and the view's packed (C + O) target
    (``view_targets``), by query.
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
    pixels = field_.height * field_.width
    block = min(len(distinct), max(1, len(field_.gaussians)))
    logits = np.empty((block, pixels))
    packed = np.empty((len(distinct), (pixels + 7) // 8), dtype=np.uint8)
    for col, view in enumerate(views):
        for lo in range(0, len(distinct), block):
            rows = distinct[lo : lo + block]
            pred = binarize_logits(render_logits(field_, view, rows, out=logits[: len(rows)]))
            packed[lo : lo + len(rows)] = np.packbits(pred.reshape(len(rows), -1), axis=1)
        table[:, col] = packed_iou(packed[inverse], view_targets(gt, view)[targets])
    return table


def eval_miou(
    field_: ToyReferringField,
    ds: SceneDataset,
    gt: GroundTruth,
    records: list[ConsensusRecord],
    ious: np.ndarray,
    views: list[int],
    descriptions: list[DescriptionSet] | None = None,
) -> dict:
    """The report's mIoU entries: ``miou_short`` with its per-query values, and
    ``miou_long`` with its per-query values when there are long queries."""
    short_names, long_names, queries, targets = eval_queries(ds, gt, records, ious, descriptions)
    table = iou_by_view(field_, gt, views, queries, targets)
    out: dict = {}
    out["miou_short_per_query"], out["miou_short"] = query_means(short_names, table[: len(short_names)])
    if long_names:
        out["miou_long_per_query"], out["miou_long"] = query_means(long_names, table[len(short_names):])
    return out


def detection_ious(ds: SceneDataset, gt: GroundTruth) -> np.ndarray:
    """The read-only (detections x ``gt.objects``) mask IoU table, rows in the dataset's row order.

    It is filled a view at a time with ``iou_table`` of the view's rows of ``ds.packed`` and
    ``gt.packed[view]``, so no (detections x objects x bytes) block is built. Ground truth of another
    mask size than the dataset raises ``mask dimensions differ: <dataset> vs <ground truth>``. The
    process keeps (``records.kept``) the table of one (dataset, ground truth) pair, keyed by both
    keys; a dataset or ground truth not read from files keeps nothing. Masks, not labels, decide the
    matchings, so eval and a later ``tau_sem`` sweep of the same pair build one table.
    """

    def build() -> np.ndarray:
        ious = np.zeros((len(ds.masks), len(gt.objects)))
        if gt.objects:
            check_same_size(ds, gt.objects[0].masks[0])
            for v, (lo, hi) in enumerate(zip(ds.first[:-1].tolist(), ds.first[1:].tolist())):
                ious[lo:hi] = iou_table(ds.packed[lo:hi], gt.packed[v])
        ious.flags.writeable = False
        return ious

    return kept("ious", None if ds.key is None or gt.key is None else (ds.key, gt.key), build)


def matched_objects(ious: np.ndarray) -> np.ndarray:
    """Each row's max-IoU object of ``ious`` (``detection_ious``): its position in ``gt.objects``,
    the first of the largest IoU, or -1 for a row that overlaps no object."""
    # a leading column of zeros is the first maximum of exactly the rows whose largest IoU is 0
    return np.column_stack([np.zeros(len(ious)), ious]).argmax(axis=1) - 1


def match_tracks_to_objects(table: MemberTable, gt: GroundTruth, ious: np.ndarray) -> dict[int, int]:
    """Each track of ``table`` by id, to the position in ``gt.objects`` of the object with the
    largest summed mask IoU over its members.

    The members' rows of ``ious`` (``detection_ious``) are added in member order; ties go to the
    lowest object id.
    """
    totals = np.zeros((len(table.tracks), ious.shape[1]))
    np.add.at(totals, table.track, ious[table.det])
    by_id = np.argsort([o.object_id for o in gt.objects])
    best = by_id[totals[:, by_id].argmax(axis=1)]
    return dict(zip([t.track_id for t in table.tracks], best.tolist()))


def consensus_accuracy(result: TrackVote, gt: GroundTruth, matched: np.ndarray) -> list[dict[str, float]]:
    """Per-view (clustered raw label) and consensus (voted label) accuracy under each clustering of
    ``result`` (``consensus.vote``), one dict each, in order.

    Both are fractions over the detections that ``matched`` (``matched_objects``) matches to a
    ground-truth object, read from the vote's ``identity`` and ``winner`` arrays. A detection's voted
    label is the winner of the track it is a member of (of two, the later in track order); a
    detection of no track has none, and is never a consensus hit. The hits of all clusterings are
    counted as one (clusterings x matched detections) array each.
    """
    table = result.table
    rows = np.flatnonzero(matched >= 0)
    if not rows.size:
        raise SchemaError("no detections matched any ground-truth object")
    position = {lab: k for k, lab in enumerate(table.ds.labels)}
    # an identity that is no raw label gets a position no label has: never a hit
    truth = np.array([position.get(o.identity, -2) for o in gt.objects], dtype=np.intp)[matched[rows]]
    # a detection of no track (owner -1) reads the last column: -1, no voted label
    voted = np.column_stack([result.winner, np.full(len(result.winner), -1)])[:, table.owner[rows]]
    per_view = np.count_nonzero(result.identity[:, table.ds.label[rows]] == truth, axis=1).tolist()
    tscm = np.count_nonzero(voted == truth, axis=1).tolist()
    return [{"per_view_acc": p / len(rows), "tscm_acc": t / len(rows)} for p, t in zip(per_view, tscm)]


def tau_sem_rows(table: MemberTable, agglomeration: SynonymClustering, values: list[float],
                 gt: GroundTruth | None = None, matched: np.ndarray | None = None) -> list[dict]:
    """The rows of a ``tau_sem`` sweep, one per value in order: the clustering cut at the value
    from ``agglomeration`` (``at``), its cluster count, and, with ``matched``, the
    ``consensus_accuracy`` of its vote over ``table``.

    The merges do not depend on the cutoff, so every value's clustering is a cut of the one
    agglomeration, which the process keeps (``cluster_synonyms``): after ``consensus`` in the same
    process a sweep clusters nothing. All values vote in one ``consensus.vote`` and are scored
    together, from the kept member table and IoU table (``detection_ious``), so a sweep after eval
    in the same process builds no IoU table, and one in its own process builds one for all its
    values. No consensus record is built.
    """
    clusterings = [agglomeration.at(value) for value in values]
    rows = [{"value": value, "cluster_count": len(c.canonical)} for value, c in zip(values, clusterings)]
    if matched is not None:
        for row, accuracy in zip(rows, consensus_accuracy(vote(table, clusterings), gt, matched)):
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

