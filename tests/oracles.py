"""Independent brute-force references the tested implementations must match.

These recompute everything from first principles on every step (no
caching, no incremental updates) so they stay structurally independent of
the library code paths they check.
"""

import math
from collections import Counter

import numpy as np

from trackfuse.errors import SchemaError
from trackfuse.field import binarize_logits, render_logits, seg_loss
from trackfuse.metrics import miou
from trackfuse.rle import mask_iou, rle_decode


def oracle_cluster(labels, embeddings, tau_sem):
    """Recompute-from-scratch average-linkage agglomeration.

    Returns (partition, canonical) where partition is a frozenset of
    frozensets of labels and canonical maps each label to its cluster's
    shortest surface form (ties to the lexicographic minimum).
    """
    n = len(labels)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - float(np.dot(embeddings[labels[i]].vector, embeddings[labels[j]].vector))
            dist[i][j] = d
            dist[j][i] = d

    clusters = [frozenset([i]) for i in range(n)]
    cutoff = 1.0 - tau_sem
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                total = math.fsum(
                    dist[i][j] for i in sorted(clusters[a]) for j in sorted(clusters[b])
                )
                avg = total / (len(clusters[a]) * len(clusters[b]))
                lows = sorted((min(clusters[a]), min(clusters[b])))
                key = (avg, lows[0], lows[1])
                if best is None or key < best[0]:
                    best = (key, a, b)
        if best is None or best[0][0] > cutoff:
            break
        _, a, b = best
        merged = clusters[a] | clusters[b]
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)] + [merged]

    partition = frozenset(frozenset(labels[i] for i in c) for c in clusters)
    canonical = {}
    for cluster in partition:
        name = min(cluster, key=lambda s: (len(s), s))
        for lab in cluster:
            canonical[lab] = name
    return partition, canonical


def oracle_vote(member_votes):
    """Counter-based majority with the documented tie-breaks."""
    counts = Counter(identity for identity, _ in member_votes)
    areas = Counter()
    for identity, area in member_votes:
        areas[identity] += area
    top = max(counts.values())
    tied = [c for c in counts if counts[c] == top]
    top_area = max(areas[c] for c in tied)
    tied = [c for c in tied if areas[c] == top_area]
    return min(tied), dict(counts)


def oracle_visibility(area, med, sigma):
    return area * math.exp(-((math.sqrt(area) - math.sqrt(med)) ** 2) / (2.0 * sigma**2))


def random_unit_vectors(rng, n, dim):
    vecs = rng.standard_normal((n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def oracle_match_detections(ds, gt):
    """Per-pair max-IoU matching of every detection to a ground-truth object.

    Objects are scanned in ``gt.objects`` order and a strictly larger IoU
    replaces the best so far, starting from 0.0: the first maximum wins and
    a detection with no overlap stays unmatched.
    """
    mapping = {}
    for view, idx, det in ds.all_detections():
        best_obj, best_iou = None, 0.0
        for obj in gt.objects:
            score = mask_iou(det.mask, obj.masks[view])
            if score > best_iou:
                best_obj, best_iou = obj.object_id, score
        if best_obj is not None:
            mapping[(view, idx)] = best_obj
    return mapping


def oracle_match_tracks(ds, records, gt):
    """Per-pair summed-IoU matching of every track; ties to the lowest object id."""
    out = {}
    for rec in records:
        totals = {obj.object_id: 0.0 for obj in gt.objects}
        for view, idx in rec.members:
            det = ds.detection(view, idx)
            for obj in gt.objects:
                totals[obj.object_id] += mask_iou(det.mask, obj.masks[view])
        out[rec.track_id] = min(totals, key=lambda oid: (-totals[oid], oid))
    return out


def oracle_weights(field_, view):
    """Per-Gaussian full-grid weights: every pixel of every row, the 3-sigma cut applied last."""
    ys, xs = np.mgrid[0 : field_.height, 0 : field_.width]
    px = xs.ravel().astype(float)
    py = ys.ravel().astype(float)
    rows = []
    cutoff = (3.0 * field_.spread) ** 2
    for g in field_.gaussians:
        cx, cy = g.centers[view]
        if not (np.isfinite(cx) and np.isfinite(cy)):
            rows.append(np.zeros(px.size))
            continue
        d2 = (px - cx) ** 2 + (py - cy) ** 2
        w = np.exp(-d2 / (2.0 * field_.spread**2))
        w[d2 > cutoff] = 0.0
        rows.append(w)
    return np.stack(rows)


def oracle_select_inside(field_, view, grid):
    """Gaussian ids whose center, rounded by round() (half to even), is a set pixel of ``grid``."""
    chosen = []
    for g in field_.gaussians:
        cx, cy = g.centers[view]
        if not (np.isfinite(cx) and np.isfinite(cy)):
            continue
        col, row = int(round(cx)), int(round(cy))
        if 0 <= row < field_.height and 0 <= col < field_.width and grid[row, col]:
            chosen.append(g.gid)
    return chosen


def oracle_render_logits(field_, view, query):
    """One query: restack the features and take a dense (G,) @ (G, h*w) product."""
    scores = np.stack(list(field_.features)) @ query
    return (scores @ oracle_weights(field_, view)).reshape(field_.height, field_.width)


def oracle_seg_step(field_, view, positives, target):
    """One train step's segmentation part, one render and one outer-product gradient per positive."""
    weights = oracle_weights(field_, view)
    n_pos = positives.shape[0]
    seg_mean = 0.0
    grad = np.zeros((len(field_.gaussians), positives.shape[1]))
    for q in positives:
        probs = 1.0 / (1.0 + np.exp(-oracle_render_logits(field_, view, q)))
        seg, g_logits = seg_loss(probs, target)
        seg_mean += seg / n_pos
        grad += np.outer(weights @ g_logits.ravel(), q) / n_pos
    return seg_mean, grad


def oracle_view_batch(ds, records, descriptions, view, include_category=True):
    """One view's training batch, rebuilt from the records: ``(entries, pool)``.

    ``entries`` lists, per track seen in the view and described in the
    ``descriptions`` dict (ascending track id), its stacked positives (the
    category unless ``include_category`` is False, then its referrals) and
    its pseudo mask. ``pool`` stacks every distinct (track, text) key once,
    in first-seen order with its first vector; it is None without entries.
    """
    entries, pool_keys, pool_rows = [], [], []
    for rec in sorted(records, key=lambda r: r.track_id):
        member = next(((v, i) for v, i in rec.members if v == view), None)
        if member is None or rec.track_id not in descriptions:
            continue
        desc = descriptions[rec.track_id]
        keys, vecs = [], []
        if include_category:
            keys.append((rec.track_id, desc.category))
            vecs.append(ds.embedding(desc.category))
        for text, vec in desc.referrals:
            keys.append((rec.track_id, text))
            vecs.append(vec)
        entries.append((np.stack(vecs), ds.detection(*member).mask))
        for k, v in zip(keys, vecs):
            if k not in pool_keys:
                pool_keys.append(k)
                pool_rows.append(v)
    return entries, (np.stack(pool_rows) if entries else None)


def render_grids(field_, views, queries):
    """Per query row, its binary mask at each of ``views``; one render per view for all rows.

    With ``object_grids``, ``category_grids`` and ``metrics.miou``, the grid-by-grid
    reference of ``metrics.iou_by_view``: every (query, view) grid is kept.
    """
    out = [{} for _ in queries]
    if not out:
        return out
    mat = np.stack(queries)
    for view in views:
        for per_view, grid in zip(out, binarize_logits(render_logits(field_, view, mat))):
            per_view[view] = grid
    return out


def object_grids(gt, views):
    """Each ground-truth object's decoded mask per view of ``views``, in ``gt.objects`` order."""
    return [{v: rle_decode(obj.masks[v]) for v in views} for obj in gt.objects]


def category_grids(gt, grids):
    """Short-query targets: per category, the pixelwise OR of its objects' ``grids``."""
    out = {}
    for obj, per_view in zip(gt.objects, grids):
        acc = out.setdefault(obj.identity, {})
        for view, grid in per_view.items():
            acc[view] = grid if view not in acc else (acc[view] | grid)
    return out


def oracle_eval_miou(field_, ds, gt, records, views, descriptions=None):
    """Eval's mIoU entries from every (query, view) grid, kept until ``miou`` scores them.

    The queries are the sorted categories, each against the OR of its
    objects, then the referrals of every described track (by ascending
    track id) that ``oracle_match_tracks`` matches, each against its
    track's object; a repeated "<track>:<text>" name keeps its last
    referral's grids.
    """
    categories = sorted({o.identity for o in gt.objects})
    grids = object_grids(gt, views)
    queries = [ds.embedding(c) for c in categories]
    long_names, long_gts = [], {}
    if descriptions is not None:
        track_to_obj = oracle_match_tracks(ds, records, gt)
        grids_by_id = {o.object_id: g for o, g in zip(gt.objects, grids)}
        for desc in sorted(descriptions, key=lambda d: d.track_id):
            if desc.track_id not in track_to_obj:
                continue
            for text, vec in desc.referrals:
                name = f"{desc.track_id}:{text}"
                queries.append(vec)
                long_names.append(name)
                long_gts[name] = grids_by_id[track_to_obj[desc.track_id]]
    preds = render_grids(field_, views, queries)
    out = {}
    out["miou_short_per_query"], out["miou_short"] = miou(dict(zip(categories, preds)), category_grids(gt, grids))
    long_preds = dict(zip(long_names, preds[len(categories):]))
    if long_preds:
        out["miou_long_per_query"], out["miou_long"] = miou(long_preds, long_gts)
    return out


def short_query_union(gt, category, view):
    """Pixelwise OR of all ground-truth instances of a category at a view."""
    unions = category_grids(gt, object_grids(gt, [view]))
    if category not in unions:
        raise SchemaError(f"unknown category {category!r}")
    return unions[category][view]


def grad_check(fn, x0, step=1e-5):
    """Max relative error between fn's analytic gradient and central differences."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x0 = np.asarray(x0, dtype=float)
    _, analytic = fn(x0)
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.zeros_like(analytic)
    flat = x0.ravel()
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        hi, _ = fn(bumped.reshape(x0.shape))
        bumped[i] = flat[i] - step
        lo, _ = fn(bumped.reshape(x0.shape))
        numeric[i] = (hi - lo) / (2.0 * step)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(abs(a), abs(n))
        if scale < 1e-10:
            continue
        worst = max(worst, abs(a - n) / scale)
    return worst


def mask_bbox(mask):
    """Tight (row_min, col_min, row_max, col_max) box, or None for an empty mask."""
    grid = rle_decode(mask)
    rows = np.flatnonzero(grid.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(grid.any(axis=0))
    return int(rows[0]), int(cols[0]), int(rows[-1]), int(cols[-1])
