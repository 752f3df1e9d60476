"""Independent brute-force references the tested implementations must match.

These recompute everything from first principles on every step (no
caching, no incremental updates) so they stay structurally independent of
the library code paths they check.
"""

import math
from collections import Counter

import numpy as np

from trackfuse.consensus import ConsensusRecord, _tally
from trackfuse.errors import NumericError, SchemaError
from trackfuse.field import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BCE_EPS, binarize_logits, render_logits
from trackfuse.metrics import miou
from trackfuse.records import Detection, SceneDataset, Trajectory
from trackfuse.rle import mask_iou, rle_decode, rle_encode
from trackfuse.synth import GroundTruth, GtObject, _render, build_vocabulary_embeddings


def detections_of(ds):
    """The detections of ``ds`` as per-view lists of ``Detection`` records, rebuilt row by row
    from its columns: the form datasets are built from, for loops over single detections."""
    out = []
    for view in range(ds.n_views):
        out.append([
            Detection(view, ds.masks[row], ds.labels[ds.label[row]], float(ds.confidence[row]),
                      None if ds.track[row] < 0 else int(ds.track[row]))
            for row in range(ds.first[view], ds.first[view + 1])
        ])
    return out


def each_detection(ds):
    """(view, index, detection) of every detection of ``ds``, in view then index order."""
    return [(view, idx, det) for view, dets in enumerate(detections_of(ds)) for idx, det in enumerate(dets)]


def oracle_import_tracks(ds):
    """Partition the detections by their carried track ids, one detection at a time: the first
    without a track id, or with one an earlier detection of its view carries, is refused."""
    members = {}
    seen = set()
    for view, idx, det in each_detection(ds):
        if det.track_id is None:
            raise SchemaError(f"detection (view {view}, index {idx}) has no track_id")
        key = (det.track_id, view)
        if key in seen:
            raise SchemaError(f"track {det.track_id} appears twice in view {view}")
        seen.add(key)
        members.setdefault(det.track_id, []).append((view, idx))
    return [Trajectory(track_id, tuple(sorted(members[track_id]))) for track_id in sorted(members)]


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


def oracle_distances(labels, embeddings):
    """Per-pair ``1 - float(np.dot)`` cosine distances, as an (n, n) array."""
    n = len(labels)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - float(np.dot(embeddings[labels[i]].vector, embeddings[labels[j]].vector))
            dist[i, j] = d
            dist[j, i] = d
    return dist


def oracle_merges(labels, embeddings, tau_sem):
    """The merge list of average linkage, each cluster average an fsum over its member pairs.

    Slot k holds the cluster whose lowest member index is k. After every
    merge each live slot's average with the merged one is summed again from
    the pair distances; the pick is the first minimum of the upper triangle
    in row-major order, so ties go to the lower a, then the lower b.
    """
    n = len(labels)
    dist = oracle_distances(labels, embeddings)
    cutoff = 1.0 - tau_sem
    members = [[k] for k in range(n)]
    merges = []
    avg = dist.copy()
    avg[np.tril_indices(n)] = np.inf
    for _ in range(n - 1):
        a, b = divmod(int(np.argmin(avg)), n)
        height = float(avg[a, b])
        if height > cutoff:
            break
        merges.append((a, b, height))
        members[a] = sorted(members[a] + members[b])
        members[b] = []
        avg[b, :] = avg[:, b] = np.inf
        for k in range(n):
            if k != a and members[k]:
                total = math.fsum(dist[i, j] for i in members[k] for j in members[a])
                avg[min(k, a), max(k, a)] = total / (len(members[k]) * len(members[a]))
    return tuple(merges)


def oracle_cut(labels, merges, tau_sem):
    """Replay ``merges`` up to the first whose height is above ``1 - tau_sem``, concatenating and
    sorting member lists: (label -> cluster, cluster -> name, merges replayed), clusters numbered
    in order of their lowest slot and named by their shortest label, ties to the smallest."""
    cutoff = 1.0 - tau_sem
    members = [[k] for k in range(len(labels))]
    done = 0
    for a, b, height in merges:
        if height > cutoff:
            break
        members[int(a)] = sorted(members[int(a)] + members[int(b)])
        members[int(b)] = []
        done += 1
    assignment = {}
    canonical = {}
    for out_idx, slot in enumerate(m for m in members if m):
        member_labels = [labels[i] for i in slot]
        canonical[out_idx] = min(member_labels, key=lambda s: (len(s), s))
        for lab in member_labels:
            assignment[lab] = out_idx
    return assignment, canonical, done


def clustering_fields(clustering):
    """Every field of a clustering, comparable with ``==``."""
    return clustering.labels, clustering.linkage.tobytes(), clustering.cluster.tolist(), clustering.canonical


def partition_of(clustering):
    """A clustering as ``oracle_cluster`` gives one: (partition, label -> name)."""
    members, names = {}, {}
    for lab, k in zip(clustering.labels, clustering.cluster.tolist()):
        members.setdefault(k, set()).add(lab)
        names[lab] = clustering.canonical[k]
    return frozenset(frozenset(group) for group in members.values()), names


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


def vote_trajectory(member_votes):
    """Majority vote over (clustered identity, mask area) member pairs: one track's ``vote``, by
    the tally every track's vote takes (``consensus._tally``).

    One vote per member. Ties: larger summed area over the tied identity's
    supporting members, then lexicographically smallest surface form.
    """
    if not member_votes:
        raise ValueError("cannot vote on an empty trajectory")
    names = sorted({identity for identity, _ in member_votes})
    index = {name: k for k, name in enumerate(names)}
    cluster = np.array([index[identity] for identity, _ in member_votes])
    area = np.array([a for _, a in member_votes], dtype=float)
    _, pair_cluster, votes, winner = _tally(np.zeros_like(cluster), cluster, area, np.arange(len(names)), 1)
    return names[winner[0]], {names[c]: n for c, n in zip(pair_cluster.tolist(), votes.tolist())}


def oracle_identity(clustering, label):
    """A raw label's clustered identity: its cluster's canonical name."""
    return clustering.canonical[clustering.cluster[clustering.labels.index(label)]]


def oracle_vote_tracks(ds, trajectories, clustering):
    """Each trajectory's record, in track order, by a loop over its members: ``oracle_vote`` of
    their (identity, decoded mask area) pairs."""
    detections = detections_of(ds)
    records = []
    for traj in sorted(trajectories, key=lambda t: t.track_id):
        member_votes = []
        for view, idx in traj.members:
            det = detections[view][idx]
            member_votes.append((oracle_identity(clustering, det.raw_label), int(rle_decode(det.mask).sum())))
        winner, votes = oracle_vote(member_votes)
        records.append(ConsensusRecord(track_id=traj.track_id, canonical=winner, votes=votes, members=traj.members))
    return records


def oracle_consensus_accuracy(ds, records, gt, clustering, mapping):
    """Per-view and consensus accuracy by a loop over every detection: a matched detection is a
    per-view hit if its clustered identity is its object's, and a consensus hit if the
    ``canonical`` of the record it is a member of is."""
    identity_of = {o.object_id: o.identity for o in gt.objects}
    voted = {member: rec.canonical for rec in records for member in rec.members}
    total = per_view_hits = consensus_hits = 0
    for view, idx, det in each_detection(ds):
        if (view, idx) not in mapping:
            continue
        truth = identity_of[mapping[(view, idx)]]
        total += 1
        per_view_hits += oracle_identity(clustering, det.raw_label) == truth
        consensus_hits += voted.get((view, idx)) == truth
    if total == 0:
        raise SchemaError("no detections matched any ground-truth object")
    return {"per_view_acc": per_view_hits / total, "tscm_acc": consensus_hits / total}


def oracle_tau_sem_row(ds, table, agglomeration, value, gt=None, mapping=None):
    """One row of a ``tau_sem`` sweep, one value at a time: the clustering cut at ``value`` from
    ``agglomeration`` (``at``), its cluster count, and, with ``mapping``, the accuracy of the
    per-member loops' vote over the tracks of member table ``table``."""
    clustering = agglomeration.at(value)
    row = {"value": value, "cluster_count": len(clustering.canonical)}
    if mapping is not None:
        records = oracle_vote_tracks(ds, table.tracks, clustering)
        row.update(oracle_consensus_accuracy(ds, records, gt, clustering, mapping))
    return row


def oracle_visibility(area, med, sigma):
    return area * math.exp(-((math.sqrt(area) - math.sqrt(med)) ** 2) / (2.0 * sigma**2))


def smallest_accepted(accepts):
    """The smallest positive double ``accepts`` takes, where it takes 1.0 and every double above one
    it takes: a bisection over the bit patterns, which order the positive doubles."""
    lo, hi = 1, int(np.float64(1.0).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if accepts(float(np.int64(mid).view(np.float64))):
            hi = mid
        else:
            lo = mid + 1
    return float(np.int64(lo).view(np.float64))


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
    for view, idx, det in each_detection(ds):
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
    detections = detections_of(ds)
    out = {}
    for rec in records:
        totals = {obj.object_id: 0.0 for obj in gt.objects}
        for view, idx in rec.members:
            det = detections[view][idx]
            for obj in gt.objects:
                totals[obj.object_id] += mask_iou(det.mask, obj.masks[view])
        out[rec.track_id] = min(totals, key=lambda oid: (-totals[oid], oid))
    return out


def oracle_associate_greedy(ds, params):
    """Greedy association scoring every (detection, open track) pair with its own ``mask_iou``.

    Per view: score = iou_weight * IoU + (1 - iou_weight) * label cosine for
    each detection against each track seen within ``max_gap + 1`` views,
    keep the pairs at or above ``match_threshold``, and match them in
    descending score, ties to the lower detection index, then the lower
    track id; an unmatched detection opens a new track.
    """
    alpha = params.iou_weight
    tracks = []  # [track_id, last_view, last_mask, last_vec, members]
    for view, dets in enumerate(detections_of(ds)):
        vecs = [ds.embedding(d.raw_label) for d in dets]
        eligible = [t for t in tracks if view - t[1] <= params.max_gap + 1]
        pairs = []
        for di, det in enumerate(dets):
            for t in eligible:
                score = alpha * mask_iou(det.mask, t[2]) + (1.0 - alpha) * float(np.dot(vecs[di], t[3]))
                if score >= params.match_threshold:
                    pairs.append((score, di, t[0], t))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
        matched_dets, matched_tracks = set(), set()
        for _, di, tid, t in pairs:
            if di in matched_dets or tid in matched_tracks:
                continue
            matched_dets.add(di)
            matched_tracks.add(tid)
            t[1:4] = [view, dets[di].mask, vecs[di]]
            t[4].append((view, di))
        for di, det in enumerate(dets):
            if di not in matched_dets:
                tracks.append([len(tracks), view, det.mask, vecs[di], [(view, di)]])
    return [Trajectory(t[0], tuple(t[4])) for t in tracks]


def oracle_field_json(field_):
    """A field file's document, each center row tested with its own ``np.isfinite`` and cast with ``float``."""
    return {
        "h": field_.height,
        "w": field_.width,
        "spread": field_.spread,
        "dim": field_.dim,
        "gaussians": [
            {
                "centers": [None if not np.all(np.isfinite(c)) else [float(c[0]), float(c[1])] for c in centers],
                "feature": feature.tolist(),
            }
            for centers, feature in zip(field_.gaussians, field_.features)
        ],
    }


def oracle_weights(field_, view):
    """Per-Gaussian full-grid weights: every pixel of every row, the 3-sigma cut applied last."""
    ys, xs = np.mgrid[0 : field_.height, 0 : field_.width]
    px = xs.ravel().astype(float)
    py = ys.ravel().astype(float)
    rows = []
    cutoff = (3.0 * field_.spread) ** 2
    for centers in field_.gaussians:
        cx, cy = centers[view]
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
    for gid, centers in enumerate(field_.gaussians):
        cx, cy = centers[view]
        if not (np.isfinite(cx) and np.isfinite(cy)):
            continue
        col, row = int(round(cx)), int(round(cy))
        if 0 <= row < field_.height and 0 <= col < field_.width and grid[row, col]:
            chosen.append(gid)
    return chosen


def oracle_render_logits(field_, view, query):
    """One query: restack the features and take a dense (G,) @ (G, h*w) product."""
    scores = np.stack(list(field_.features)) @ query
    return (scores @ oracle_weights(field_, view)).reshape(field_.height, field_.width)


def oracle_seg_step(field_, view, positives, target, buffers=None):
    """One train step's segmentation part, one render and one outer-product gradient per positive.

    ``buffers`` is ignored: it is there so that this can stand in for ``seg_step``.
    """
    weights = oracle_weights(field_, view)
    n_pos = positives.shape[0]
    seg_mean = 0.0
    grad = np.zeros((len(field_.gaussians), positives.shape[1]))
    for q in positives:
        probs = 1.0 / (1.0 + np.exp(-oracle_render_logits(field_, view, q)))
        seg, g_logits = oracle_seg_loss(probs, target)
        seg_mean += seg / n_pos
        grad += np.outer(weights @ g_logits.ravel(), q) / n_pos
    return seg_mean, grad


def oracle_seg_loss(probs, target):
    """``seg_loss`` as one expression per quantity, each a fresh array: mean clamped BCE and (p - y)/N."""
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(target, dtype=float)
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    loss = np.mean(-np.log(np.where(y, p, 1.0 - p)), axis=(-2, -1))
    grad = (probs - y) / y.size
    grad[(probs < BCE_EPS) | (probs > 1.0 - BCE_EPS)] = 0.0
    return (float(loss) if probs.ndim == 2 else loss), grad


def oracle_contrastive_loss(anchor, positives, pool, tau):
    """The multi-positive softmax loss and its anchor gradient, each reduction through ``np.*``."""
    logits = pool @ anchor / tau
    m = float(np.max(logits))
    lse = m + math.log(float(np.sum(np.exp(logits - m))))
    loss = float(lse - np.mean(positives @ anchor / tau))
    grad = (np.exp(logits - lse) @ pool - positives.mean(axis=0)) / tau
    return loss, grad


def oracle_train(field_, ds, records, descriptions, cfg, include_category=True):
    """``field.train`` as a plan of stacked positives and a loop that allocates every array afresh.

    Per view, the pool maps each (track, text) key to its first vector and a
    track's positives take the pool's vector of each of its keys; each step
    renders through ``1 / (1 + exp(-z))``, takes ``oracle_seg_loss`` and
    ``oracle_contrastive_loss``, and rebinds the Adam moments and the features.
    Gaussians are chosen by ``oracle_select_inside``. Returns the field and
    its loss curve.
    """
    desc_by_track = {d.track_id: d for d in descriptions}
    views = cfg.views if cfg.views is not None else tuple(range(ds.n_views))
    detections = detections_of(ds)
    plan = []
    for view in views:
        pool, entries = {}, []
        for rec in sorted(records, key=lambda r: r.track_id):
            member = next(((v, i) for v, i in rec.members if v == view), None)
            desc = desc_by_track.get(rec.track_id)
            if member is None or desc is None:
                continue
            category = [(desc.category, ds.embedding(desc.category))] if include_category else []
            texts = [*category, *desc.referrals]
            positives = [pool.setdefault((rec.track_id, text), vec) for text, vec in texts]
            target = rle_decode(detections[member[0]][member[1]].mask)
            chosen = oracle_select_inside(field_, view, target)
            if not chosen:
                raise NumericError(f"no Gaussian center inside the pseudo mask at view {view}")
            entries.append((np.stack(positives), target, chosen))
        pool_vecs = np.stack(list(pool.values())) if pool else None
        plan += [(view, positives, pool_vecs, target, chosen) for positives, target, chosen in entries]

    m = v = np.zeros_like(field_.features)
    curve = []
    iteration = 0
    for _ in range(cfg.epochs):
        for view, positives, pool, target, chosen in plan:
            anchor = field_.features[chosen].mean(axis=0)
            con, g_con = oracle_contrastive_loss(anchor, positives, pool, cfg.tau)
            grads_con = np.zeros_like(field_.features)
            grads_con[chosen] += g_con / len(chosen)

            n_pos = positives.shape[0]
            probs = 1.0 / (1.0 + np.exp(-render_logits(field_, view, positives)))
            losses, g_logits = oracle_seg_loss(probs, target)
            seg_mean = 0.0
            for seg in losses.tolist():
                seg_mean += seg / n_pos
            grads_seg = ((field_.weights(view) @ g_logits.reshape(n_pos, -1).T) @ positives) / n_pos

            weight = cfg.lam * cfg.ratio(iteration)
            step_loss = seg_mean + weight * con
            if not math.isfinite(step_loss):
                raise NumericError(f"non-finite loss at iteration {iteration}")
            step_grad = grads_seg + weight * grads_con

            iteration += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * step_grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * step_grad**2
            m_hat = m / (1.0 - ADAM_BETA1**iteration)
            v_hat = v / (1.0 - ADAM_BETA2**iteration)
            field_.features = field_.features - cfg.feature_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            curve.append((iteration, seg_mean, con, step_loss))
    return field_, curve


def oracle_view_batch(ds, records, descriptions, view, include_category=True):
    """One view's training batch, rebuilt from the records: ``(entries, pool)``.

    ``entries`` lists, per track seen in the view and described in the
    ``descriptions`` dict (ascending track id), its stacked positives (the
    category unless ``include_category`` is False, then its referrals) and
    its pseudo mask. ``pool`` stacks every distinct (track, text) key once,
    in first-seen order with its first vector; it is None without entries.
    """
    detections = detections_of(ds)
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
        entries.append((np.stack(vecs), detections[member[0]][member[1]].mask))
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


def oracle_generate_scene(cfg):
    """``synth.generate_scene`` with one full-grid ``count_nonzero`` per (candidate, placed object).

    Every placed object keeps its (V, h, w) bool grids, and each candidate
    path is intersected with each of them in turn.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    h, w = cfg.height, cfg.width
    embeddings = build_vocabulary_embeddings(cfg.vocabulary, cfg.dim, cfg.seed)

    n_groups = len(cfg.vocabulary)
    if cfg.n_objects <= n_groups:
        group_ids = rng.permutation(n_groups)[: cfg.n_objects]
    else:
        group_ids = rng.integers(0, n_groups, size=cfg.n_objects)

    ys, xs = np.ogrid[0:h, 0:w]
    t = (np.arange(cfg.n_views) / max(cfg.n_views - 1, 1))[:, None, None]
    objects: list[GtObject] = []
    placed: list[tuple[np.ndarray, np.ndarray]] = []  # (V, h, w) masks, (V,) pixel counts
    for oid in range(cfg.n_objects):
        group = cfg.vocabulary[int(group_ids[oid])]
        shape = "ellipse" if oid % 2 == 0 else "rectangle"

        # Resample paths that overlap existing objects too much: distinct
        # objects must stay distinguishable (occlusion is modeled as
        # detection dropout, not as coinciding masks).
        best = None
        for _ in range(50):
            rx = float(rng.uniform(h / 10.0, h / 6.0))
            ry = float(rng.uniform(h / 10.0, h / 6.0))
            margin_x, margin_y = rx + 1.0, ry + 1.0
            x0 = float(rng.uniform(margin_x, w - margin_x))
            y0 = float(rng.uniform(margin_y, h - margin_y))
            x1 = float(rng.uniform(margin_x, w - margin_x))
            y1 = float(rng.uniform(margin_y, h - margin_y))

            cx = x0 + (x1 - x0) * t
            cy = y0 + (y1 - y0) * t
            grids = _render(shape, cx, cy, rx, ry, ys, xs)
            areas = np.count_nonzero(grids, axis=(1, 2))
            centers = list(zip(cx.ravel().tolist(), cy.ravel().tolist()))
            worst_overlap = 0.0
            for prev, prev_areas in placed:
                inter = np.count_nonzero(grids & prev, axis=(1, 2))
                # per-view IoU; a view where both are empty has inter = union = 0 and counts 0
                iou = inter / np.maximum(areas + prev_areas - inter, 1)
                worst_overlap = max(worst_overlap, float(iou.max()))
            candidate = (worst_overlap, grids, areas, centers, (rx, ry))
            if best is None or worst_overlap < best[0]:
                best = candidate
            if worst_overlap <= 0.3:
                break

        _, grids, areas, centers, radii = best
        visible = (areas > 0).tolist()
        if not any(visible):
            raise ValueError(f"object {oid} is never visible; rejecting config")
        placed.append((grids, areas))
        objects.append(
            GtObject(
                object_id=oid,
                identity=group.canonical,
                masks=[rle_encode(g) for g in grids],
                visible=visible,
                centers=centers,
                radii=radii,
                shape=shape,
            )
        )

    detections: list[list[Detection]] = [[] for _ in range(cfg.n_views)]
    for v in range(cfg.n_views):
        for obj in objects:
            if not obj.visible[v]:
                continue
            detections[v].append(
                Detection(
                    view=v,
                    mask=obj.masks[v],
                    raw_label=obj.identity,
                    confidence=1.0,
                    track_id=obj.object_id,
                )
            )

    ds = SceneDataset(
        n_views=cfg.n_views,
        height=h,
        width=w,
        dim=cfg.dim,
        detections=detections,
        embeddings=embeddings,
    )
    return ds, GroundTruth(objects)
