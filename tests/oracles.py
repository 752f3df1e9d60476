"""Independent brute-force references the tested implementations must match.

These recompute everything from first principles on every step (no
caching, no incremental updates) so they stay structurally independent of
the library code paths they check.
"""

import math
from collections import Counter

import numpy as np

from trackfuse.rle import mask_iou


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
