"""Cross-view association: external track import and a greedy matcher.

The greedy matcher is a deterministic stand-in for a full video tracker:
per view, candidate (detection, open track) pairs are scored by a convex
mix of mask IoU and label-embedding cosine, then assigned greedily in
descending score. Ties break on (detection index, track id), unmatched
detections open new tracks, and tracks expire after ``max_gap`` missed
views.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .records import (
    SceneDataset, Trajectory, dataset_key, json_members, member_check, read_jsonl_kept, write_jsonl_kept,
)
from .rle import iou_table, json_int


@dataclass(frozen=True)
class AssocParams:
    iou_weight: float = 0.7
    match_threshold: float = 0.3
    max_gap: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_weight <= 1.0:
            raise ValueError(f"iou_weight must be in [0, 1], got {self.iou_weight}")
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ValueError(f"match_threshold must be in [0, 1], got {self.match_threshold}")
        if self.max_gap < 0:
            raise ValueError(f"max_gap must be >= 0, got {self.max_gap}")


def import_tracks(ds: SceneDataset) -> list[Trajectory]:
    """Partition detections by their carried track IDs."""
    members: dict[int, list[tuple[int, int]]] = {}
    seen: set[tuple[int, int]] = set()
    for view, idx, det in ds.all_detections():
        if det.track_id is None:
            raise SchemaError(f"detection (view {view}, index {idx}) has no track_id")
        key = (det.track_id, view)
        if key in seen:
            raise SchemaError(f"track {det.track_id} appears twice in view {view}")
        seen.add(key)
        members.setdefault(det.track_id, []).append((view, idx))
    return [
        Trajectory(track_id, tuple(sorted(members[track_id])))
        for track_id in sorted(members)
    ]


@dataclass
class _OpenTrack:
    track_id: int
    last_view: int
    last_row: int  # the dataset's packed row of the last member's mask
    last_vec: np.ndarray
    members: list[tuple[int, int]]


def associate_greedy(ds: SceneDataset, params: AssocParams = AssocParams()) -> list[Trajectory]:
    """Build trajectories front to back; pure function of (dataset, params)."""
    alpha = params.iou_weight
    tracks: list[_OpenTrack] = []
    packed = ds.packed

    for view in range(ds.n_views):
        dets = ds.detections[view]
        first = int(packed.first[view])
        vecs = [ds.embedding(d.raw_label) for d in dets]
        eligible = [t for t in tracks if view - t.last_view <= params.max_gap + 1]

        # each cell is bit-equal to mask_iou of its pair
        ious = iou_table(packed.view(view), packed.rows[[t.last_row for t in eligible]]).tolist()
        pairs = []
        for di, row in enumerate(ious):
            for iou, t in zip(row, eligible):
                score = alpha * iou + (1.0 - alpha) * float(np.dot(vecs[di], t.last_vec))
                if score >= params.match_threshold:
                    pairs.append((score, di, t.track_id, t))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))

        matched_dets: set[int] = set()
        matched_tracks: set[int] = set()
        for score, di, tid, t in pairs:
            if di in matched_dets or tid in matched_tracks:
                continue
            matched_dets.add(di)
            matched_tracks.add(tid)
            t.members.append((view, di))
            t.last_view = view
            t.last_row = first + di
            t.last_vec = vecs[di]

        for di in range(len(dets)):
            if di in matched_dets:
                continue
            tracks.append(
                _OpenTrack(
                    track_id=len(tracks),
                    last_view=view,
                    last_row=first + di,
                    last_vec=vecs[di],
                    members=[(view, di)],
                )
            )

    return [Trajectory(t.track_id, tuple(t.members)) for t in tracks]


def save_tracks(trajectories: list[Trajectory], path: str | Path, ds: SceneDataset | None = None) -> None:
    """Write a tracks file; with ``ds``, keep what ``load_tracks(path, ds)`` reads back (``write_kept``)."""
    objs = ({"track": t.track_id, "members": [[v, i] for v, i in t.members]} for t in trajectories)
    write_jsonl_kept("tracks", objs, path, None if ds is None else dataset_key(ds), lambda: _track_step(ds))


def load_tracks(path: str | Path, ds: SceneDataset | None = None) -> tuple[Trajectory, ...]:
    """Read a tracks file; against ``ds``, also check every member (``member_check``). Kept
    (``read_kept``)."""
    return read_jsonl_kept("tracks", path, dataset_key(ds), lambda: _track_step(ds))


def _track_step(ds: SceneDataset | None):
    """A parse step for the lines of one tracks file, read against ``ds`` (``member_check``)."""
    check = member_check(ds)
    return lambda obj: check(Trajectory(json_int(obj["track"], "track"), json_members(obj["members"])))
