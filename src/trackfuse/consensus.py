"""Label consensus: synonym clustering plus per-trajectory majority voting.

Labels are merged bottom-up by average-linkage agglomeration on the
cosine-distance matrix, stopping once the smallest inter-cluster average
distance exceeds ``1 - tau_sem``. Each cluster is named by its shortest
member surface form. Each trajectory then votes: every member detection
contributes one vote for its clustered identity, and the winner is
propagated to all member detections.

The merge sequence does not depend on the cutoff: each step merges the
global closest pair, and the cutoff only decides when to stop. So the
merges of a run at any smaller cutoff (higher ``tau_sem``) are a prefix of
the merges of a run at a larger one. ``cluster_synonyms`` keeps its merge
list, and ``SynonymClustering.at`` cuts it at any higher ``tau_sem``
without clustering again; a threshold sweep agglomerates once.

Determinism rules, needed so independent reference implementations can be
compared exactly:
  - cluster-average distances use exact (fsum) summation, so they do not
    depend on accumulation order;
  - merge ties pick the pair with the smaller (lowest member index, other
    lowest member index);
  - vote ties pick the identity with the larger summed mask area, then
    the lexicographically smallest surface form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .records import LabelEmbedding, SceneDataset, Trajectory, member_check, read_jsonl, write_jsonl
from .rle import mask_area

logger = logging.getLogger(__name__)


def cosine_distance_matrix(embeddings: list[LabelEmbedding]) -> np.ndarray:
    """Pairwise 1 - cos(e_i, e_j); zero diagonal, exactly symmetric."""
    n = len(embeddings)
    dims = {e.vector.shape for e in embeddings}
    if len(dims) > 1:
        raise SchemaError(f"embeddings have mixed dimensions: {sorted(dims)}")
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - float(np.dot(embeddings[i].vector, embeddings[j].vector))
            dist[i, j] = d
            dist[j, i] = d
    return dist


def check_tau_sem(tau_sem: float) -> None:
    if not 0.0 < tau_sem < 1.0:
        raise ValueError(f"tau_sem must be in (0, 1), got {tau_sem}")


@dataclass
class SynonymClustering:
    """Label -> cluster assignment with per-cluster canonical surface forms.

    ``merges`` holds the agglomeration's merges over ``labels`` in order, as
    (slot a, slot b, height); it ran to the cutoff ``1 - tau_floor``.
    """

    assignment: dict[str, int]
    canonical: dict[int, str]
    labels: tuple[str, ...] = ()
    merges: tuple[tuple[int, int, float], ...] = ()
    tau_floor: float = 1.0

    def at(self, tau_sem: float) -> "SynonymClustering":
        """The clustering at ``tau_sem``: the merges before the first above ``1 - tau_sem``.

        Equal to ``cluster_synonyms(labels, ..., tau_sem)``. Below ``tau_floor``
        it raises ValueError: the agglomeration stopped before those merges.
        """
        check_tau_sem(tau_sem)
        if not tau_sem >= self.tau_floor:
            raise ValueError(
                f"tau_sem {tau_sem} is below {self.tau_floor}, the lowest this clustering was built to"
            )
        return _cut(self.labels, self.merges, self.tau_floor, tau_sem)

    def resolve(self, label: str) -> tuple[int, str]:
        """Map a label to (cluster index, canonical form).

        Unseen labels become their own singleton cluster and are logged;
        open-world ingestion should degrade gracefully rather than fail.
        """
        if label not in self.assignment:
            new_idx = max(self.canonical, default=-1) + 1
            self.assignment[label] = new_idx
            self.canonical[new_idx] = label
            logger.warning("label %r not in clustered set; treating as singleton", label)
        idx = self.assignment[label]
        return idx, self.canonical[idx]


def canonical_form(labels: list[str]) -> str:
    """Shortest member surface form; ties go to the lexicographic minimum."""
    return min(labels, key=lambda s: (len(s), s))


def _cut(
    labels: tuple[str, ...], merges: tuple[tuple[int, int, float], ...], tau_floor: float, tau_sem: float
) -> SynonymClustering:
    """Replay ``merges`` up to the first whose height is above ``1 - tau_sem``."""
    cutoff = 1.0 - tau_sem
    members = [[k] for k in range(len(labels))]
    for a, b, height in merges:
        if height > cutoff:
            break
        members[a] = sorted(members[a] + members[b])
        members[b] = []
    assignment: dict[str, int] = {}
    canonical: dict[int, str] = {}
    for out_idx, slot in enumerate(m for m in members if m):
        member_labels = [labels[i] for i in slot]
        canonical[out_idx] = canonical_form(member_labels)
        for lab in member_labels:
            assignment[lab] = out_idx
    return SynonymClustering(assignment, canonical, labels, merges, tau_floor)


def cluster_synonyms(
    labels: list[str],
    embeddings: dict[str, LabelEmbedding],
    tau_sem: float,
) -> SynonymClustering:
    """Average-linkage agglomeration cut at distance 1 - tau_sem; ``at`` cuts it higher."""
    check_tau_sem(tau_sem)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    missing = [lab for lab in labels if lab not in embeddings]
    if missing:
        raise SchemaError(f"missing embeddings for labels: {missing}")

    n = len(labels)
    dist = cosine_distance_matrix([embeddings[lab] for lab in labels])
    cutoff = 1.0 - tau_sem

    # Slot k holds the cluster whose lowest member index is k (empty once
    # merged away); avg[a, b] for live slots a < b is their cluster-average
    # distance, every other entry is inf.
    members = [[k] for k in range(n)]
    merges = []
    avg = dist.copy()
    avg[np.tril_indices(n)] = np.inf
    for _ in range(n - 1):
        # argmin returns the first minimum in row-major order: smallest
        # distance, then smaller low index a, then smaller other low index b
        # -- exactly the documented merge tie-break.
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
    return _cut(tuple(labels), tuple(merges), tau_sem, tau_sem)


def vote_trajectory(
    member_votes: list[tuple[str, int]],
) -> tuple[str, dict[str, int]]:
    """Majority vote over (clustered identity, mask area) member pairs.

    One vote per member. Ties: larger summed area over the tied identity's
    supporting members, then lexicographically smallest surface form.
    """
    if not member_votes:
        raise ValueError("cannot vote on an empty trajectory")
    counts: dict[str, int] = {}
    areas: dict[str, int] = {}
    for identity, area in member_votes:
        counts[identity] = counts.get(identity, 0) + 1
        areas[identity] = areas.get(identity, 0) + area
    winner = min(counts, key=lambda c: (-counts[c], -areas[c], c))
    return winner, counts


@dataclass
class ConsensusRecord:
    """A trajectory's voted identity and the votes behind it."""

    track_id: int
    canonical: str
    votes: dict[str, int]
    members: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "track": self.track_id,
            "canonical": self.canonical,
            "votes": dict(sorted(self.votes.items())),
            "members": [[v, i] for v, i in self.members],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConsensusRecord":
        return cls(
            track_id=int(obj["track"]),
            canonical=str(obj["canonical"]),
            votes={str(k): int(v) for k, v in obj["votes"].items()},
            members=tuple((int(v), int(i)) for v, i in obj["members"]),
        )


@dataclass
class ConsensusResult:
    clustering: SynonymClustering
    records: list[ConsensusRecord] = field(default_factory=list)


def observed_labels(ds: SceneDataset) -> list[str]:
    """The distinct raw labels of the scene's detections, sorted: the set consensus clusters."""
    return sorted({det.raw_label for _, _, det in ds.all_detections()})


def run_consensus(
    ds: SceneDataset,
    trajectories: list[Trajectory],
    tau_sem: float = 0.85,
) -> ConsensusResult:
    """Cluster the scene's observed labels once, then vote every trajectory."""
    clustering = cluster_synonyms(observed_labels(ds), ds.embeddings, tau_sem)
    return ConsensusResult(clustering=clustering, records=vote_tracks(ds, trajectories, clustering))


def vote_tracks(
    ds: SceneDataset, trajectories: list[Trajectory], clustering: SynonymClustering
) -> list[ConsensusRecord]:
    """Each trajectory's vote over its members' identities under ``clustering``, in track order."""
    records = []
    for traj in sorted(trajectories, key=lambda t: t.track_id):
        member_votes = []
        for view, idx in traj.members:
            det = ds.detection(view, idx)
            _, identity = clustering.resolve(det.raw_label)
            member_votes.append((identity, mask_area(det.mask)))
        winner, counts = vote_trajectory(member_votes)
        records.append(
            ConsensusRecord(
                track_id=traj.track_id,
                canonical=winner,
                votes=counts,
                members=traj.members,
            )
        )
    return records


def propagate(ds: SceneDataset, records: list[ConsensusRecord]) -> SceneDataset:
    """Stamp each trajectory's winner onto all its member detections.

    Raw labels are preserved; applying twice is a no-op.
    """
    for rec in records:
        for view, idx in rec.members:
            ds.detection(view, idx).resolved_label = rec.canonical
    return ds


def save_consensus(records: list[ConsensusRecord], path: str | Path) -> None:
    write_jsonl((rec.to_json() for rec in records), path)


def load_consensus(path: str | Path, ds: SceneDataset | None = None) -> list[ConsensusRecord]:
    """Read a consensus file; against ``ds``, also check every member (``member_check``)."""
    check = member_check(ds)
    return read_jsonl(path, lambda obj: check(ConsensusRecord.from_json(obj)))
