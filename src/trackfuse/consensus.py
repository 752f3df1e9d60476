"""Label consensus: synonym clustering plus per-trajectory majority voting.

Labels are merged bottom-up by average-linkage agglomeration on the
cosine-distance matrix, stopping once the smallest inter-cluster average
distance exceeds ``1 - tau_sem``. Each cluster is named by its shortest
member surface form. Each trajectory then votes: every member detection
contributes one vote for its clustered identity, and the winner is
propagated to all member detections.

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


@dataclass
class SynonymClustering:
    """Label -> cluster assignment with per-cluster canonical surface forms."""

    assignment: dict[str, int]
    canonical: dict[int, str]

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


def cluster_synonyms(
    labels: list[str],
    embeddings: dict[str, LabelEmbedding],
    tau_sem: float,
) -> SynonymClustering:
    """Average-linkage agglomeration cut at distance 1 - tau_sem."""
    if not 0.0 < tau_sem < 1.0:
        raise ValueError(f"tau_sem must be in (0, 1), got {tau_sem}")
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
    avg = dist.copy()
    avg[np.tril_indices(n)] = np.inf
    for _ in range(n - 1):
        # argmin returns the first minimum in row-major order: smallest
        # distance, then smaller low index a, then smaller other low index b
        # -- exactly the documented merge tie-break.
        a, b = divmod(int(np.argmin(avg)), n)
        if avg[a, b] > cutoff:
            break
        members[a] = sorted(members[a] + members[b])
        members[b] = []
        avg[b, :] = avg[:, b] = np.inf
        for k in range(n):
            if k != a and members[k]:
                total = math.fsum(dist[i, j] for i in members[k] for j in members[a])
                avg[min(k, a), max(k, a)] = total / (len(members[k]) * len(members[a]))

    assignment: dict[str, int] = {}
    canonical: dict[int, str] = {}
    for out_idx, slot in enumerate(m for m in members if m):
        member_labels = [labels[i] for i in slot]
        canonical[out_idx] = canonical_form(member_labels)
        for lab in member_labels:
            assignment[lab] = out_idx
    return SynonymClustering(assignment=assignment, canonical=canonical)


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


def run_consensus(
    ds: SceneDataset,
    trajectories: list[Trajectory],
    tau_sem: float = 0.85,
) -> ConsensusResult:
    """Cluster the scene's observed labels once, then vote every trajectory."""
    observed = sorted({det.raw_label for _, _, det in ds.all_detections()})
    clustering = cluster_synonyms(observed, ds.embeddings, tau_sem)
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
    return ConsensusResult(clustering=clustering, records=records)


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
