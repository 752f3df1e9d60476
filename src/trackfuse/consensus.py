"""Label consensus: synonym clustering plus per-trajectory majority voting.

Labels are merged bottom-up by average-linkage agglomeration on the
cosine-distance matrix, stopping once the smallest inter-cluster average
distance exceeds ``1 - tau_sem``. Each cluster is named by its shortest
member surface form. Each trajectory then votes: every member detection
contributes one vote for its clustered identity, and the winner is the
label of every member detection (``ConsensusRecord.canonical``).

The merge sequence does not depend on the cutoff: each step merges the
global closest pair, and the cutoff only decides when to stop. So the
merges of a run at any smaller cutoff (higher ``tau_sem``) are a prefix of
the merges of a run at a larger one. ``cluster_synonyms`` keeps its merge
list, and ``SynonymClustering.at`` cuts it at any higher ``tau_sem``
without clustering again; a threshold sweep agglomerates once.

Determinism rules, needed so independent reference implementations can be
compared exactly:
  - a cluster-average distance is the exact sum of its member-pair
    distances rounded once to a float (the value ``math.fsum`` gives),
    divided by the pair count, so it does not depend on accumulation
    order. The sum is kept exactly in integers: every distance
    d = 1.0 - x is a multiple of 2**-53, since for x in [0.5, 2] the
    subtraction is exact (Sterbenz) and x is a multiple of its
    ulp >= 2**-53, and otherwise |d| >= 0.5. So d * 2**53 is an integer,
    of magnitude at most about 2**54 (|x| <= 1 + 3e-6 for unit vectors),
    held as hi * 2**26 + lo with 0 <= lo < 2**26 in two int64 matrices,
    and a merge adds rows in O(1) per pair (Lance & Williams 1967). hi
    stays below 2**53, where ``hi * 2.0**26 + lo`` rounds once, up to
    11 585 labels; ``cluster_synonyms`` refuses more than MAX_LABELS
    (11 000);
  - merge ties pick the pair with the smaller (lowest member index, other
    lowest member index);
  - vote ties pick the identity with the larger summed mask area, then
    the lexicographically smallest surface form.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import SchemaError
from .records import (
    LabelEmbedding,
    SceneDataset,
    Trajectory,
    check_member_views,
    dataset_key,
    json_members,
    kept,
    member_check,
    parse_lines,
    read_kept,
    set_frozen,
    write_jsonl,
)
from .rle import json_int, json_str, mask_area

logger = logging.getLogger(__name__)

# A distance sum is hi * 2**_SPLIT + lo ticks of _TICK, 0 <= lo < 2**_SPLIT.
_TICK = 2.0**-53
_SPLIT = 26
# |hi| is at most about 2**28 per member pair, and two clusters have at most
# n**2 / 4 member pairs: hi stays below 2**53 up to n = 11 585 labels.
MAX_LABELS = 11_000
# The similarity threshold of a run that does not set consensus.tau_sem.
DEFAULT_TAU_SEM = 0.85


def cosine_distance_matrix(embeddings: list[LabelEmbedding]) -> np.ndarray:
    """Pairwise 1 - cos(e_i, e_j); zero diagonal, exactly symmetric.

    Row i is one ``vecdot`` of the stacked vectors after i with vector i,
    which takes the same ``ddot`` as a per-pair ``np.dot``: the same bits.
    """
    n = len(embeddings)
    dims = {e.vector.shape for e in embeddings}
    if len(dims) > 1:
        raise SchemaError(f"embeddings have mixed dimensions: {sorted(dims)}")
    dist = np.zeros((n, n))
    if n:
        vecs = np.stack([e.vector for e in embeddings])
        for i in range(n - 1):
            dist[i, i + 1 :] = 1.0 - np.vecdot(vecs[i + 1 :], vecs[i])
        dist += dist.T
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

        Equal to ``cluster_synonyms(labels, ..., tau_sem)`` in every field. Below ``tau_floor``
        it raises ValueError: the agglomeration stopped before those merges.
        """
        check_tau_sem(tau_sem)
        if not tau_sem >= self.tau_floor:
            raise ValueError(
                f"tau_sem {tau_sem} is below {self.tau_floor}, the lowest this clustering was built to"
            )
        return _cut(self.labels, self.merges, tau_sem)

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


def _cut(labels: tuple[str, ...], merges: tuple[tuple[int, int, float], ...], tau_sem: float) -> SynonymClustering:
    """Replay ``merges`` up to the first whose height is above ``1 - tau_sem``; the clustering keeps
    the merges replayed, and ``tau_sem`` as its floor, as an agglomeration cut there would."""
    cutoff = 1.0 - tau_sem
    members = [[k] for k in range(len(labels))]
    done = 0
    for a, b, height in merges:
        if height > cutoff:
            break
        members[a] = sorted(members[a] + members[b])
        members[b] = []
        done += 1
    assignment: dict[str, int] = {}
    canonical: dict[int, str] = {}
    for out_idx, slot in enumerate(m for m in members if m):
        member_labels = [labels[i] for i in slot]
        canonical[out_idx] = canonical_form(member_labels)
        for lab in member_labels:
            assignment[lab] = out_idx
    return SynonymClustering(assignment, canonical, labels, merges[:done], tau_sem)


def cluster_synonyms(
    labels: list[str],
    embeddings: dict[str, LabelEmbedding],
    tau_sem: float,
) -> SynonymClustering:
    """Average-linkage agglomeration cut at distance 1 - tau_sem; ``at`` cuts it higher.

    The process keeps (``records.kept``) the agglomeration of the last label set, keyed by the
    labels and the sha256 of their vectors, built to the lowest ``tau_sem`` asked for. A call at
    or above that floor cuts it (``SynonymClustering.at``), which equals a fresh call in every
    field; a lower ``tau_sem`` agglomerates again. Each call's cut, and so its maps, is its own.
    """
    check_tau_sem(tau_sem)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    missing = [lab for lab in labels if lab not in embeddings]
    if missing:
        raise SchemaError(f"missing embeddings for labels: {missing}")
    if len(labels) > MAX_LABELS:
        raise ValueError(f"cluster_synonyms takes at most {MAX_LABELS} labels, got {len(labels)}")
    digest = hashlib.sha256()
    for lab in labels:
        vec = embeddings[lab].vector
        digest.update(f"{vec.dtype.str}{vec.shape}".encode())
        digest.update(vec.tobytes())
    return kept(
        "clustering",
        (tuple(labels), digest.digest()),
        lambda: _agglomerate(labels, embeddings, tau_sem),
        usable=lambda agglomeration: tau_sem >= agglomeration.tau_floor,
    ).at(tau_sem)


def _agglomerate(labels: list[str], embeddings: dict[str, LabelEmbedding], tau_sem: float) -> SynonymClustering:
    """``cluster_synonyms`` of checked arguments, computed."""
    n = len(labels)
    ticks = cosine_distance_matrix([embeddings[lab] for lab in labels])
    cutoff = 1.0 - tau_sem

    # Each distance is a whole number of ticks (module docstring); the
    # distance sum of slots a and b is (hi[a, b] * 2**26 + lo[a, b]) ticks,
    # kept exactly. Slot k holds the cluster whose lowest member index is k.
    # Scaling by 2**53 is exact, and the distances are freed once split, so
    # two n x n matrices are live at a time.
    ticks *= 2.0**53
    lo = ticks.astype(np.int64)
    np.fill_diagonal(ticks, np.inf)
    # Each row's first minimum and its column. The first row holding the
    # smallest minimum is the lowest slot a of the closest pairs, and its
    # column the lowest b: the documented merge tie-break.
    nearest = np.argmin(ticks, axis=1) if n else np.zeros(0, dtype=np.intp)
    row_min = ticks[np.arange(n), nearest] * _TICK
    del ticks
    hi = lo >> _SPLIT
    lo &= (1 << _SPLIT) - 1
    size = np.ones(n)
    live = np.ones(n, dtype=bool)
    # 0 at live slots, inf at merged-away ones: added to averages, it hides them
    dead = np.zeros(n)
    merges = []
    for _ in range(n - 1):
        a = int(row_min.argmin())
        b = int(nearest[a])
        height = float(row_min[a])
        if height > cutoff:
            break
        merges.append((a, b, height))
        hi[a] += hi[b]
        lo[a] += lo[b]
        hi[:, a] = hi[a]
        lo[:, a] = lo[a]
        size[a] += size[b]
        live[b] = False
        dead[b] = row_min[b] = np.inf
        row = (hi[a] * 2.0**_SPLIT + lo[a]) * _TICK / (size * size[a]) + dead
        row[a] = np.inf
        nearest[a] = row.argmin()
        row_min[a] = row[nearest[a]]
        # Only columns a (now the merged cluster) and b (now dead) changed: a
        # row takes a if it is now its first minimum, and a row whose minimum
        # was at a or b is searched again.
        closer = live & ((row < row_min) | ((row == row_min) & (a < nearest)))
        nearest[closer] = a
        row_min[closer] = row[closer]
        stale = live & ((nearest == a) | (nearest == b)) & ~closer
        stale[a] = False
        stale = stale.nonzero()[0]
        if stale.size:
            avg = (hi[stale] * 2.0**_SPLIT + lo[stale]) * _TICK / (size[stale, None] * size) + dead
            rows = np.arange(len(stale))
            avg[rows, stale] = np.inf
            nearest[stale] = avg.argmin(axis=1)
            row_min[stale] = avg[rows, nearest[stale]]
    return _cut(tuple(labels), tuple(merges), tau_sem)


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


@dataclass(frozen=True)
class ConsensusRecord:
    """A trajectory's voted identity, the label of each of its members, and the votes behind it."""

    track_id: int
    canonical: str
    votes: Mapping[str, int]
    members: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_member_views(self.track_id, self.members)
        set_frozen(self, votes=MappingProxyType(dict(self.votes)))

    def to_json(self) -> dict:
        return {
            "track": self.track_id,
            "canonical": self.canonical,
            "votes": dict(sorted(self.votes.items())),
            "members": [[v, i] for v, i in self.members],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConsensusRecord":
        """A record as ``vote_trajectory`` can write it: its votes count its members, each voted
        identity at least once, and its canonical identity is one of the most voted."""
        rec = cls(
            track_id=json_int(obj["track"], "track"),
            canonical=json_str(obj["canonical"], "canonical identity"),
            votes={json_str(k, "vote label"): json_int(v, f"votes[{k!r}]") for k, v in obj["votes"].items()},
            members=json_members(obj["members"]),
        )
        votes = dict(rec.votes)  # a dict, for the messages
        if not votes:
            raise SchemaError(f"track {rec.track_id}: votes are empty")
        if min(votes.values()) < 1:
            raise SchemaError(f"track {rec.track_id}: votes {votes} hold a count below 1")
        if sum(votes.values()) != len(rec.members):
            raise SchemaError(
                f"track {rec.track_id}: votes {votes} sum to {sum(votes.values())}, "
                f"but the track has {len(rec.members)} members"
            )
        if votes.get(rec.canonical) != max(votes.values()):
            raise SchemaError(
                f"track {rec.track_id}: canonical {rec.canonical!r} is not a most-voted identity of votes {votes}"
            )
        return rec


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
    tau_sem: float = DEFAULT_TAU_SEM,
) -> ConsensusResult:
    """Cluster the scene's observed labels once, then vote every trajectory."""
    clustering = cluster_synonyms(observed_labels(ds), ds.embeddings, tau_sem)
    return ConsensusResult(clustering=clustering, records=vote_tracks(ds, trajectories, clustering))


def vote_tracks(
    ds: SceneDataset, trajectories: list[Trajectory], clustering: SynonymClustering
) -> list[ConsensusRecord]:
    """Each trajectory's vote over its members' identities under ``clustering``, in track order.

    Anything with ``track_id`` and ``members`` votes: eval re-votes consensus records.
    """
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


def save_consensus(records: list[ConsensusRecord], path: str | Path) -> None:
    write_jsonl((rec.to_json() for rec in records), path)


def load_consensus(path: str | Path, ds: SceneDataset | None = None) -> tuple[ConsensusRecord, ...]:
    """Read a consensus file; against ``ds``, also check every member (``member_check``). Kept
    (``read_kept``)."""

    def parse(text: str) -> tuple[ConsensusRecord, ...]:
        check = member_check(ds)
        return tuple(parse_lines(path, text, lambda obj: check(ConsensusRecord.from_json(obj))))

    return read_kept("consensus", path, dataset_key(ds), parse)[0]
