"""Label consensus: synonym clustering plus per-trajectory majority voting.

Labels are merged bottom-up by average-linkage agglomeration on the
cosine-distance matrix; the clustering at ``tau_sem`` holds the merges
before the first whose height exceeds ``1 - tau_sem``. Each cluster is
named by its shortest member surface form. Each trajectory then votes:
every member detection contributes one vote for its clustered identity, and
the winner is the label of every member detection (``ConsensusRecord.canonical``).

Every track votes at once, from the dataset's columns (each detection's
index into its sorted raw labels ``ds.labels``, and its mask area, read
from the run counts) and a ``MemberTable`` built once per (dataset, tracks):
each member's detection and track rows. ``vote`` takes any number of
clusterings and votes them in one tally: each one's ``cluster`` array maps
the labels to clusters, numbered past the clusters of the ones before it,
``np.bincount`` sums the votes and areas of each (track, cluster) pair, and
one ``np.lexsort`` picks every track's winner under every clustering. The
one ``TrackVote`` it returns is what the ``consensus`` stage writes, what
eval checks the records with and scores (``metrics.consensus_accuracy``),
and, with every value's cut, what a ``tau_sem`` sweep scores. The
per-member loops are the references in ``tests/oracles.py``.

The merge sequence does not depend on the cutoff: each step merges the
global closest pair, and the cutoff only decides when to stop. So each label
set is agglomerated once, down to one cluster (the stepwise dendrogram,
Müllner 2011), into an (n - 1, 3) linkage array (scipy's layout without the
size column), and every ``tau_sem`` is a cut of it in a few array operations
(``_cut_linkage``); a threshold sweep agglomerates nothing.

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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import SchemaError
from .records import (
    LabelEmbedding,
    SceneDataset,
    check_member_views,
    dataset_key,
    json_members,
    kept,
    member_check,
    read_jsonl_kept,
    set_frozen,
    write_jsonl_kept,
)
from .rle import json_int, json_str

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


class _Tree(NamedTuple):
    """What every cut of one label set's linkage reads, built with it (``_grow``)."""

    parent: np.ndarray  # (n,) the slot each slot merged into; itself for slot 0, which none takes
    step: np.ndarray  # (n,) the merge that took each slot; n - 1 for slot 0
    peak: np.ndarray  # (n - 1,) the running maximum of the heights
    rank: np.ndarray  # (n,) each label's place in ``by_rank``
    by_rank: tuple[str, ...]  # the labels by (length, string): a cluster's name is its first


@dataclass(frozen=True, eq=False)
class SynonymClustering:
    """The clustering of ``labels`` at one ``tau_sem``, cut from their complete agglomeration.

    ``linkage`` holds all n - 1 merges of ``labels`` in order, one row each: slot a, slot b and
    height, where slot k holds the cluster whose lowest member index is k, and b (> a) merges
    into a. Every clustering of one label set shares it. ``cluster[k]`` is label k's cluster,
    numbered in order of the clusters' lowest members, and ``canonical[c]`` names cluster c. The
    arrays are read-only.
    """

    labels: tuple[str, ...]
    linkage: np.ndarray
    cluster: np.ndarray
    canonical: tuple[str, ...]
    tree: _Tree = field(repr=False)

    def at(self, tau_sem: float) -> "SynonymClustering":
        """The clustering at ``tau_sem``: equal to ``cluster_synonyms(labels, ..., tau_sem)``."""
        return _cut_linkage(self.labels, self.linkage, self.tree, tau_sem)


def _cut_linkage(labels: tuple[str, ...], linkage: np.ndarray, tree: _Tree, tau_sem: float) -> SynonymClustering:
    """The clustering of the merges before the first whose height is above ``1 - tau_sem``."""
    check_tau_sem(tau_sem)
    # those whose running maximum is not above the cutoff, even where heights are not monotone
    done = int(np.searchsorted(tree.peak, 1.0 - tau_sem, side="right"))
    slots = np.arange(len(labels))
    up = np.where(tree.step < done, tree.parent, slots)
    # follow each slot up to its cluster's lowest slot, doubling the jump on every pass
    jumped = up[up]
    while not (jumped == up).all():
        up, jumped = jumped, jumped[jumped]
    # clusters numbered in slot order: each slot's count of lowest slots up to it, less one
    lowest = up == slots
    cluster = (np.cumsum(lowest) - 1)[up]
    first = np.full(np.count_nonzero(lowest), len(labels))
    np.minimum.at(first, cluster, tree.rank)
    cluster.flags.writeable = False
    return SynonymClustering(labels, linkage, cluster, tuple(tree.by_rank[r] for r in first.tolist()), tree)


def cluster_synonyms(
    labels: list[str],
    embeddings: dict[str, LabelEmbedding],
    tau_sem: float,
) -> SynonymClustering:
    """Average-linkage agglomeration cut at distance 1 - tau_sem; ``at`` cuts it at any other.

    The process keeps (``records.kept``) the linkage of the last label set, keyed by the labels
    and the sha256 of their vectors, and every call, at any ``tau_sem``, cuts it.
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
    linkage, tree = kept("clustering", (tuple(labels), digest.digest()), lambda: _grow(labels, embeddings))
    return _cut_linkage(tuple(labels), linkage, tree, tau_sem)


def _grow(labels: list[str], embeddings: dict[str, LabelEmbedding]) -> tuple[np.ndarray, _Tree]:
    """The linkage of checked arguments (``_agglomerate``) and its ``_Tree``, all read-only."""
    n = len(labels)
    linkage = _agglomerate(labels, embeddings)
    parent = np.arange(n)
    step = np.full(n, n - 1)
    kept_slot, merged = linkage[:, :2].T.astype(np.intp)
    parent[merged] = kept_slot
    step[merged] = np.arange(n - 1)
    by_rank = sorted(range(n), key=lambda k: (len(labels[k]), labels[k]))
    rank = np.empty(n, dtype=np.intp)
    rank[by_rank] = np.arange(n)
    tree = _Tree(parent, step, np.maximum.accumulate(linkage[:, 2]), rank, tuple(labels[k] for k in by_rank))
    for arr in (linkage, *tree[:4]):
        arr.flags.writeable = False
    return linkage, tree


def _agglomerate(labels: list[str], embeddings: dict[str, LabelEmbedding]) -> np.ndarray:
    """The (n - 1, 3) linkage of checked arguments' agglomeration: every merge, in order.

    Each pair's distance sum is kept exactly in ticks (module docstring), in two n x n int64
    matrices, and a merge adds slot b's row into slot a's (the Lance-Williams update): the averages
    are those ``math.fsum`` over the member pairs gives, bit for bit. Each row's first minimum is
    cached, and a merge searches again only the rows whose minimum was at a merged slot; no average
    matrix is kept. At 5 000 labels that peaks at 423 MB RSS, where one ``argmin`` over a kept
    average matrix per merge took 93 s at 827 MB (2.6 s at 2 000 labels, 0.25 s at 800).
    """
    n = len(labels)
    ticks = cosine_distance_matrix([embeddings[lab] for lab in labels])

    # Slot k holds the cluster whose lowest member index is k. Scaling by
    # 2**53 is exact, and the distances are freed once split, so two n x n
    # matrices are live at a time.
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
    linkage = np.empty((max(n - 1, 0), 3))
    for k in range(n - 1):
        a = int(row_min.argmin())
        b = int(nearest[a])
        linkage[k] = a, b, row_min[a]
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
    return linkage


def _tally(track: np.ndarray, cluster: np.ndarray, area: np.ndarray, rank: np.ndarray, n_tracks: int):
    """Count each (track, cluster) pair's votes and pick each track's winner: most votes, then
    largest summed area, then lowest ``rank`` (of the cluster's name).

    Returns (pair track, pair cluster, pair votes), by track then cluster, and each track's
    winning cluster; ValueError if a track has no member.
    """
    width = int(cluster.max()) + 1 if cluster.size else 1
    pairs, inverse = np.unique(track * width + cluster, return_inverse=True)
    votes = np.bincount(inverse)
    # exact: the summed areas stay far below 2**53
    areas = np.bincount(inverse, weights=area)
    pair_track, pair_cluster = np.divmod(pairs, width)
    order = np.lexsort((rank[pair_cluster], -areas, -votes, pair_track))
    first = order[np.diff(pair_track[order], prepend=-1) != 0]
    if len(first) != n_tracks:
        raise ValueError("cannot vote on an empty trajectory")
    return pair_track, pair_cluster, votes, pair_cluster[first]


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
        """A record as ``vote`` can write it: its votes count its members, each voted identity at
        least once, and its canonical identity is one of the most voted."""
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


@dataclass(frozen=True)
class MemberTable:
    """A set of tracks' members as the arrays every vote reads with ``ds``'s ``label`` and ``area``
    columns: member row m is the m-th member of ``tracks``, which are in track order."""

    ds: SceneDataset
    tracks: tuple  # anything with ``track_id`` and ``members``, by track id (stable)
    det: np.ndarray  # (M,) each member's detection row
    track: np.ndarray  # (M,) each member's track row
    owner: np.ndarray  # (D,) each detection's track row, -1 for none; of two, the later one


def member_table(ds: SceneDataset, tracks) -> MemberTable:
    """The ``MemberTable`` of ``ds`` and ``tracks`` (anything with ``track_id`` and ``members``).

    The process keeps (``records.kept``) the table of one dataset and one set of tracks, keyed by
    the dataset's key and every track's id and members: the ``consensus`` stage, eval's re-vote of
    its records and a sweep of the same tracks share one. A dataset not read from files keeps none.
    """
    tracks = tuple(sorted(tracks, key=lambda t: t.track_id))
    key = None if ds.key is None else (ds.key, tuple((t.track_id, t.members) for t in tracks))
    return kept("members", key, lambda: _member_table(ds, tracks))


def _member_table(ds: SceneDataset, tracks: tuple) -> MemberTable:
    det = np.array([row for t in tracks for row in ds.rows(t)], dtype=np.intp)
    track = np.repeat(np.arange(len(tracks)), [len(t.members) for t in tracks])
    owner = np.full(len(ds.masks), -1)
    owner[det] = track
    for arr in (det, track, owner):
        arr.flags.writeable = False
    return MemberTable(ds, tracks, det, track, owner)


@dataclass(frozen=True)
class TrackVote:
    """Every track of a ``MemberTable`` voted under each of V clusterings (``vote``). Identities are
    positions in ``table.ds.labels``; the pairs and ``records`` are those of ``clustering``, the
    first."""

    table: MemberTable
    clustering: SynonymClustering
    identity: np.ndarray  # (V, labels) each label's clustered identity
    winner: np.ndarray  # (V, T) each track's voted identity
    pair_track: np.ndarray  # (P,) each (track, identity) pair voted for: its track row, by track then cluster
    pair_identity: np.ndarray  # (P,) its identity
    pair_votes: np.ndarray  # (P,) its votes

    @cached_property
    def records(self) -> list[ConsensusRecord]:
        """One record per track, in track order: its winner, its votes by identity, its members."""
        labels = self.table.ds.labels
        votes: list[dict[str, int]] = [{} for _ in self.table.tracks]
        for t, i, n in zip(self.pair_track.tolist(), self.pair_identity.tolist(), self.pair_votes.tolist()):
            votes[t][labels[i]] = n
        return [
            ConsensusRecord(track_id=t.track_id, canonical=labels[w], votes=v, members=t.members)
            for t, w, v in zip(self.table.tracks, self.winner[0].tolist(), votes)
        ]


def vote(table: MemberTable, clusterings: list[SynonymClustering]) -> TrackVote:
    """Every track's vote over its members' clustered identities, under each of ``clusterings``:
    one vote per member, ties to the larger summed mask area, then the lexicographically smallest
    surface form. Each clustering must be of the table's labels.

    All clusterings vote in one ``_tally``: track row t under clustering v is ``v * T + t``, and its
    cluster c is ``offset[v] + c``, each stacked cluster named by its position in the sorted
    ``table.ds.labels`` (its rank in the tie-break).
    """
    ds = table.ds
    for clustering in clusterings:
        if clustering.labels != ds.labels:
            raise ValueError(f"the clustering is not of the member table's {len(ds.labels)} labels")
    position = {lab: k for k, lab in enumerate(ds.labels)}
    name = np.array([position[n] for c in clusterings for n in c.canonical], dtype=np.intp)
    offset = np.cumsum([0] + [len(c.canonical) for c in clusterings[:-1]])
    label_cluster = np.stack([c.cluster for c in clusterings]) + offset[:, None]
    n = len(table.tracks)
    track = table.track + n * np.arange(len(clusterings))[:, None]
    cluster = label_cluster[:, ds.label[table.det]]
    area = np.tile(ds.area[table.det], len(clusterings))
    pair_track, pair_cluster, votes, winner = _tally(track.ravel(), cluster.ravel(), area, name, n * len(clusterings))
    # the first clustering's tracks are rows 0 .. T - 1, and its pairs come first
    first = pair_track < n
    return TrackVote(table, clusterings[0], name[label_cluster], name[winner].reshape(len(clusterings), n),
                     pair_track[first], name[pair_cluster[first]], votes[first])


def run_consensus(ds: SceneDataset, trajectories, tau_sem: float = DEFAULT_TAU_SEM) -> TrackVote:
    """Cluster the scene's observed labels once, then vote every trajectory (anything with
    ``track_id`` and ``members``: eval re-votes consensus records)."""
    return vote(member_table(ds, trajectories), [cluster_synonyms(list(ds.labels), ds.embeddings, tau_sem)])


def save_consensus(records: list[ConsensusRecord], path: str | Path, ds: SceneDataset | None = None) -> None:
    """Write a consensus file; with ``ds``, keep what ``load_consensus(path, ds)`` reads back
    (``write_kept``)."""
    objs = (rec.to_json() for rec in records)
    write_jsonl_kept("consensus", objs, path, None if ds is None else dataset_key(ds), lambda: _consensus_step(ds))


def load_consensus(path: str | Path, ds: SceneDataset | None = None) -> tuple[ConsensusRecord, ...]:
    """Read a consensus file; against ``ds``, also check every member (``member_check``). Kept
    (``read_kept``)."""
    return read_jsonl_kept("consensus", path, dataset_key(ds), lambda: _consensus_step(ds))


def _consensus_step(ds: SceneDataset | None):
    """A parse step for the lines of one consensus file, read against ``ds`` (``member_check``)."""
    check = member_check(ds)
    return lambda obj: check(ConsensusRecord.from_json(obj))
