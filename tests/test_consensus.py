import functools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse as tf
from trackfuse import consensus
from trackfuse.consensus import (
    MAX_LABELS,
    ConsensusRecord,
    cluster_synonyms,
    cosine_distance_matrix,
    member_table,
    run_consensus,
    vote,
)
from trackfuse.errors import SchemaError
from trackfuse.metrics import consensus_accuracy
from trackfuse.records import Detection, LabelEmbedding, SceneDataset, Trajectory, forget_kept
from trackfuse.rle import RleMask
from trackfuse.synth import GroundTruth, GtObject

from oracles import (
    clustering_fields,
    each_detection,
    oracle_cluster,
    oracle_consensus_accuracy,
    oracle_cut,
    oracle_distances,
    oracle_merges,
    oracle_vote,
    oracle_vote_tracks,
    partition_of,
    random_unit_vectors,
    vote_trajectory,
)


def embed(labels, vectors):
    return {lab: LabelEmbedding(lab, np.asarray(v, dtype=float)) for lab, v in zip(labels, vectors)}


@st.composite
def label_sets(draw):
    """Unit vectors in dims 1-1536 with repeated directions (exact distance ties).

    In some sets each vector's norm moves within the unit-norm tolerance, so
    two copies of a direction can have a dot above 1 and a negative distance.
    """
    n = draw(st.integers(0, 16))
    dim = draw(st.one_of(st.integers(1, 8), st.integers(9, 1536)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions = random_unit_vectors(rng, draw(st.integers(1, max(n, 1))), dim)
    vecs = directions[rng.integers(0, len(directions), size=n)]
    vecs = vecs + draw(st.sampled_from([0.0, 1e-3, 0.3])) * rng.standard_normal((n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs *= 1.0 + draw(st.sampled_from([0.0, 9e-7])) * rng.uniform(-1.0, 1.0, size=(n, 1))
    labels = [f"label{k}" for k in range(n)]
    return labels, embed(labels, vecs), draw(st.sampled_from([1e-3, 0.3, 0.85]))


# +-e_i and (e_i + e_j)/sqrt(2) in 4-D: exact distance ties, and opposite directions
_EYE = np.eye(4)
LATTICE = [s * _EYE[i] for i in range(4) for s in (1, -1)]
LATTICE += [(_EYE[i] + _EYE[j]) / np.sqrt(2) for i in range(4) for j in range(i + 1, 4)]


def hexed(merges):
    return [(int(a), int(b), float(height).hex()) for a, b, height in merges]


class TestDistanceMatrix:
    def test_identical_vectors(self):
        e = embed(["a", "b"], [[1, 0], [1, 0]])
        d = cosine_distance_matrix([e["a"], e["b"]])
        assert d[0, 1] == 0.0

    def test_orthogonal_vectors(self):
        e = embed(["a", "b"], [[1, 0], [0, 1]])
        d = cosine_distance_matrix([e["a"], e["b"]])
        assert d[0, 1] == 1.0

    def test_opposite_vectors(self):
        e = embed(["a", "b"], [[1, 0], [-1, 0]])
        d = cosine_distance_matrix([e["a"], e["b"]])
        assert d[0, 1] == 2.0

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(1)
        vecs = random_unit_vectors(rng, 5, 4)
        e = [LabelEmbedding(str(i), v) for i, v in enumerate(vecs)]
        d = cosine_distance_matrix(e)
        assert np.all(np.diag(d) == 0)
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 15, 16, 17, 32, 64, 100, 255, 256, 768, 1536])
    def test_matches_per_pair_dot_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        labels = [f"w{k}" for k in range(12)]
        embs = embed(labels, random_unit_vectors(rng, 12, dim))
        got = cosine_distance_matrix([embs[lab] for lab in labels])
        assert got.tobytes() == oracle_distances(labels, embs).tobytes()

    def test_every_distance_is_a_whole_number_of_ticks(self):
        # the premise of the integer cluster sums: 1.0 - x is a multiple of
        # 2**-53 for any dot x, below 0.5, in [0.5, 1] and above 1 (norms within
        # the unit-norm tolerance allow dots up to about 1 + 2e-6)
        rng = np.random.default_rng(53)
        dots = np.concatenate([
            rng.uniform(-1.0 - 3e-6, 0.5, 10_000),
            rng.uniform(0.5, 1.0, 10_000),
            rng.uniform(1.0, 1.0 + 3e-6, 10_000),
            rng.uniform(-1.0, 1.0, 10_000) * 2.0 ** rng.integers(-80, 0, 10_000),
            np.nextafter(np.array([0.5, 0.5, 1.0, 1.0, 2.0**-53, 0.0]), [0.0, 1.0, 0.0, 2.0, 0.0, 1.0]),
        ])
        ticks = (1.0 - dots) * 2.0**53
        assert np.array_equal(ticks, np.floor(ticks))
        assert np.abs(ticks).max() < 2.0**54 * (1 + 2e-6)

    def test_dimension_mismatch(self):
        e = [LabelEmbedding("a", np.array([1.0, 0.0])), LabelEmbedding("b", np.array([1.0, 0.0, 0.0]) / 1.0)]
        with pytest.raises(SchemaError, match="mixed"):
            cosine_distance_matrix(e)


class TestClusterSynonyms:
    def test_identical_embeddings_merge(self):
        e = embed(["ramen", "noodles"], [[1, 0], [1, 0]])
        c = cluster_synonyms(["ramen", "noodles"], e, 0.85)
        assert c.cluster.tolist() == [0, 0]

    def test_threshold_cut(self):
        # cos = 0.80 exactly
        e = embed(["a", "b"], [[1, 0], [0.8, 0.6]])
        high = cluster_synonyms(["a", "b"], e, 0.85)
        assert len(high.canonical) == 2
        low = cluster_synonyms(["a", "b"], e, 0.75)
        assert len(low.canonical) == 1

    def test_pair_at_the_cutoff_merges(self):
        # cos = 0.5 exactly: the pair's distance equals the cutoff at tau 0.5
        e = embed(["a", "b"], [[1, 0], [0.5, np.sqrt(0.75)]])
        lowest = cluster_synonyms(["a", "b"], e, 0.3)
        for at_cutoff in (cluster_synonyms(["a", "b"], e, 0.5), lowest.at(0.5)):
            assert len(at_cutoff.canonical) == 1
        assert len(lowest.at(float(np.nextafter(0.5, 1.0))).canonical) == 2

    def test_shortest_surface_form(self):
        e = embed(["coffee machine", "coffee maker"], [[1, 0], [1, 0]])
        c = cluster_synonyms(["coffee machine", "coffee maker"], e, 0.85)
        assert c.canonical[c.cluster[0]] == "coffee maker"

    def test_canonical_tie_lexicographic(self):
        e = embed(["mug", "cup"], [[1, 0], [1, 0]])
        assert cluster_synonyms(["mug", "cup"], e, 0.85).canonical == ("cup",)

    def test_invalid_threshold(self):
        e = embed(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="tau_sem"):
            cluster_synonyms(["a"], e, 1.0)
        for tau in (1.0, float("nan"), 0.0):
            with pytest.raises(ValueError, match=r"tau_sem must be in \(0, 1\)"):
                cluster_synonyms(["a"], e, 0.1).at(tau)

    def test_missing_embedding(self):
        with pytest.raises(SchemaError, match="missing"):
            cluster_synonyms(["a"], {}, 0.85)

    def test_duplicate_labels_rejected(self):
        e = embed(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="distinct"):
            cluster_synonyms(["a", "a"], e, 0.85)

    def test_matches_bruteforce_oracle(self):
        # each case is one label set and its taus, lowest first; every tau is
        # checked both clustered directly and cut (``at``) from the clustering
        # at the lowest, which also cuts lower
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(100):
            n = int(rng.integers(2, 13))
            vecs = random_unit_vectors(rng, n, 6)
            tau = float(rng.uniform(0.05, 0.95))
            cases.append((vecs, (tau, (1 + tau) / 2)))
        # LATTICE makes many distances tie exactly, so the merge tie-break
        # decides. tau 0.70/0.71 puts the cutoff 1 - tau either side of the
        # lattice distance 1 - 1/sqrt(2); tau 0.29/0.30 brackets cluster
        # averages from 0.70 to 0.71.
        for _ in range(40):
            n = int(rng.integers(2, 31))
            vecs = [LATTICE[k] for k in rng.integers(0, len(LATTICE), size=n)]
            cases.append((vecs, (0.29, 0.3, 0.7, 0.71)))
        cases.append(([], (0.85,)))
        for vecs, taus in cases:
            labels = [f"label{k}" for k in range(len(vecs))]
            embs = embed(labels, vecs)
            lowest = cluster_synonyms(labels, embs, taus[0])
            for tau in taus:
                want_partition, want_canonical = oracle_cluster(labels, embs, tau)
                for got in (cluster_synonyms(labels, embs, tau), lowest.at(tau)):
                    assert partition_of(got) == (want_partition, want_canonical)
            lower = float(np.nextafter(taus[0], 0.0))
            forget_kept()
            assert clustering_fields(lowest.at(lower)) == clustering_fields(cluster_synonyms(labels, embs, lower))
        assert (got.cluster.tolist(), got.canonical) == ([], ())  # the last case has no labels

    @given(label_sets())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_merges_match_fsum_oracle(self, case):
        # the merges a cut at tau holds: the linkage's first, one per cluster merged away
        labels, embs, tau = case
        got = cluster_synonyms(labels, embs, tau)
        want = oracle_merges(labels, embs, tau)
        assert hexed(got.linkage[: len(want)]) == hexed(want)
        assert len(labels) - len(got.canonical) == len(want)

    @given(label_sets())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_complete_merges_match_fsum_oracle(self, case):
        # down to one cluster, so heights above 1 (anti-correlated clusters) are checked too
        labels, embs, _ = case
        merges = consensus._agglomerate(labels, embs)
        assert len(merges) == max(len(labels) - 1, 0)
        assert hexed(merges) == hexed(oracle_merges(labels, embs, -math.inf))

    def test_complete_merges_of_lattice_ties_match_fsum_oracle(self):
        rng = np.random.default_rng(2025)
        above_one = 0
        for _ in range(40):
            n = int(rng.integers(2, 31))
            labels = [f"label{k}" for k in range(n)]
            embs = embed(labels, [LATTICE[k] for k in rng.integers(0, len(LATTICE), size=n)])
            merges = consensus._agglomerate(labels, embs)
            assert hexed(merges) == hexed(oracle_merges(labels, embs, -math.inf))
            above_one += merges[-1][2] > 1.0
        assert above_one  # some cases merge anti-correlated clusters last

    def test_merged_cluster_ties_a_rows_cached_minimum(self):
        # Row 0's first minimum, 0.75, is at slot 2. Slot 1 is one tick (2**-53)
        # farther from 0, and 0's distances to {3, 4, 5} sum to one tick less
        # than 3 * 0.75, so once 1 absorbs {3, 4, 5} its average with 0 is
        # exactly 0.75 too, at a lower column: (0, 1) must merge, not (0, 2).
        tick = 2.0**-53
        w = np.sqrt(1 - 0.25**2)
        vecs = [
            [1.0, 0, 0, 0],
            [0.25 - tick, w * np.cos(0.01), 0, w * np.sin(0.01)],
            [0.25, 0, w, 0],
            [0.25, w, 0, 0],
            [0.25, w, 0, 0],
            [0.25 + tick, np.sqrt(1 - (0.25 + tick) ** 2), 0, 0],
        ]
        labels = [f"w{k}" for k in range(6)]
        embs = embed(labels, vecs)
        merges = hexed(cluster_synonyms(labels, embs, 0.2).linkage[:4])
        assert merges == hexed(oracle_merges(labels, embs, 0.2))
        assert [m[:2] for m in merges] == [(3, 4), (3, 5), (1, 3), (0, 1)]
        assert merges[-1][2] == (0.75).hex()

    def test_label_count_bound(self, monkeypatch):
        # the worst-case hi sum of two clusters at MAX_LABELS stays below 2**53
        assert (MAX_LABELS**2 // 4) * (2 + 3e-6) * 2.0**27 < 2.0**53
        monkeypatch.setattr(consensus, "MAX_LABELS", 2)
        e = embed(["a", "b", "c"], [[1, 0], [0, 1], [1, 0]])
        with pytest.raises(ValueError, match="at most 2 labels, got 3"):
            cluster_synonyms(["a", "b", "c"], e, 0.85)

    def test_monotone_cluster_count_in_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            labels = [f"w{k}" for k in range(n)]
            embs = embed(labels, random_unit_vectors(rng, n, 5))
            counts = [
                len(cluster_synonyms(labels, embs, tau).canonical)
                for tau in (0.5, 0.6, 0.7, 0.8, 0.9)
            ]
            assert counts == sorted(counts)


class TestApplyPhi:
    def test_singleton_identity(self):
        e = embed(["pot"], [[1.0, 0.0]])
        c = cluster_synonyms(["pot"], e, 0.85)
        assert (c.cluster.tolist(), c.canonical) == ([0], ("pot",))

    def test_merged_labels_share_identity(self):
        e = embed(["ramen", "ramen bowl"], [[1, 0], [1, 0]])
        c = cluster_synonyms(["ramen", "ramen bowl"], e, 0.85)
        assert [c.canonical[k] for k in c.cluster] == ["ramen", "ramen"]

    def test_clustering_is_frozen_and_read_only(self):
        e = embed(["a", "b", "c"], [[1, 0], [0, 1], [1, 0]])
        c = cluster_synonyms(["a", "b", "c"], e, 0.85)
        with pytest.raises(FrozenInstanceError):
            c.canonical = ("x",)
        for arr in (c.linkage, c.cluster):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestCutMatchesReplay:
    """Every cut of the linkage against ``oracle_cut``, the merges replayed in Python."""

    @staticmethod
    def check(labels, embs):
        clustering = cluster_synonyms(labels, embs, 0.5)
        heights = clustering.linkage[:, 2]
        # each merge height as a cutoff, one step either side of it, and the extremes
        taus = [5e-324, 0.5, float(np.nextafter(1.0, 0.0))]
        for tau in (1.0 - heights).tolist():
            taus += [tau, float(np.nextafter(tau, 0.0)), float(np.nextafter(tau, 1.0))]
        merges = [tuple(m) for m in clustering.linkage.tolist()]
        for tau in [t for t in taus if 0.0 < t < 1.0]:
            assignment, canonical, done = oracle_cut(labels, merges, tau)
            for got in (cluster_synonyms(labels, embs, tau), clustering.at(tau)):
                assert dict(zip(labels, got.cluster.tolist())) == assignment
                assert dict(enumerate(got.canonical)) == canonical
                assert len(labels) - len(got.canonical) == done
        return heights

    @given(label_sets())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_label_sets(self, case):
        labels, embs, _ = case
        self.check(labels, embs)

    def test_lattice_with_negated_vectors(self):
        rng = np.random.default_rng(2026)
        above_one = 0
        for n in [0, 1, *rng.integers(2, 31, size=40)]:
            labels = [f"label{k}" for k in range(n)]
            signs = rng.choice([-1.0, 1.0], size=n)
            vecs = [s * LATTICE[k] for s, k in zip(signs, rng.integers(0, len(LATTICE), size=n))]
            above_one += bool((self.check(labels, embed(labels, vecs)) > 1.0).any())
        assert above_one  # heights above 1: no tau in (0, 1) cuts those merges


class TestVote:
    def test_single_member(self):
        assert vote_trajectory([("pot", 10)])[0] == "pot"

    def test_plurality_winner(self):
        votes = [("ramen", 5)] * 3 + [("bowl", 5)] * 2 + [("food", 5)]
        winner, counts = vote_trajectory(votes)
        assert winner == "ramen"
        assert counts == {"ramen": 3, "bowl": 2, "food": 1}

    def test_tie_broken_by_area(self):
        votes = [("cup", 400), ("cup", 500), ("mug", 150), ("mug", 250)]
        assert vote_trajectory(votes)[0] == "cup"

    def test_tie_broken_lexicographically_when_areas_equal(self):
        votes = [("cup", 100), ("mug", 100)]
        assert vote_trajectory(votes)[0] == "cup"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vote_trajectory([])

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "dd"]), st.integers(0, 1000)),
            min_size=1,
            max_size=50,
        ),
        st.randoms(),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant_and_matches_oracle(self, votes, rnd):
        winner, counts = vote_trajectory(votes)
        shuffled = list(votes)
        rnd.shuffle(shuffled)
        assert vote_trajectory(shuffled) == (winner, counts)
        assert (winner, counts) == oracle_vote(votes)

    @given(
        st.integers(1, 20),
        st.lists(st.sampled_from(["b", "c", "d"]), max_size=15),
        st.randoms(),
    )
    @settings(max_examples=200, deadline=None)
    def test_majority_recovery(self, n_major, minority, rnd):
        if len(minority) >= n_major:
            minority = minority[: n_major - 1]
        votes = [("a", 1)] * n_major + [(m, 10**6) for m in minority]
        rnd.shuffle(votes)
        assert vote_trajectory(votes)[0] == "a"


# "ab" sorts before "b" but is longer: a vote tie between them is decided by the name, not its length
NAMES = ("ab", "b", "cup", "mug", "zz")
SIDE = 4


def member_scene(views, tracks, groups, objects, match):
    """A scene of 4x4 detections and what it is voted and scored with.

    ``views[v]`` lists view v's detections as (raw label, mask area); ``tracks`` maps a track id to
    its (view, index) members; ``groups`` are the clustering's label groups (a label in none is a
    group of its own); ``objects`` are the ground-truth identities, with object ids 0, 1, ...; and
    ``match`` maps a (view, index) detection to its object. The clustering is the observed labels'
    at tau_sem 0.5, where each group's labels share a basis vector and other labels have their own.
    """
    def mask(area):
        return RleMask(SIDE, SIDE, (SIDE * SIDE - area, area) if area else (SIDE * SIDE,))

    direction = {lab: len(groups) + k for k, lab in enumerate(NAMES)}
    direction |= {lab: k for k, group in enumerate(groups) for lab in group}
    dim = len(groups) + len(NAMES)
    ds = SceneDataset(
        len(views), SIDE, SIDE, dim,
        [[Detection(v, mask(area), label, 1.0) for label, area in per_view] for v, per_view in enumerate(views)],
        embed(NAMES, np.eye(dim)[[direction[lab] for lab in NAMES]]),
    )
    trajectories = [Trajectory(tid, tuple(members)) for tid, members in tracks.items() if members]
    clustering = cluster_synonyms(list(ds.labels), ds.embeddings, 0.5)
    full = mask(SIDE * SIDE)
    gt = GroundTruth([
        GtObject(oid, identity, [full] * len(views), [True] * len(views), [(0.0, 0.0)] * len(views), (1.0, 1.0),
                 "ellipse")
        for oid, identity in enumerate(objects)
    ])
    return ds, trajectories, clustering, gt, dict(match)


def check_against_oracles(ds, trajectories, clustering, gt, mapping):
    """The array vote gives the oracle's records, and its accuracy the oracle's accuracy of those
    records; returns the vote's records."""
    want = oracle_vote_tracks(ds, trajectories, clustering)
    result = vote(member_table(ds, trajectories), [clustering])
    records = result.records
    assert [(r.track_id, r.canonical, dict(r.votes), r.members) for r in records] == [
        (r.track_id, r.canonical, dict(r.votes), r.members) for r in want
    ]
    # each row's object: member_scene's object ids are their positions
    matched = np.array([mapping.get((v, i), -1) for v, i, _ in each_detection(ds)], dtype=np.intp)
    if not mapping:
        with pytest.raises(SchemaError, match="no detections matched"):
            consensus_accuracy(result, gt, matched)
        return records
    want_acc = oracle_consensus_accuracy(ds, want, gt, clustering, mapping)
    assert consensus_accuracy(result, gt, matched) == [want_acc]
    return records


@st.composite
def member_scenes(draw):
    views = [
        draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from((0, 1, 2, SIDE * SIDE))), max_size=4))
        for _ in range(draw(st.integers(1, 4)))
    ]
    # track ids out of creation order; a track takes at most one detection per view, and a
    # detection drawn a None slot is in no track
    track_ids = draw(st.permutations(range(10, 15)))[: draw(st.integers(0, 5))]
    tracks = {tid: [] for tid in track_ids}
    for v, per_view in enumerate(views):
        slots = draw(st.permutations(list(track_ids) + [None] * len(per_view)))
        for idx, tid in enumerate(slots[: len(per_view)]):
            if tid is not None:
                tracks[tid].append((v, idx))
    # each name's group; a name of group -1 is a group of its own
    group_of = draw(st.lists(st.integers(-1, 2), min_size=len(NAMES), max_size=len(NAMES)))
    groups = [g for g in ([n for n, k in zip(NAMES, group_of) if k == g] for g in range(3)) if g]
    objects = draw(st.lists(st.sampled_from(NAMES + ("other",)), min_size=1, max_size=3))
    match = {}
    for v, per_view in enumerate(views):
        for idx in range(len(per_view)):
            k = draw(st.none() | st.integers(0, len(objects) - 1))
            if k is not None:
                match[(v, idx)] = k
    return member_scene(views, tracks, groups, objects, match)


@functools.cache
def cut_scene(seed):
    """A noisy 5-view scene, its tracks, and a tau_sem for each cut of its labels' agglomeration,
    from nothing merged to everything: each gives another cluster count."""
    cfg = tf.SynthConfig(n_views=5, n_objects=4, height=32, width=32, seed=seed,
                         noise=tf.NoiseSpec(synonym_rate=0.5, wrong_label_rate=0.2, mask_jitter=1))
    ds, gt = tf.generate_scene(cfg)
    noisy = tf.corrupt(ds, gt, cfg)
    peaks = cluster_synonyms(list(noisy.labels), noisy.embeddings, 0.5).tree.peak.tolist()
    cuts = sorted({float(np.clip(1.0 - h - 1e-6, 1e-3, 1.0 - 1e-3)) for h in [0.0, *peaks]})
    return noisy, tuple(tf.import_tracks(noisy)), cuts


class TestMemberTableVote:
    """``vote`` over a ``member_table`` and ``consensus_accuracy`` against the per-member loops."""

    @given(member_scenes())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_member_oracles(self, scene):
        check_against_oracles(*scene)

    @pytest.mark.parametrize("views, tracks, groups, objects, match, winners", [
        pytest.param(  # two votes each: "cup" wins on summed area, 5 + 4 against 3 + 5
            [[("cup", 5)], [("mug", 3)], [("cup", 4)], [("mug", 5)]], {1: [(0, 0), (1, 0), (2, 0), (3, 0)]},
            [["cup"], ["mug"]], ["mug"], {(0, 0): 0, (1, 0): 0, (2, 0): 0, (3, 0): 0}, ["cup"],
            id="count-tie-broken-by-area"),
        pytest.param(  # votes and areas tie: "ab" sorts before "b", though it is longer
            [[("b", 6)], [("ab", 6)]], {3: [(0, 0), (1, 0)]},
            [["ab"], ["b"]], ["b"], {(0, 0): 0, (1, 0): 0}, ["ab"],
            id="count-and-area-tie-broken-by-name"),
        pytest.param(
            [[("cup", 2), ("mug", 9)]], {7: [(0, 0)], 2: [(0, 1)]},
            [["cup", "mug"]], ["cup"], {(0, 0): 0, (0, 1): 0}, ["cup", "cup"],
            id="one-member-tracks"),
        pytest.param(  # detection (0, 1) is matched but in no track: a per-view hit, never a consensus one
            [[("cup", 2), ("cup", 3)], [("mug", 1)]], {4: [(0, 0), (1, 0)]},
            [["cup"], ["mug"]], ["cup"], {(0, 0): 0, (0, 1): 0, (1, 0): 0}, ["cup"],
            id="detection-in-no-track"),
        pytest.param(  # "zz" is in no group: it votes, and is scored, as a singleton
            [[("zz", 4), ("zz", 1)], [("zz", 2)], [("cup", 8)]], {5: [(0, 0), (1, 0), (2, 0)], 6: [(0, 1)]},
            [["cup", "mug"]], ["zz"], {(0, 0): 0, (0, 1): 0, (2, 0): 0}, ["zz", "zz"],
            id="label-in-no-group"),
    ])
    def test_case(self, views, tracks, groups, objects, match, winners):
        ds, trajectories, clustering, gt, mapping = member_scene(views, tracks, groups, objects, match)
        records = check_against_oracles(ds, trajectories, clustering, gt, mapping)
        assert [r.canonical for r in records] == winners

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_each_row_is_the_vote_of_its_clustering_alone(self, data):
        """Row v of one vote of many clusterings is the vote of clustering v alone: each label's and
        each track's identity, and, with v first, the records. The values are unsorted and may repeat,
        and their cuts have different cluster counts, so a clustering whose clusters were numbered
        from 0 again would read another clustering's names."""
        ds, tracks, cuts = cut_scene(data.draw(st.integers(0, 5)))
        tracks = data.draw(st.lists(st.sampled_from(tracks), unique_by=lambda t: t.track_id))
        agglomeration = cluster_synonyms(list(ds.labels), ds.embeddings, 0.5)
        values = data.draw(st.lists(st.sampled_from(cuts), min_size=2, max_size=6).filter(
            lambda vs: len({len(agglomeration.at(v).canonical) for v in vs}) > 1))
        clusterings = [agglomeration.at(value) for value in values]
        table = member_table(ds, tracks)
        many = vote(table, clusterings)
        assert many.identity.shape == (len(values), len(ds.labels))
        assert many.winner.shape == (len(values), len(tracks))
        for v, clustering in enumerate(clusterings):
            alone = vote(table, [clustering])
            assert many.identity[v].tolist() == alone.identity[0].tolist()
            assert many.winner[v].tolist() == alone.winner[0].tolist()
            assert vote(table, clusterings[v:] + clusterings[:v]).records == alone.records

    def test_clustering_of_other_labels_rejected(self):
        ds, trajectories, clustering, _, _ = member_scene(
            [[("cup", 3), ("mug", 2)]], {1: [(0, 0)], 2: [(0, 1)]}, [["cup", "mug"]], ["cup"], {(0, 0): 0}
        )
        table = member_table(ds, trajectories)
        for labels in (["cup"], ["cup", "mug", "zz"], ["mug", "cup"]):
            other = cluster_synonyms(labels, ds.embeddings, 0.5)
            for clusterings in ([other], [clustering, other]):
                with pytest.raises(ValueError, match="not of the member table's 2 labels"):
                    vote(table, clusterings)

    def test_empty_track_rejected(self, clean_scene):
        ds, _, trajectories = clean_scene
        result = run_consensus(ds, trajectories)
        with pytest.raises(ValueError, match="empty trajectory"):
            vote(member_table(ds, [*result.records, ConsensusRecord(99, "x", {}, ())]), [result.clustering])


class TestRunConsensus:
    def test_raw_labels_preserved(self, noisy_scene):
        ds, _ = noisy_scene
        before = [det.raw_label for _, _, det in each_detection(ds)]
        run_consensus(ds, tf.import_tracks(ds))
        assert [det.raw_label for _, _, det in each_detection(ds)] == before
