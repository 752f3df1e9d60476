import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse as tf
from trackfuse import consensus
from trackfuse.consensus import (
    MAX_LABELS,
    SynonymClustering,
    canonical_form,
    cluster_synonyms,
    cosine_distance_matrix,
    run_consensus,
    vote_trajectory,
)
from trackfuse.errors import SchemaError
from trackfuse.records import LabelEmbedding

from oracles import oracle_cluster, oracle_distances, oracle_merges, oracle_vote, random_unit_vectors


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


def hexed(merges):
    return [(a, b, height.hex()) for a, b, height in merges]


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
        assert c.assignment["ramen"] == c.assignment["noodles"]

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
        assert c.canonical[c.assignment["coffee machine"]] == "coffee maker"

    def test_canonical_tie_lexicographic(self):
        assert canonical_form(["mug", "cup"]) == "cup"

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
        # built at the lowest
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(100):
            n = int(rng.integers(2, 13))
            vecs = random_unit_vectors(rng, n, 6)
            tau = float(rng.uniform(0.05, 0.95))
            cases.append((vecs, (tau, (1 + tau) / 2)))
        # Lattice vectors (+-e_i and (e_i + e_j)/sqrt(2) in 4-D) make many
        # distances tie exactly, so the merge tie-break decides. tau 0.70/0.71
        # puts the cutoff 1 - tau either side of the lattice distance
        # 1 - 1/sqrt(2); tau 0.29/0.30 brackets cluster averages from 0.70 to 0.71.
        eye = np.eye(4)
        lattice = [s * eye[i] for i in range(4) for s in (1, -1)]
        lattice += [(eye[i] + eye[j]) / np.sqrt(2) for i in range(4) for j in range(i + 1, 4)]
        for _ in range(40):
            n = int(rng.integers(2, 31))
            vecs = [lattice[k] for k in rng.integers(0, len(lattice), size=n)]
            cases.append((vecs, (0.29, 0.3, 0.7, 0.71)))
        cases.append(([], (0.85,)))
        for vecs, taus in cases:
            labels = [f"label{k}" for k in range(len(vecs))]
            embs = embed(labels, vecs)
            lowest = cluster_synonyms(labels, embs, taus[0])
            for tau in taus:
                want_partition, want_canonical = oracle_cluster(labels, embs, tau)
                for got in (cluster_synonyms(labels, embs, tau), lowest.at(tau)):
                    partition = {}
                    for lab, idx in got.assignment.items():
                        partition.setdefault(idx, set()).add(lab)
                    got_partition = frozenset(frozenset(v) for v in partition.values())
                    got_canonical = {lab: got.canonical[idx] for lab, idx in got.assignment.items()}
                    assert got_partition == want_partition
                    assert got_canonical == want_canonical
            # the agglomeration stopped before the merges a lower tau would need
            with pytest.raises(ValueError, match="below"):
                lowest.at(float(np.nextafter(taus[0], 0.0)))
        assert (got.assignment, got.canonical) == ({}, {})  # the last case has no labels

    @given(label_sets())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_merges_match_fsum_oracle(self, case):
        labels, embs, tau = case
        assert hexed(cluster_synonyms(labels, embs, tau).merges) == hexed(oracle_merges(labels, embs, tau))

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
        merges = cluster_synonyms(labels, embs, 0.2).merges
        assert merges == oracle_merges(labels, embs, 0.2)
        assert [m[:2] for m in merges] == [(3, 4), (3, 5), (1, 3), (0, 1)]
        assert merges[-1][2] == 0.75

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
        assert c.resolve("pot") == (0, "pot")

    def test_merged_labels_share_identity(self):
        e = embed(["ramen", "ramen bowl"], [[1, 0], [1, 0]])
        c = cluster_synonyms(["ramen", "ramen bowl"], e, 0.85)
        assert c.resolve("ramen")[1] == "ramen"
        assert c.resolve("ramen bowl")[1] == "ramen"

    def test_unseen_label_becomes_singleton(self, caplog):
        c = SynonymClustering(assignment={"cup": 0}, canonical={0: "cup"})
        with caplog.at_level(logging.WARNING):
            idx, name = c.resolve("zebra")
        assert name == "zebra"
        assert idx != 0
        assert "zebra" in caplog.text
        # second resolution is stable and does not warn again
        assert c.resolve("zebra") == (idx, "zebra")
        assert [r.getMessage() for r in caplog.records].count(
            "label 'zebra' not in clustered set; treating as singleton"
        ) == 1


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


class TestRunConsensus:
    def test_raw_labels_preserved(self, noisy_scene):
        ds, _ = noisy_scene
        before = [det.raw_label for _, _, det in ds.all_detections()]
        run_consensus(ds, tf.import_tracks(ds))
        assert [det.raw_label for _, _, det in ds.all_detections()] == before
