import functools
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse as tf
import trackfuse.metrics as metrics_module
from trackfuse.errors import SchemaError
from trackfuse.metrics import (
    consensus_accuracy,
    detection_ious,
    emit_report,
    eval_miou,
    eval_queries,
    iou_by_view,
    iou_grids,
    match_tracks_to_objects,
    matched_objects,
    miou,
    query_means,
    tau_sem_rows,
)
from trackfuse.consensus import ConsensusRecord, member_table
from trackfuse.field import ToyReferringField, field_from_ground_truth
from trackfuse.keyframes import run_keyframes
from trackfuse.records import DescriptionSet, Detection, SceneDataset, config_hash, read_json, text_embedding
from trackfuse.synth import GroundTruth, GtObject

from oracles import (
    category_grids,
    detections_of,
    each_detection,
    object_grids,
    oracle_eval_miou,
    oracle_match_detections,
    oracle_match_tracks,
    oracle_tau_sem_row,
    render_grids,
    short_query_union,
)


def grids(*rows_list):
    return [np.asarray(rows, dtype=bool) for rows in rows_list]


def accuracy(ds, gt, result):
    [acc] = consensus_accuracy(result, gt, matched_objects(detection_ious(ds, gt)))
    return acc


class TestMiou:
    def test_perfect_predictions(self):
        g = np.ones((2, 2), dtype=bool)
        per_query, overall = miou({"q": {0: g}}, {"q": {0: g}})
        assert per_query == {"q": 1.0}
        assert overall == 1.0

    def test_disjoint_predictions(self):
        a, b = grids([[1, 0], [0, 0]], [[0, 0], [0, 1]])
        _, overall = miou({"q": {0: a}}, {"q": {0: b}})
        assert overall == 0.0

    def test_two_query_fixture_is_half(self):
        full = np.ones((1, 2), dtype=bool)
        empty = np.zeros((1, 2), dtype=bool)
        half_a, half_b = grids([[1, 0]], [[1, 1]])  # IoU 0.5
        preds = {"q1": {0: full, 1: full}, "q2": {0: half_a}}
        gts = {"q1": {0: full, 1: empty}, "q2": {0: half_b}}
        per_query, overall = miou(preds, gts)
        assert per_query["q1"] == pytest.approx(0.5)
        assert per_query["q2"] == pytest.approx(0.5)
        assert overall == pytest.approx(0.5)

    def test_probability_grids_binarized(self):
        gt = np.array([[True, False]])
        probs = np.array([[0.9, 0.2]])
        _, overall = miou({"q": {0: probs}}, {"q": {0: gt}})
        assert overall == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        preds = {
            q: {v: rng.random((4, 4)) for v in range(3)} for q in ("a", "b", "c")
        }
        gts = {q: {v: rng.random((4, 4)) > 0.5 for v in range(3)} for q in ("a", "b", "c")}
        _, o1 = miou(preds, gts)
        shuffled_preds = {q: dict(reversed(list(vs.items()))) for q, vs in reversed(list(preds.items()))}
        _, o2 = miou(shuffled_preds, gts)
        assert o1 == o2

    def test_missing_gt_rejected(self):
        g = np.ones((1, 1), dtype=bool)
        with pytest.raises(SchemaError, match="missing ground truth"):
            miou({"q": {0: g}}, {})


class TestShortQueryUnion:
    def _gt(self):
        cfg = tf.SynthConfig(n_views=2, n_objects=3, seed=2)
        _, gt = tf.generate_scene(cfg)
        return gt

    def test_single_instance_is_its_mask(self):
        gt = self._gt()
        obj = gt.objects[0]
        union = short_query_union(gt, obj.identity, 0)
        assert np.array_equal(union, tf.rle_decode(obj.masks[0]))

    def test_unknown_category_rejected(self):
        gt = self._gt()
        with pytest.raises(SchemaError, match="unknown category"):
            short_query_union(gt, "zeppelin", 0)

    def test_disjoint_instances_add(self):
        gt = self._gt()
        a, b = gt.objects[0], replace(gt.objects[1], identity=gt.objects[0].identity)
        gt = replace(gt, objects=(a, b, *gt.objects[2:]))
        ga = tf.rle_decode(a.masks[0])
        gb = tf.rle_decode(b.masks[0])
        union = short_query_union(gt, a.identity, 0)
        overlap = int(np.count_nonzero(ga & gb))
        assert int(np.count_nonzero(union)) == int(np.count_nonzero(ga)) + int(
            np.count_nonzero(gb)
        ) - overlap


class TestConsensusAccuracy:
    def test_zero_noise_is_perfect(self):
        cfg = tf.SynthConfig(n_views=5, n_objects=3, seed=2)
        ds, gt = tf.generate_scene(cfg)
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        acc = accuracy(ds, gt, result)
        assert acc == {"per_view_acc": 1.0, "tscm_acc": 1.0}

    def test_randomized_labels_match_uniform_baseline(self):
        # replace every label with a uniform group's canonical: per-view
        # accuracy should be close to 1/G
        rng = np.random.default_rng(0)
        cfg = tf.SynthConfig(n_views=400, height=24, width=24, n_objects=8, seed=3)
        ds, gt = tf.generate_scene(cfg)
        groups = [g.canonical for g in cfg.vocabulary]
        ds = replace(ds, detections=[
            [replace(det, raw_label=groups[int(rng.integers(0, len(groups)))]) for det in per_view]
            for per_view in detections_of(ds)
        ])
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        acc = accuracy(ds, gt, result)
        assert abs(acc["per_view_acc"] - 1 / len(groups)) < 0.03

    def test_majority_recovery_beats_per_view(self, noisy_scene):
        ds, gt = noisy_scene
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        acc = accuracy(ds, gt, result)
        assert acc["tscm_acc"] >= acc["per_view_acc"]

    def test_track_object_matching(self):
        cfg = tf.SynthConfig(n_views=4, n_objects=3, seed=6)
        ds, gt = tf.generate_scene(cfg)
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        mapping = match_tracks_to_objects(result.table, gt, detection_ious(ds, gt))
        assert [o.object_id for o in gt.objects] == [0, 1, 2]  # positions and ids agree
        assert mapping == {0: 0, 1: 1, 2: 2}


@functools.cache
def swept_scene():
    """A noisy scene whose voted accuracy moves with ``tau_sem``: its objects broken into short
    tracks, the member table of every other track (so matched detections of an object are in no
    track, and others of it are), the agglomeration of the table's labels, each row's matched
    object (``matched_objects``) and the oracle's (view, index) matching."""
    noise = tf.NoiseSpec(synonym_rate=0.5, wrong_label_rate=0.3, dropout_rate=0.3, mask_jitter=1,
                         strip_track_ids=True)
    cfg = tf.SynthConfig(n_views=8, n_objects=4, seed=2, noise=noise)
    ds, gt = tf.generate_scene(cfg)
    noisy = tf.corrupt(ds, gt, cfg)
    table = member_table(noisy, tf.associate_greedy(noisy, tf.AssocParams(max_gap=0))[::2])
    agglomeration = tf.cluster_synonyms(list(noisy.labels), noisy.embeddings, 0.5)
    matched = matched_objects(detection_ious(noisy, gt))
    assert (table.owner == -1).any() and len(table.tracks) > len(gt.objects)
    return noisy, gt, table, agglomeration, matched, oracle_match_detections(noisy, gt)


class TestTauSemRows:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_per_value_oracle(self, data):
        ds, gt, table, agglomeration, matched, mapping = swept_scene()
        # a cut exactly at a merge height, or anywhere in (0, 1)
        cuts = [float(c) for c in 1.0 - agglomeration.linkage[:, 2] if 0.0 < c < 1.0]
        value = st.sampled_from(cuts) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        pool = data.draw(st.lists(value, min_size=1, max_size=6))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))  # unsorted, with repeats
        rows = tau_sem_rows(table, agglomeration, values, gt, matched)
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            assert row == oracle_tau_sem_row(ds, table, agglomeration, value, gt, mapping)
        # without a matching, only the cluster counts
        assert tau_sem_rows(table, agglomeration, values) == [
            oracle_tau_sem_row(ds, table, agglomeration, value) for value in values
        ]


def hand_scene(detections, objects):
    """A scene built from 0/1 grids: detections[view] lists detection grids,
    objects lists (object_id, one grid per view)."""
    h, w = np.asarray(objects[0][1][0]).shape
    n_views = len(detections)
    ds = SceneDataset(
        n_views, h, w, 2,
        [[Detection(v, tf.rle_encode(np.asarray(g, dtype=bool)), "x", 1.0) for g in per_view]
         for v, per_view in enumerate(detections)],
        {},
    )
    gt = GroundTruth([
        GtObject(oid, f"c{oid}", [tf.rle_encode(np.asarray(g, dtype=bool)) for g in grids_],
                 [True] * n_views, [(0.0, 0.0)] * n_views, (1.0, 1.0), "ellipse")
        for oid, grids_ in objects
    ])
    return ds, gt


def one_track_per_detection(ds):
    return [ConsensusRecord(t, "x", {}, ((v, i),)) for t, (v, i, _) in enumerate(each_detection(ds))]


def matchings(ds, gt, records):
    """``matched_objects`` and ``match_tracks_to_objects`` on ``detection_ious``, by object id in the
    oracles' form: (view, index) -> object id, and track id -> object id."""
    ious = detection_ious(ds, gt)
    matched = matched_objects(ious).tolist()
    mapping = {(v, i): gt.objects[k].object_id for (v, i, _), k in zip(each_detection(ds), matched) if k >= 0}
    tracks = match_tracks_to_objects(member_table(ds, records), gt, ious)
    return mapping, {t: gt.objects[k].object_id for t, k in tracks.items()}


@st.composite
def matching_scenes(draw):
    """A 2x3 scene whose masks are drawn from a few patterns, so that IoUs often tie; a pattern of
    at most three pixels may be empty or overlap no other. Object ids are drawn in any order, so the
    first object of ``gt.objects`` and the lowest id differ. Tracks take at most one detection per
    view."""
    pattern = st.sets(st.integers(0, 5), max_size=3).map(lambda on: np.isin(np.arange(6), list(on)).reshape(2, 3))
    pool = draw(st.lists(pattern, min_size=1, max_size=4))
    mask = st.sampled_from(pool)
    n_views = draw(st.integers(1, 3))
    detections = [draw(st.lists(mask, max_size=4)) for _ in range(n_views)]
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    objects = [(oid, [draw(mask) for _ in range(n_views)]) for oid in ids]
    ds, gt = hand_scene(detections, objects)
    members = {t: [] for t in range(3)}
    for v, per_view in enumerate(detections):
        slots = draw(st.permutations([0, 1, 2, *[None] * len(per_view)]))
        for idx, t in enumerate(slots[: len(per_view)]):
            if t is not None:
                members[t].append((v, idx))
    return ds, gt, [ConsensusRecord(t, "x", {}, tuple(m)) for t, m in members.items() if m]


class TestMatchingOracle:
    """The table-based matchers against the per-pair loops they replaced."""

    def check(self, ds, gt, records):
        mapping, track_to_obj = matchings(ds, gt, records)
        assert mapping == oracle_match_detections(ds, gt)
        assert track_to_obj == oracle_match_tracks(ds, records, gt)
        return mapping, track_to_obj

    @given(matching_scenes())
    @settings(max_examples=300, deadline=None)
    def test_drawn_scenes_with_ties_empty_masks_and_unordered_ids(self, scene):
        self.check(*scene)

    def test_random_noisy_scenes(self):
        rng = np.random.default_rng(11)
        noise = tf.NoiseSpec(synonym_rate=0.3, wrong_label_rate=0.1, dropout_rate=0.2,
                             mask_jitter=2, strip_track_ids=True)
        for seed in range(12):
            cfg = tf.SynthConfig(n_views=6, height=24, width=24, n_objects=4, seed=seed, noise=noise)
            ds, gt = tf.generate_scene(cfg)
            noisy = tf.corrupt(ds, gt, cfg)
            # masks that straddle objects, cover nothing, or are empty
            def reshaped(det):
                roll = rng.random()
                grid = tf.rle_decode(det.mask)
                if roll < 0.2:
                    grid = grid | np.roll(grid, int(rng.integers(-8, 9)), axis=int(rng.integers(2)))
                elif roll < 0.3:
                    grid = rng.random(grid.shape) < 0.3
                elif roll < 0.35:
                    grid = np.zeros_like(grid)
                return replace(det, mask=tf.rle_encode(grid))

            noisy = replace(noisy, detections=[[reshaped(det) for det in per_view] for per_view in detections_of(noisy)])
            gt = replace(gt, objects=[gt.objects[k] for k in rng.permutation(len(gt.objects))])
            tracks = tf.associate_greedy(noisy, tf.AssocParams())
            records = tf.run_consensus(noisy, tracks).records
            self.check(noisy, gt, records)

    def test_identical_object_masks_tie(self):
        blob = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        other = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
        ds, gt = hand_scene([[blob, other], [blob]], [(5, [blob, blob]), (2, [blob, blob]), (7, [other, other])])
        mapping, track_to_obj = self.check(ds, gt, one_track_per_detection(ds))
        # a detection keeps the first of the tied objects, a track the lowest id
        assert mapping == {(0, 0): 5, (0, 1): 7, (1, 0): 5}
        assert track_to_obj == {0: 2, 1: 7, 2: 2}

    def test_detection_overlapping_no_object(self):
        left = [[1, 0, 0, 0]] * 4
        right = [[0, 0, 0, 1]] * 4
        middle = [[0, 1, 1, 0]] * 4
        ds, gt = hand_scene([[middle, right]], [(3, [left]), (1, [right])])
        mapping, track_to_obj = self.check(ds, gt, one_track_per_detection(ds))
        assert mapping == {(0, 1): 1}
        assert track_to_obj == {0: 1, 1: 1}

    def test_empty_masks(self):
        empty = [[0, 0], [0, 0]]
        full = [[1, 1], [1, 1]]
        # an empty detection matches an empty object (IoU 1), never a non-empty one
        ds, gt = hand_scene([[empty], [empty, full], []], [(4, [full, empty, full]), (0, [full, full, empty])])
        mapping, track_to_obj = self.check(ds, gt, one_track_per_detection(ds))
        assert mapping == {(1, 0): 4, (1, 1): 0}
        assert track_to_obj == {0: 0, 1: 4, 2: 0}

    def test_ground_truth_of_another_size_names_both_sizes(self):
        # 1x2 and 2x1 masks pack into rows of the same byte, so the sizes are compared, not the rows
        ds, _ = hand_scene([[[[0, 1]]]], [(0, [[[0, 1]]])])
        _, gt = hand_scene([[[[0], [1]]]], [(0, [[[0], [1]]])])
        with pytest.raises(SchemaError, match="mask dimensions differ: 1x2 vs 2x1"):
            detection_ious(ds, gt)


class TestReport:
    def test_empty_metrics_valid(self, tmp_path):
        report = emit_report({}, {"a": 1}, {"seed": 0}, tmp_path / "r.json")
        assert report["metrics"] == {}
        assert read_json(tmp_path / "r.json") == report

    def test_roundtrip_equality(self, tmp_path):
        metrics = {"x": 0.123456789012345, "n": 7}
        report = emit_report(metrics, {"b": [1, 2]}, {"seed": 3}, tmp_path / "r.json")
        assert read_json(tmp_path / "r.json") == report

    def test_config_hash_matches_canonical_serialization(self, tmp_path):
        config = {"z": 1, "a": {"nested": True}}
        report = emit_report({}, config, {"seed": 0}, tmp_path / "r.json")
        assert report["config_hash"] == config_hash(config)
        # key order must not matter
        assert config_hash({"a": {"nested": True}, "z": 1}) == report["config_hash"]


class TestIouGrids:
    def test_empty_vs_empty(self):
        z = np.zeros((2, 2), dtype=bool)
        assert iou_grids(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            iou_grids(np.zeros((1, 2)), np.zeros((2, 1)))


@pytest.fixture(scope="module")
def fragmented_scene():
    """Half the detections dropped and no gap allowed: each object splits into short tracks."""
    noise = tf.NoiseSpec(dropout_rate=0.5, mask_jitter=1, strip_track_ids=True)
    cfg = tf.SynthConfig(n_views=8, height=32, width=32, n_objects=3, seed=5, noise=noise)
    ds, gt = tf.generate_scene(cfg)
    ds = tf.corrupt(ds, gt, cfg)
    records = tf.run_consensus(ds, tf.associate_greedy(ds, tf.AssocParams(max_gap=0))).records
    descriptions = run_keyframes(ds, records)
    # two objects of one category: that short query's target is the OR of both masks
    first, second, *rest = gt.objects
    gt = replace(gt, objects=(first, replace(second, identity=first.identity), *rest))
    return ds, gt, records, descriptions


def bits(metrics):
    """Every float of a metrics dict as its exact hex form."""
    return {k: ({q: v.hex() for q, v in val.items()} if isinstance(val, dict) else val.hex())
            for k, val in metrics.items()}


class TestEvalScoring:
    """Eval's per-view scoring against every (query, view) grid kept and scored by ``miou``."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        views=st.lists(st.integers(0, 7), min_size=1, max_size=10),
        with_descriptions=st.booleans(),
        drop_record=st.booleans(),
        repeat_name=st.booleans(),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_equals_grid_oracle_bit_for_bit(
        self, fragmented_scene, seed, views, with_descriptions, drop_record, repeat_name
    ):
        ds, gt, records, descriptions = fragmented_scene
        rng = np.random.default_rng(seed)
        field_ = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim, spread=3.0)
        field_.features = rng.standard_normal(field_.features.shape)
        if drop_record:
            # the dropped track's description matches no object, so it gives no query
            records = records[1:]
        if repeat_name:
            # the same "<track>:<text>" name twice: the last referral's scores win
            first = descriptions[0]
            text, _ = first.referrals[0]
            descriptions = [DescriptionSet(first.track_id, first.category,
                                           [*first.referrals, (text, rng.standard_normal(ds.dim))]),
                            *descriptions[1:]]
        descriptions = descriptions if with_descriptions else None
        got = eval_miou(field_, ds, gt, records, detection_ious(ds, gt), views, descriptions)
        want = oracle_eval_miou(field_, ds, gt, records, views, descriptions)
        assert bits(got) == bits(want)
        assert ("miou_long" in got) == with_descriptions

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_table_at_odd_size_equals_grids_scored_by_miou(self, seed):
        # 33 x 47 = 1 551 pixels, not a multiple of 8: each bit-packed row ends in a partial byte
        cfg = tf.SynthConfig(n_views=4, height=33, width=47, n_objects=3, seed=2)
        ds, gt = tf.generate_scene(cfg)
        rng = np.random.default_rng(seed)
        field_ = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim, spread=3.0)
        field_.features = rng.standard_normal(field_.features.shape)
        views = [3, 0, 2, 1]
        objects = object_grids(gt, views)
        categories = category_grids(gt, objects)
        target_grids = [categories[c] for c in sorted(categories)] + objects
        queries = rng.standard_normal((6, ds.dim))
        targets = rng.integers(len(target_grids), size=len(queries))
        table = iou_by_view(field_, gt, views, queries, targets)
        preds = render_grids(field_, sorted(views), list(queries))
        for row, pred, target in zip(table, preds, targets.tolist()):
            want = [miou({"q": {v: pred[v]}}, {"q": {v: target_grids[target][v]}})[1] for v in sorted(views)]
            assert row.tolist() == want

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_repeated_rows_score_as_each_query_rendered_alone(self, fragmented_scene, seed):
        ds, gt, _, _ = fragmented_scene
        rng = np.random.default_rng(seed)
        field_ = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim, spread=3.0)
        field_.features = rng.standard_normal(field_.features.shape)
        # row a at 0, 2 and 5, with targets 0, 1 and 0; row b at 1 and 4, both with target 3; row c once
        a, b, c = rng.standard_normal((3, ds.dim))
        queries = np.stack([a, b, a, c, b, a])
        targets = np.array([0, 3, 1, 2, 3, 0])
        views = [5, 0, 3, 7, 0]
        table = iou_by_view(field_, gt, views, queries, targets)
        alone = [iou_by_view(field_, gt, views, queries[q : q + 1], targets[q : q + 1])[0] for q in range(6)]
        assert table.tolist() == [row.tolist() for row in alone]

    def test_repeated_referral_vectors_render_once_and_match_the_grid_oracle(self, fragmented_scene, monkeypatch):
        ds, gt, records, descriptions = fragmented_scene
        rng = np.random.default_rng(11)
        field_ = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim, spread=3.0)
        field_.features = rng.standard_normal(field_.features.shape)
        # every referral takes one of three vectors, in turn: across tracks and within one
        pool = [text_embedding(f"shared {k}", ds.dim) for k in range(3)]
        turn = itertools.count()
        descriptions = [DescriptionSet(d.track_id, d.category, [(t, pool[next(turn) % 3]) for t, _ in d.referrals])
                        for d in descriptions]
        ious = detection_ious(ds, gt)
        _, _, queries, targets = eval_queries(ds, gt, records, ious, descriptions)
        rows = [q.tobytes() for q in queries]
        pairs = [(i, j) for i in range(len(rows)) for j in range(i + 2, len(rows)) if rows[i] == rows[j]]
        assert any(targets[i] == targets[j] for i, j in pairs)
        assert any(targets[i] != targets[j] for i, j in pairs)

        rendered = []
        real = metrics_module.render_logits
        monkeypatch.setattr(metrics_module, "render_logits",
                            lambda f, view, query, out=None: rendered.append(len(query)) or real(f, view, query, out))
        views = [6, 1, 4]
        got = eval_miou(field_, ds, gt, records, ious, views, descriptions)
        assert rendered == [len(set(rows))] * len(views)
        assert bits(got) == bits(oracle_eval_miou(field_, ds, gt, records, views, descriptions))

    def test_rows_are_categories_then_matched_referrals(self, fragmented_scene):
        ds, gt, records, descriptions = fragmented_scene
        short, long_, queries, targets = eval_queries(ds, gt, records[1:], detection_ious(ds, gt), descriptions)
        categories = sorted({o.identity for o in gt.objects})
        assert short == categories
        kept = [d for d in sorted(descriptions, key=lambda d: d.track_id) if d.track_id != records[0].track_id]
        assert long_ == [f"{d.track_id}:{text}" for d in kept for text, _ in d.referrals]
        assert np.array_equal(queries, np.stack([ds.embedding(c) for c in categories]
                                                + [vec for d in kept for _, vec in d.referrals]))
        assert targets[: len(short)].tolist() == list(range(len(short)))
        assert all(len(short) <= t < len(short) + len(gt.objects) for t in targets[len(short):].tolist())

    def test_empty_prediction_and_target_score_one(self):
        blob = [[1, 1, 0], [1, 1, 0], [0, 0, 0]]
        empty = [[0, 0, 0]] * 3
        _, gt = hand_scene([[], []], [(0, [blob, empty])])
        # one Gaussian, seen only in view 0: nothing renders in view 1
        field_ = ToyReferringField(3, 3, 1.0, np.array([[[0.5, 0.5], [np.nan, np.nan]]]), np.array([[1.0, 0.0]]))
        queries = np.array([[1.0, 0.0], [-1.0, 0.0]])
        table = iou_by_view(field_, gt, [1, 0], queries, np.array([0, 1]))
        assert table[:, 1].tolist() == [1.0, 1.0]
        preds = render_grids(field_, [0, 1], list(queries))
        short = category_grids(gt, object_grids(gt, [0, 1]))["c0"]
        assert query_means(["a", "b"], table) == miou({"a": preds[0], "b": preds[1]}, {"a": short, "b": short})

    def test_no_queries_render_nothing(self):
        _, gt = hand_scene([[]], [(0, [[[1]]])])
        field_ = ToyReferringField(1, 1, 1.0, np.zeros((1, 1, 2)), np.ones((1, 2)))
        assert iou_by_view(field_, gt, [0], np.zeros((0, 2)), np.zeros(0, dtype=np.intp)).shape == (0, 1)
        assert field_._buffer is None


class TestQueryMeans:
    def test_repeated_name_keeps_last_row(self):
        per_query, overall = query_means(["b", "a", "b"], np.array([[0.0, 0.0], [1.0, 0.5], [1.0, 1.0]]))
        assert per_query == {"a": 0.75, "b": 1.0}
        assert list(per_query) == ["a", "b"]
        assert overall == 0.875

    def test_no_queries(self):
        per_query, overall = query_means([], np.zeros((0, 3)))
        assert per_query == {} and math.isnan(overall)

    def test_miou_reduces_through_query_means(self):
        rng = np.random.default_rng(4)
        preds = {q: {v: rng.random((3, 3)) for v in (2, 0, 1)} for q in ("c", "a", "b")}
        gts = {q: {v: rng.random((3, 3)) > 0.5 for v in range(3)} for q in preds}
        rows = [[iou_grids(preds[q][v], gts[q][v]) for v in range(3)] for q in sorted(preds)]
        assert miou(preds, gts) == query_means(sorted(preds), np.array(rows))
