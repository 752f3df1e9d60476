import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Detection, detection_tuples, each_detection, oracle_associate_greedy, oracle_import_tracks, rebuilt

import trackfuse as tf
from trackfuse.errors import SchemaError
from trackfuse.records import LabelEmbedding, SceneDataset
from trackfuse.rle import rle_encode
from trackfuse.tracking import AssocParams, associate_greedy, import_tracks, load_tracks, save_tracks


def square_mask(h, w, top, left, size):
    g = np.zeros((h, w), dtype=bool)
    g[top : top + size, left : left + size] = True
    return rle_encode(g)


def unit(dim, axis):
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def make_dataset(dets_per_view, labels=("cup", "bowl"), h=16, w=16):
    dim = 4
    embeddings = {lab: LabelEmbedding(lab, unit(dim, i)) for i, lab in enumerate(labels)}
    n_views = len(dets_per_view)
    detections = [
        [Detection(view=v, **kw) for kw in per_view] for v, per_view in enumerate(dets_per_view)
    ]
    return SceneDataset(
        n_views=n_views, height=h, width=w, dim=dim, detections=detection_tuples(detections), embeddings=embeddings
    )


class TestImportTracks:
    def test_single_track(self):
        mask = square_mask(16, 16, 2, 2, 4)
        ds = make_dataset(
            [[dict(mask=mask, raw_label="cup", confidence=1.0, track_id=0)] for _ in range(3)]
        )
        trajs = import_tracks(ds)
        assert len(trajs) == 1
        assert trajs[0].members == ((0, 0), (1, 0), (2, 0))

    def test_interleaved_tracks_partition(self):
        mask = square_mask(16, 16, 2, 2, 4)
        per_view = []
        for v in range(4):
            track = v % 2
            per_view.append([dict(mask=mask, raw_label="cup", confidence=1.0, track_id=track)])
        ds = make_dataset(per_view)
        trajs = import_tracks(ds)
        # oracle: partition by key
        expected = {}
        for v, _, det in each_detection(ds):
            expected.setdefault(det.track_id, []).append((v, 0))
        assert {t.track_id: list(t.members) for t in trajs} == expected
        assert all(len(t.members) == 2 for t in trajs)

    def test_duplicate_track_view_rejected(self):
        mask = square_mask(16, 16, 2, 2, 4)
        ds = make_dataset(
            [
                [
                    dict(mask=mask, raw_label="cup", confidence=1.0, track_id=0),
                    dict(mask=mask, raw_label="cup", confidence=1.0, track_id=0),
                ]
            ]
        )
        with pytest.raises(SchemaError, match="twice"):
            import_tracks(ds)

    def test_missing_track_id_rejected(self):
        mask = square_mask(16, 16, 2, 2, 4)
        ds = make_dataset([[dict(mask=mask, raw_label="cup", confidence=1.0)]])
        with pytest.raises(SchemaError, match="no track_id"):
            import_tracks(ds)

    # each view's carried ids: small ids, so that views share and repeat them; None for no id
    track_columns = st.lists(st.lists(st.one_of(st.none(), st.integers(0, 4)), max_size=4), max_size=5)

    @given(track_columns)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_detection_loop(self, views):
        mask = square_mask(4, 4, 0, 0, 2)
        ds = make_dataset([[dict(mask=mask, raw_label="cup", confidence=1.0, track_id=t) for t in view]
                           for view in views], h=4, w=4)
        try:
            expected = oracle_import_tracks(ds)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as raised:
                import_tracks(ds)
            assert str(raised.value) == str(exc)
            assert re.search("has no track_id|appears twice in view", str(exc))
        else:
            assert import_tracks(ds) == expected


class TestGreedy:
    def test_identical_detections_single_trajectory(self):
        mask = square_mask(16, 16, 2, 2, 4)
        ds = make_dataset(
            [[dict(mask=mask, raw_label="cup", confidence=1.0)] for _ in range(5)]
        )
        trajs = associate_greedy(ds, AssocParams(match_threshold=0.5))
        assert len(trajs) == 1
        assert len(trajs[0].members) == 5

    def test_two_disjoint_objects_two_trajectories(self):
        a = square_mask(16, 16, 1, 1, 4)
        b = square_mask(16, 16, 10, 10, 4)
        ds = make_dataset(
            [
                [
                    dict(mask=a, raw_label="cup", confidence=1.0),
                    dict(mask=b, raw_label="bowl", confidence=1.0),
                ]
                for _ in range(4)
            ]
        )
        trajs = associate_greedy(ds, AssocParams(iou_weight=1.0, match_threshold=0.5))
        assert len(trajs) == 2
        # brute-force optimal assignment on the disjoint case: each
        # detection matches only its own object's previous detection
        for traj in trajs:
            indices = {i for _, i in traj.members}
            assert len(indices) == 1

    def test_gap_rule_opens_new_track(self):
        mask = square_mask(16, 16, 2, 2, 4)
        gap = 2
        present = [0, gap + 2]  # absent for gap+1 views
        per_view = [
            [dict(mask=mask, raw_label="cup", confidence=1.0)] if v in present else []
            for v in range(gap + 3)
        ]
        ds = make_dataset(per_view)
        trajs = associate_greedy(ds, AssocParams(max_gap=gap, match_threshold=0.3))
        assert len(trajs) == 2

    def test_gap_within_limit_keeps_track(self):
        mask = square_mask(16, 16, 2, 2, 4)
        gap = 2
        present = [0, gap + 1]  # absent for exactly gap views
        per_view = [
            [dict(mask=mask, raw_label="cup", confidence=1.0)] if v in present else []
            for v in range(gap + 2)
        ]
        ds = make_dataset(per_view)
        trajs = associate_greedy(ds, AssocParams(max_gap=gap, match_threshold=0.3))
        assert len(trajs) == 1

    def test_output_partitions_detections(self, noisy_scene):
        ds, _ = noisy_scene
        trajs = associate_greedy(ds)
        seen = [m for t in trajs for m in t.members]
        expected = [(v, i) for v, i, _ in each_detection(ds)]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))

    def test_deterministic(self, noisy_scene):
        ds, _ = noisy_scene
        a = associate_greedy(ds)
        b = associate_greedy(ds)
        assert [(t.track_id, t.members) for t in a] == [(t.track_id, t.members) for t in b]

    def test_single_object_never_fragments_without_gap_limit(self):
        cfg = tf.SynthConfig(n_views=10, n_objects=1, seed=9)
        ds, _ = tf.generate_scene(cfg)
        trajs = associate_greedy(
            ds, AssocParams(iou_weight=1.0, match_threshold=0.2, max_gap=ds.n_views)
        )
        assert len(trajs) == 1

    def test_missing_embedding_rejected(self):
        mask = square_mask(16, 16, 2, 2, 4)
        ds = make_dataset([[dict(mask=mask, raw_label="cup", confidence=1.0)]])
        ds = rebuilt(ds, embeddings={label: emb for label, emb in ds.embeddings.items() if label != "cup"})
        with pytest.raises(SchemaError, match="no embedding"):
            associate_greedy(ds)


def noisy_dataset(seed, dropout_rate, n_views=10, n_objects=4):
    cfg = tf.SynthConfig(
        n_views=n_views,
        height=40,
        width=48,
        n_objects=n_objects,
        seed=seed,
        noise=tf.NoiseSpec(synonym_rate=0.3, wrong_label_rate=0.2, dropout_rate=dropout_rate,
                           mask_jitter=2, strip_track_ids=True),
    )
    ds, gt = tf.generate_scene(cfg)
    return tf.corrupt(ds, gt, cfg)


class TestGreedyOracle:
    """``associate_greedy`` scores a view's pairs from one IoU table; the oracle calls ``mask_iou`` per pair."""

    PARAMS = [
        AssocParams(),
        AssocParams(max_gap=0),
        AssocParams(iou_weight=1.0, match_threshold=0.0, max_gap=0),
        AssocParams(iou_weight=0.0, match_threshold=0.5, max_gap=2),
        AssocParams(iou_weight=0.5, match_threshold=0.9, max_gap=1),
    ]

    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"w{p.iou_weight}-t{p.match_threshold}-gap{p.max_gap}")
    @pytest.mark.parametrize("seed, dropout_rate", [(1, 0.0), (2, 0.3), (3, 0.6), (4, 0.9)])
    def test_equals_per_pair_mask_iou(self, seed, dropout_rate, params):
        ds = noisy_dataset(seed, dropout_rate)
        assert associate_greedy(ds, params) == oracle_associate_greedy(ds, params)

    def test_the_scenes_have_views_without_detections(self):
        ds = noisy_dataset(4, 0.9)
        assert (np.diff(ds.first) == 0).any()
        assert len(ds.masks) > 1

    def test_empty_views_and_empty_masks(self):
        # two empty masks have IoU 1, as mask_iou gives them
        empty = rle_encode(np.zeros((16, 16), dtype=bool))
        cup = dict(mask=empty, raw_label="cup", confidence=1.0)
        bowl = dict(mask=square_mask(16, 16, 0, 0, 3), raw_label="bowl", confidence=1.0)
        ds = make_dataset([[cup, bowl], [], [bowl, cup], [cup], []])
        for params in self.PARAMS:
            assert associate_greedy(ds, params) == oracle_associate_greedy(ds, params)

    def test_mismatched_mask_size_names_both_sizes(self):
        cup = dict(mask=square_mask(16, 16, 0, 0, 3), raw_label="cup", confidence=1.0)
        ds = make_dataset([[cup], [cup]])
        # a later view's mask of another size: the dataset refuses it (so would replace), so set the
        # mask column past its checks
        object.__setattr__(ds, "masks", (ds.masks[0], square_mask(8, 8, 0, 0, 3)))
        with pytest.raises(SchemaError, match="mask dimensions differ: 8x8 vs 16x16"):
            associate_greedy(ds)
        with pytest.raises(SchemaError, match="mask dimensions differ: 8x8 vs 16x16"):
            oracle_associate_greedy(ds, AssocParams())


class TestSidecar:
    def test_roundtrip(self, tmp_path, clean_scene):
        ds, _, trajs = clean_scene
        path = tmp_path / "tracks.jsonl"
        save_tracks(trajs, path, ds)
        loaded = load_tracks(path, ds)
        assert [(t.track_id, t.members) for t in loaded] == [
            (t.track_id, t.members) for t in trajs
        ]
