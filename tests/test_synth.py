import numpy as np
import pytest

import trackfuse as tf
from trackfuse.records import save_dataset
from trackfuse.rle import mask_iou, rle_decode
from trackfuse.synth import DEFAULT_VOCABULARY, build_vocabulary_embeddings


def dataset_bytes(ds, tmp_path, name):
    save_dataset(ds, tmp_path / name)
    return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}


class TestGenerate:
    def test_minimal_scene(self):
        cfg = tf.SynthConfig(n_views=3, n_objects=1, seed=0)
        ds, gt = tf.generate_scene(cfg)
        dets = [det for _, _, det in ds.all_detections()]
        assert len(dets) == 3
        assert len({d.raw_label for d in dets}) == 1
        assert all(d.track_id == 0 for d in dets)
        assert all(d.confidence == 1.0 for d in dets)

    def test_deterministic_in_seed(self, tmp_path):
        cfg = tf.SynthConfig(n_views=4, n_objects=3, seed=42)
        ds1, _ = tf.generate_scene(cfg)
        ds2, _ = tf.generate_scene(cfg)
        assert dataset_bytes(ds1, tmp_path, "a") == dataset_bytes(ds2, tmp_path, "b")

    def test_object_and_detection_counts(self):
        cfg = tf.SynthConfig(n_views=20, n_objects=5, seed=1)
        ds, gt = tf.generate_scene(cfg)
        assert len({o.identity for o in gt.objects}) == 5
        assert sum(len(d) for d in ds.detections) <= 100

    def test_ground_truth_masks_match_detections(self):
        cfg = tf.SynthConfig(n_views=4, n_objects=2, seed=6)
        ds, gt = tf.generate_scene(cfg)
        for view, _, det in ds.all_detections():
            obj = gt.objects[det.track_id]
            assert mask_iou(det.mask, obj.masks[view]) == 1.0


class TestVocabulary:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_cosine_structure(self, seed):
        embs = build_vocabulary_embeddings(DEFAULT_VOCABULARY, 32, seed)
        for gi, group in enumerate(DEFAULT_VOCABULARY):
            words = group.words
            for a in words:
                for b in words:
                    assert float(np.dot(embs[a].vector, embs[b].vector)) >= 0.9
            for other in DEFAULT_VOCABULARY[gi + 1 :]:
                for a in words:
                    for b in other.words:
                        assert float(np.dot(embs[a].vector, embs[b].vector)) <= 0.5

    def test_canonical_is_shortest_in_group(self):
        for group in DEFAULT_VOCABULARY:
            assert all(len(group.canonical) <= len(s) for s in group.synonyms)

    def test_dim_too_small_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            tf.SynthConfig(dim=2)


class TestCorrupt:
    def test_zero_noise_is_identity(self, tmp_path):
        cfg = tf.SynthConfig(n_views=5, n_objects=2, seed=3)
        ds, gt = tf.generate_scene(cfg)
        out = tf.corrupt(ds, gt, cfg)
        assert dataset_bytes(ds, tmp_path, "a") == dataset_bytes(out, tmp_path, "b")

    def test_full_dropout_empties_scene(self):
        cfg = tf.SynthConfig(
            n_views=5, n_objects=2, seed=3, noise=tf.NoiseSpec(dropout_rate=1.0)
        )
        ds, gt = tf.generate_scene(cfg)
        out = tf.corrupt(ds, gt, cfg)
        assert sum(len(d) for d in out.detections) == 0

    def test_synonym_rate_concentration(self):
        cfg = tf.SynthConfig(
            n_views=800,
            height=24,
            width=24,
            n_objects=13,
            seed=10,
            noise=tf.NoiseSpec(synonym_rate=0.3),
        )
        ds, gt = tf.generate_scene(cfg)
        out = tf.corrupt(ds, gt, cfg)
        before = [det.raw_label for _, _, det in ds.all_detections()]
        after = [det.raw_label for _, _, det in out.all_detections()]
        assert len(before) == len(after) >= 10000
        replaced = sum(a != b for a, b in zip(before, after))
        frac = replaced / len(before)
        assert 0.28 <= frac <= 0.32

    def test_deterministic_in_seed(self, tmp_path):
        cfg = tf.SynthConfig(
            n_views=6,
            n_objects=3,
            seed=9,
            noise=tf.NoiseSpec(synonym_rate=0.4, wrong_label_rate=0.2, dropout_rate=0.1, mask_jitter=2),
        )
        ds, gt = tf.generate_scene(cfg)
        a = tf.corrupt(ds, gt, cfg)
        b = tf.corrupt(ds, gt, cfg)
        assert dataset_bytes(a, tmp_path, "a") == dataset_bytes(b, tmp_path, "b")

    def test_views_and_associations_preserved(self):
        cfg = tf.SynthConfig(
            n_views=6,
            n_objects=2,
            seed=4,
            noise=tf.NoiseSpec(synonym_rate=0.5, wrong_label_rate=0.3, mask_jitter=1),
        )
        ds, gt = tf.generate_scene(cfg)
        out = tf.corrupt(ds, gt, cfg)
        for view, _, det in out.all_detections():
            assert det.view == view
            # jittered mask still overlaps its own object far more than others
            own = mask_iou(det.mask, gt.objects[det.track_id].masks[view])
            others = [
                mask_iou(det.mask, o.masks[view])
                for o in gt.objects
                if o.object_id != det.track_id
            ]
            assert own > max(others, default=0.0)

    def test_strip_track_ids(self):
        cfg = tf.SynthConfig(
            n_views=3, n_objects=2, seed=4, noise=tf.NoiseSpec(strip_track_ids=True)
        )
        ds, gt = tf.generate_scene(cfg)
        out = tf.corrupt(ds, gt, cfg)
        assert all(det.track_id is None for _, _, det in out.all_detections())

    def test_wrong_label_comes_from_other_group(self):
        cfg = tf.SynthConfig(
            n_views=40, n_objects=3, seed=12, noise=tf.NoiseSpec(wrong_label_rate=1.0)
        )
        ds, gt = tf.generate_scene(cfg)
        out = tf.corrupt(ds, gt, cfg)
        group_of = {w: g.canonical for g in cfg.vocabulary for w in g.words}
        for (_, _, before), (_, _, after) in zip(ds.all_detections(), out.all_detections()):
            assert group_of[after.raw_label] != group_of[before.raw_label]

    def test_zero_noise_consensus_is_perfect(self):
        from trackfuse.metrics import consensus_accuracy, iou_tables, match_detections_to_objects

        cfg = tf.SynthConfig(n_views=5, n_objects=3, seed=2)
        ds, gt = tf.generate_scene(cfg)
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        tf.propagate(ds, result.records)
        mapping = match_detections_to_objects(iou_tables(ds, gt), gt)
        acc = consensus_accuracy(ds, gt, result.clustering, mapping)
        assert acc["per_view_acc"] == 1.0
        assert acc["tscm_acc"] == 1.0

    def test_ground_truth_roundtrip(self, tmp_path):
        from trackfuse.synth import load_ground_truth, save_ground_truth

        cfg = tf.SynthConfig(n_views=3, n_objects=2, seed=5)
        _, gt = tf.generate_scene(cfg)
        save_ground_truth(gt, tmp_path / "gt.json")
        loaded = load_ground_truth(tmp_path / "gt.json")
        assert len(loaded.objects) == 2
        for a, b in zip(gt.objects, loaded.objects):
            assert a.identity == b.identity
            assert a.visible == b.visible
            assert all(
                np.array_equal(rle_decode(m1), rle_decode(m2))
                for m1, m2 in zip(a.masks, b.masks)
            )
