import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import trackfuse as tf
from trackfuse.cli import _synth_config, main
from trackfuse.records import save_dataset
from trackfuse.rle import mask_iou, rle_decode
from trackfuse.synth import DEFAULT_VOCABULARY, SynonymGroup, build_vocabulary_embeddings

from oracles import each_detection, oracle_generate_scene

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

DATA = Path(__file__).parent / "data"
NOISY = {"synonym_rate": 0.35, "wrong_label_rate": 0.1, "mask_jitter": 1, "strip_track_ids": True}


def dataset_bytes(ds, tmp_path, name):
    save_dataset(ds, tmp_path / name)
    return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}


class TestGenerate:
    def test_minimal_scene(self):
        cfg = tf.SynthConfig(n_views=3, n_objects=1, seed=0)
        ds, gt = tf.generate_scene(cfg)
        dets = [det for _, _, det in each_detection(ds)]
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
        assert len(ds.masks) <= 100

    def test_ground_truth_masks_match_detections(self):
        cfg = tf.SynthConfig(n_views=4, n_objects=2, seed=6)
        ds, gt = tf.generate_scene(cfg)
        for view, _, det in each_detection(ds):
            obj = gt.objects[det.track_id]
            assert mask_iou(det.mask, obj.masks[view]) == 1.0


def scene_records(ds, gt):
    return gt.to_json(), [
        (det.view, det.mask, det.raw_label, det.track_id) for _, _, det in each_detection(ds)
    ]


def assert_matches_oracle(cfg):
    expected = scene_records(*oracle_generate_scene(cfg))
    assert scene_records(*tf.generate_scene(cfg)) == expected
    return expected


def assert_same_error(cfg):
    with pytest.raises(ValueError) as expected:
        oracle_generate_scene(cfg)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        tf.generate_scene(cfg)


class TestPlacementOracle:
    """The bit-packed overlap check places every object where the per-grid count does."""

    @pytest.mark.parametrize("size", [(33, 47), (7, 9), (65, 31), (1, 64)])
    def test_sizes_off_the_word_and_byte_grid(self, size):
        height, width = size
        cfg = tf.SynthConfig(n_views=5, height=height, width=width, n_objects=4, seed=3)
        if height == 1:  # no vertical room for a margin: both refuse the config alike
            assert_same_error(cfg)
        else:
            assert_matches_oracle(cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_more_objects_than_groups(self, seed):
        # 8 objects in 6 groups on a small canvas: placements overlap, so paths are resampled
        cfg = tf.SynthConfig(n_views=6, height=24, width=24, n_objects=8, seed=seed)
        gt, _ = assert_matches_oracle(cfg)
        assert len({o["identity"] for o in gt["objects"]}) <= len(DEFAULT_VOCABULARY)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_crowded_canvas_keeps_the_first_least_overlapping_try(self, seed):
        # on a 4x6 canvas all 50 tries of some object overlap by more than 0.3, and the
        # lowest overlap is reached more than once: the first such try is kept
        assert_matches_oracle(tf.SynthConfig(n_views=4, height=4, width=6, n_objects=4, seed=seed))

    @pytest.mark.parametrize("n_objects, seed", [(2, 5), (3, 2)])
    def test_views_where_every_mask_is_empty(self, n_objects, seed):
        cfg = tf.SynthConfig(n_views=8, height=4, width=6, n_objects=n_objects, seed=seed)
        gt, _ = assert_matches_oracle(cfg)
        visible = np.array([o["visible"] for o in gt["objects"]])
        assert not visible.any(axis=0).all()

    @pytest.mark.parametrize("seed", [1301, 5151])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_benchmark_workload_scenes(self, name, seed):
        workload = WORKLOADS[name]
        for scene in range(workload.scenes):
            cfg = workload.scene_config(seed, scene)
            assert_matches_oracle(_synth_config(cfg))

    @pytest.mark.parametrize(
        "cfg",
        [tf.SynthConfig(n_views=8, height=3, width=3, n_objects=2, seed=0),
         tf.SynthConfig(n_views=8, height=4, width=4, n_objects=3, seed=0),
         tf.SynthConfig(n_views=3, height=2, width=8, n_objects=1, seed=0)],
        ids=["first-never-visible", "second-never-visible", "no-room"],
    )
    def test_both_raise_the_same_error(self, cfg):
        assert_same_error(cfg)

    def test_custom_vocabulary(self):
        vocab = (SynonymGroup("a", ("aa",)), SynonymGroup("b", ()))
        cfg = tf.SynthConfig(n_views=4, height=20, width=30, n_objects=3, vocabulary=vocab, seed=4)
        assert_matches_oracle(cfg)


# sha256 of every file `trackfuse synth` writes, recorded before the overlap check was
# bit-packed; field_geometry.json's are of those files' documents with each Gaussian's id
# and track taken out, dumped again. A change here means the same config and seed no longer
# give the same scene
SYNTH_DIGESTS = {
    "fixture": {
        "dataset/detections.jsonl": "a1a3d7a963f6076cddbea03b19504d27a20fa51cd9d306d70893211de73b9403",
        "dataset/embeddings.json": "fe9707faa8e65e64c58dcc64fef37192cba5d1cfd768a9a14dec3c3dfcc078ea",
        "dataset/manifest.json": "5f332da6980dda184e1adf64412bbf2ab09aa8949d24a465b1236ebca2337a32",
        "field_geometry.json": "e0df91626fd119c0ac715f024dac88a41bb8ea9b3d87679c85432741bcfd65e6",
        "ground_truth.json": "7d99476c8b25d8793434309ed140834c57cb8d49e906cec97e1c7cbec169e750",
    },
    "odd_size": {
        "dataset/detections.jsonl": "018fbf4e844f4a46ca4ca12434699ea66ba82a2cc61af447541e0ebb380667cf",
        "dataset/embeddings.json": "48252eb1c9920fe7d9dd2286ee9da9cdf34002b0e62ecef81f31bb13e7250814",
        "dataset/manifest.json": "6338dc46756dcc2b61a6bc7c25846331a05a532f0ee45d6c56766ac8cd4be673",
        "field_geometry.json": "c2107547246f547466b6788880f2b435f09b1c0c64e959d9ce3315f5e1781daf",
        "ground_truth.json": "e776d460a662272529232265cd9e689045c115a6bf855bcdb64a53356455b120",
    },
}


@pytest.mark.parametrize("name", sorted(SYNTH_DIGESTS))
def test_synth_outputs_are_byte_identical(name, tmp_path):
    if name == "fixture":
        cfg = str(DATA / "fixture_config.json")
    else:  # 33x47 views (not a whole number of bytes or words), 8 objects in 6 groups, noisy labels
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 11, "synth": {"n_views": 6, "height": 33, "width": 47,
                                                         "n_objects": 8, "noise": NOISY}}))
    out = tmp_path / "scene"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    digests = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert digests == SYNTH_DIGESTS[name]


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
        assert len(out.masks) == 0

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
        before = [det.raw_label for _, _, det in each_detection(ds)]
        after = [det.raw_label for _, _, det in each_detection(out)]
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
        for view, _, det in each_detection(out):
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
        assert all(det.track_id is None for _, _, det in each_detection(out))

    def test_wrong_label_comes_from_other_group(self):
        cfg = tf.SynthConfig(
            n_views=40, n_objects=3, seed=12, noise=tf.NoiseSpec(wrong_label_rate=1.0)
        )
        ds, gt = tf.generate_scene(cfg)
        out = tf.corrupt(ds, gt, cfg)
        group_of = {w: g.canonical for g in cfg.vocabulary for w in g.words}
        for (_, _, before), (_, _, after) in zip(each_detection(ds), each_detection(out)):
            assert group_of[after.raw_label] != group_of[before.raw_label]

    def test_zero_noise_consensus_is_perfect(self):
        from trackfuse.metrics import consensus_accuracy, detection_ious, matched_objects

        cfg = tf.SynthConfig(n_views=5, n_objects=3, seed=2)
        ds, gt = tf.generate_scene(cfg)
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        matched = matched_objects(detection_ious(ds, gt))
        [acc] = consensus_accuracy(result, gt, matched)
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
