import json

import numpy as np
import pytest

import trackfuse as tf
from trackfuse.errors import SchemaError
from trackfuse.records import (
    DescriptionSet,
    load_dataset,
    load_descriptions,
    save_dataset,
    save_descriptions,
    text_embedding,
)


def read_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestRoundTrip:
    def test_empty_dataset(self, tmp_path):
        ds = tf.SceneDataset(
            n_views=0, height=4, width=4, dim=3, detections=[], embeddings={}
        )
        manifest = save_dataset(ds, tmp_path / "empty")
        loaded = load_dataset(manifest)
        assert loaded.n_views == 0
        assert loaded.detections == []

    def test_synthetic_scene_byte_identical(self, tmp_path):
        cfg = tf.SynthConfig(n_views=5, n_objects=2, seed=1)
        ds, _ = tf.generate_scene(cfg)
        save_dataset(ds, tmp_path / "a")
        loaded = load_dataset(tmp_path / "a")
        save_dataset(loaded, tmp_path / "b")
        assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")

    def test_descriptions_roundtrip(self, tmp_path):
        vec = text_embedding("the red cup", 8)
        sets = [
            DescriptionSet(track_id=2, category="cup", referrals=[("the red cup", vec)], keyframe=3)
        ]
        save_descriptions(sets, tmp_path / "d.jsonl")
        loaded = load_descriptions(tmp_path / "d.jsonl", dim=8)
        assert loaded[0].track_id == 2
        assert loaded[0].category == "cup"
        assert loaded[0].keyframe == 3
        assert loaded[0].referrals[0][0] == "the red cup"
        assert np.array_equal(loaded[0].referrals[0][1], vec)


class TestValidation:
    def test_confidence_above_one_rejected(self):
        mask = tf.rle_encode(np.zeros((2, 2), dtype=bool))
        with pytest.raises(SchemaError, match="confidence"):
            tf.Detection(view=0, mask=mask, raw_label="cup", confidence=1.2)

    def test_bad_line_reports_line_number(self, tmp_path):
        cfg = tf.SynthConfig(n_views=2, n_objects=1, seed=1)
        ds, _ = tf.generate_scene(cfg)
        manifest = save_dataset(ds, tmp_path / "scene")
        det_path = tmp_path / "scene" / "detections.jsonl"
        lines = det_path.read_text().splitlines()
        bad = json.loads(lines[1])
        bad["conf"] = 1.5
        lines[1] = json.dumps(bad)
        det_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"detections\.jsonl:2"):
            load_dataset(manifest)

    def test_mask_dimension_mismatch_rejected(self, tmp_path):
        cfg = tf.SynthConfig(n_views=2, n_objects=1, seed=1)
        ds, _ = tf.generate_scene(cfg)
        manifest = save_dataset(ds, tmp_path / "scene")
        det_path = tmp_path / "scene" / "detections.jsonl"
        lines = det_path.read_text().splitlines()
        bad = json.loads(lines[0])
        bad["mask"] = {"h": 2, "w": 2, "counts": [4]}
        lines[0] = json.dumps(bad)
        det_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"detections\.jsonl:1: detection mask is 2x2"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d | {"view": 1.0}, "view must be an integer, got 1.0"),
            (lambda d: d | {"view": True}, "view must be an integer, got True"),
            (lambda d: d | {"track": 2.5}, "track must be an integer, got 2.5"),
            (lambda d: d | {"track": "3"}, "track must be an integer, got '3'"),
            (lambda d: d | {"mask": d["mask"] | {"h": float(d["mask"]["h"])}}, "mask h must be an integer"),
            (lambda d: d | {"mask": d["mask"] | {"counts": [c + 0.0 for c in d["mask"]["counts"]]}},
             "mask counts must be integers"),
        ],
    )
    def test_non_integer_field_names_the_line(self, tmp_path, edit, message):
        # each edit keeps the value numerically valid, so only its type is wrong
        cfg = tf.SynthConfig(n_views=2, n_objects=1, seed=1)
        ds, _ = tf.generate_scene(cfg)
        manifest = save_dataset(ds, tmp_path / "scene")
        det_path = tmp_path / "scene" / "detections.jsonl"
        lines = det_path.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        det_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=rf"detections\.jsonl:2: {message}"):
            load_dataset(manifest)

    def test_non_unit_embedding_rejected(self, tmp_path):
        cfg = tf.SynthConfig(n_views=2, n_objects=1, seed=1)
        ds, _ = tf.generate_scene(cfg)
        manifest = save_dataset(ds, tmp_path / "scene")
        emb_path = tmp_path / "scene" / "embeddings.json"
        emb = json.loads(emb_path.read_text())
        label = sorted(emb)[0]
        emb[label] = [2.0 * x for x in emb[label]]
        emb_path.write_text(json.dumps(emb))
        with pytest.raises(SchemaError, match="unit-norm"):
            load_dataset(manifest)

    def test_missing_manifest_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"n_views": 1}))
        with pytest.raises(SchemaError, match="missing key"):
            load_dataset(path)


class TestTextEmbedding:
    def test_unit_norm(self):
        vec = text_embedding("anything at all", 32)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(text_embedding("cup", 16), text_embedding("cup", 16))

    def test_distinct_texts_differ(self):
        assert not np.array_equal(text_embedding("cup", 16), text_embedding("mug", 16))
