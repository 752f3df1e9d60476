import json
import os

import numpy as np
import pytest

import trackfuse as tf
from trackfuse import records
from trackfuse.cli import main
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


def described_scene(root):
    """A saved 3-view scene with two tracks, each with a description set; returns its manifest."""
    ds, _ = tf.generate_scene(tf.SynthConfig(n_views=3, n_objects=2, seed=1))
    ds.descriptions = [
        DescriptionSet(track_id=t, category="cup", referrals=[(text, text_embedding(text, ds.dim))], keyframe=t)
        for t, text in enumerate(["the left cup", "the right cup"])
    ]
    return save_dataset(ds, root / "scene")


def fresh_parse(manifest, monkeypatch):
    """``load_dataset`` of ``manifest`` with the kept dataset forgotten, so that it parses."""
    monkeypatch.setattr(records, "_last", None)
    return load_dataset(manifest)


def assert_same_dataset(a, b):
    assert (a.n_views, a.height, a.width, a.dim, a.tracks_file) == (b.n_views, b.height, b.width, b.dim, b.tracks_file)
    assert [[(d.to_json(), d.resolved_label) for d in per_view] for per_view in a.detections] == [
        [(d.to_json(), d.resolved_label) for d in per_view] for per_view in b.detections
    ]
    assert sorted(a.embeddings) == sorted(b.embeddings)
    for label, emb in a.embeddings.items():
        assert emb.label == b.embeddings[label].label
        assert np.array_equal(emb.vector, b.embeddings[label].vector)
    assert [d.to_json() for d in a.descriptions] == [d.to_json() for d in b.descriptions]


def swap_first_lines(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([lines[1], lines[0], *lines[2:]]))


def swap_first_vectors(path):
    emb = json.loads(path.read_text())
    a, b = sorted(emb)[:2]
    emb[a], emb[b] = emb[b], emb[a]
    records.write_json(emb, path)


def rename_detections(path):
    # the same detections less the last line, under a name of the same length
    det = path.parent / "detections.jsonl"
    (path.parent / "detectionz.jsonl").write_text("".join(det.read_text().splitlines(keepends=True)[:-1]))
    path.write_text(path.read_text().replace('"detections.jsonl"', '"detectionz.jsonl"'))


class TestKeptDataset:
    """``load_dataset`` keeps the dataset it parsed last, keyed by the bytes of its files."""

    def test_second_load_decodes_no_json_and_equals_a_fresh_parse(self, tmp_path, monkeypatch):
        manifest = described_scene(tmp_path)
        load_dataset(manifest)
        decoded = []
        real_loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(a) or real_loads(*a, **k))
        again = load_dataset(manifest)
        assert decoded == []
        fresh = fresh_parse(manifest, monkeypatch)
        assert decoded  # the fresh parse did decode
        assert_same_dataset(again, fresh)

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", rename_detections),
            ("detections.jsonl", swap_first_lines),
            ("embeddings.json", swap_first_vectors),
            ("descriptions.jsonl", swap_first_lines),
        ],
    )
    def test_edit_keeping_size_and_mtime_gives_the_new_content(self, tmp_path, monkeypatch, name, edit):
        manifest = described_scene(tmp_path)
        path = manifest.parent / name
        first = load_dataset(manifest)
        before = path.stat()
        edit(path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        second = load_dataset(manifest)
        with pytest.raises(AssertionError):
            assert_same_dataset(first, second)
        assert_same_dataset(second, fresh_parse(manifest, monkeypatch))

    def test_caller_writes_do_not_reach_the_next_load(self, tmp_path, monkeypatch):
        manifest = described_scene(tmp_path)
        first = load_dataset(manifest)
        tf.propagate(first, tf.run_consensus(first, tf.import_tracks(first)).records)
        assert first.detections[0][0].resolved_label is not None
        first.detections[0].append(first.detections[1][0])
        first.descriptions[0].referrals.append(("another cup", text_embedding("another cup", first.dim)))
        for vec in [first.embedding("cup"), first.descriptions[0].referrals[0][1]]:
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 1.0
        assert_same_dataset(load_dataset(manifest), fresh_parse(manifest, monkeypatch))

    def test_bad_detection_line_after_a_good_load_exits_two_naming_it(self, tmp_path, capsys):
        manifest = described_scene(tmp_path)
        argv = ["associate", "--manifest", str(manifest), "--out", str(tmp_path / "tracks.jsonl")]
        assert main(argv) == 0
        det_path = manifest.parent / "detections.jsonl"
        lines = det_path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]) | {"conf": 1.5})
        det_path.write_text("\n".join(lines) + "\n")
        assert main(argv) == 2
        assert f"{det_path}:2: confidence must be in [0, 1], got 1.5" in capsys.readouterr().err


class TestTextEmbedding:
    def test_unit_norm(self):
        vec = text_embedding("anything at all", 32)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(text_embedding("cup", 16), text_embedding("cup", 16))

    def test_distinct_texts_differ(self):
        assert not np.array_equal(text_embedding("cup", 16), text_embedding("mug", 16))
