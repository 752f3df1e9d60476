import json
import os
import shutil
from dataclasses import FrozenInstanceError, fields, is_dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

import trackfuse as tf
from trackfuse import consensus, metrics, records
from trackfuse.cli import main
from trackfuse.consensus import ConsensusRecord, load_consensus, save_consensus
from trackfuse.errors import SchemaError
from trackfuse.field import field_from_ground_truth, load_field, save_field
from trackfuse.keyframes import run_keyframes
from trackfuse.metrics import detection_ious
from trackfuse.records import (
    DescriptionSet,
    LabelEmbedding,
    load_dataset,
    load_descriptions,
    save_dataset,
    save_descriptions,
    text_embedding,
)
from trackfuse.synth import GroundTruth, load_ground_truth, save_ground_truth
from trackfuse.tracking import load_tracks, save_tracks

from oracles import clustering_fields, rebuilt


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
        assert loaded.first.tolist() == [0] and loaded.masks == ()

    @staticmethod
    def mixed_scene():
        """Three views, the middle one empty; "bowl" is seen in the last view only, and some rows
        carry a track while others carry none."""
        mask = tf.rle_encode(np.eye(4, dtype=bool))
        emb = {lab: LabelEmbedding(lab, text_embedding(lab, 3)) for lab in ("cup", "bowl")}
        views = [[("cup", 0.5, 7), ("cup", 1.0, -1)], [], [("bowl", 0.25, -1), ("cup", 0.75, 2)]]
        detections = [[(mask, label, conf, track) for label, conf, track in dets] for dets in views]
        return tf.SceneDataset(n_views=3, height=4, width=4, dim=3, detections=detections, embeddings=emb)

    @pytest.mark.parametrize("scene", ["synthetic", "mixed"])
    def test_scene_byte_identical(self, tmp_path, scene):
        if scene == "synthetic":
            ds, _ = tf.generate_scene(tf.SynthConfig(n_views=5, n_objects=2, seed=1))
        else:
            ds = self.mixed_scene()
            assert ds.first.tolist() == [0, 2, 2, 4] and ds.labels == ("bowl", "cup")
            assert ds.label.tolist() == [1, 1, 0, 1] and ds.track.tolist() == [7, -1, -1, 2]
            assert ds.confidence.tolist() == [0.5, 1.0, 0.25, 0.75]
        save_dataset(ds, tmp_path / "a")
        loaded = load_dataset(tmp_path / "a")
        save_dataset(loaded, tmp_path / "b")
        assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")
        assert columns(loaded) == columns(ds)

    def test_lines_out_of_view_order_load_to_the_same_columns(self, tmp_path):
        # a line is filed under its own view, whatever line comes before it
        ds, _ = tf.generate_scene(tf.SynthConfig(n_views=4, n_objects=3, seed=1))
        manifest = save_dataset(ds, tmp_path / "scene")
        det_path = manifest.parent / "detections.jsonl"
        lines = det_path.read_text().splitlines(keepends=True)
        ordered = load_dataset(manifest)
        blocks = [[line for line in lines if json.loads(line)["view"] == view] for view in range(ds.n_views)]
        assert all(len(block) > 1 for block in blocks)
        det_path.write_text("".join(line for block in reversed(blocks) for line in block))
        backwards = load_dataset(manifest)
        assert columns(backwards) == columns(ordered) == columns(ds)

    def test_descriptions_roundtrip(self, tmp_path):
        vec = text_embedding("the red cup", 8)
        sets = [
            DescriptionSet(track_id=2, category="cup", referrals=[("the red cup", vec)], keyframe=3)
        ]
        save_descriptions(sets, tmp_path / "d.jsonl", tf.SceneDataset(1, 1, 1, 8, [[]], {}))
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
            tf.SceneDataset(1, 2, 2, 3, [[(mask, "cup", 1.2, -1)]], {})

    def test_detection_of_another_size_or_with_a_track_id_past_int64_rejected(self, tmp_path):
        mask = tf.rle_encode(np.zeros((2, 2), dtype=bool))
        with pytest.raises(SchemaError, match="detection mask is 2x2, dataset is 3x3"):
            tf.SceneDataset(2, 3, 3, 3, [[(mask, "cup", 1.0, -1)], []], {})
        for track in (-2, 2**63):
            with pytest.raises(SchemaError, match=rf"track_id must be in \[0, 2\*\*63\), got {track}"):
                tf.SceneDataset(1, 2, 2, 3, [[(mask, "cup", 1.0, track)]], {})
        ds, _ = tf.generate_scene(tf.SynthConfig(n_views=2, n_objects=1, seed=1))
        manifest = save_dataset(ds, tmp_path / "scene")
        det_path = tmp_path / "scene" / "detections.jsonl"
        lines = det_path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]) | {"track": 2**63})
        det_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"detections\.jsonl:2: track_id must be in \[0, 2\*\*63\), got 9223372036854775808"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"view": -1}, "view index must be nonnegative, got -1"),
            ({"view": 2}, "detection view 2 >= n_views 2"),
            ({"track": -1}, r"track_id must be in \[0, 2\*\*63\), got -1"),
            ({"label": ""}, "detection label must be a non-empty string, got ''"),
        ],
    )
    def test_line_out_of_range_names_the_line(self, tmp_path, edit, message):
        # a track of -1 in a line is refused, not read as the column's "no track"
        ds, _ = tf.generate_scene(tf.SynthConfig(n_views=2, n_objects=1, seed=1))
        manifest = save_dataset(ds, tmp_path / "scene")
        det_path = tmp_path / "scene" / "detections.jsonl"
        lines = det_path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]) | edit)
        det_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=rf"detections\.jsonl:2: {message}"):
            load_dataset(manifest)

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
    return kept_scene(root)["dataset"]


def fresh_parse(manifest):
    """``load_dataset`` of ``manifest`` with every kept value forgotten, so that it parses."""
    records.forget_kept()
    return load_dataset(manifest)


def columns(ds):
    """The detection columns of ``ds`` as plain data, for ==."""
    return (ds.first.tolist(), ds.labels, ds.label.tolist(), ds.confidence.tolist(), ds.track.tolist(),
            [mask.to_json() for mask in ds.masks], ds.area.tolist(), ds.packed.tolist())


def assert_same_dataset(a, b):
    assert (a.n_views, a.height, a.width, a.dim) == (b.n_views, b.height, b.width, b.dim)
    assert columns(a) == columns(b)
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


def kept_scene(root, n_views=3, dim=32):
    """A saved scene with every input kind the process keeps; returns each file's path by kind."""
    ds, gt = tf.generate_scene(tf.SynthConfig(n_views=n_views, n_objects=2, seed=1, dim=dim))
    ds = rebuilt(ds, descriptions=[
        DescriptionSet(track_id=t, category="cup", referrals=[(text, text_embedding(text, ds.dim))], keyframe=t)
        for t, text in enumerate(["the left cup", "the right cup"])
    ])
    tracks = tf.import_tracks(ds)
    paths = {kind: root / name for kind, name in (
        ("tracks", "tracks.jsonl"), ("consensus", "consensus.jsonl"),
        ("descriptions", "descriptions.jsonl"), ("ground_truth", "ground_truth.json"))}
    paths["dataset"] = save_dataset(ds, root / "scene")
    save_tracks(tracks, paths["tracks"], ds)
    save_consensus(tf.run_consensus(ds, tracks).records, paths["consensus"], ds)
    save_descriptions(ds.descriptions, paths["descriptions"], ds)
    save_ground_truth(gt, paths["ground_truth"])
    return paths


READERS = {
    "dataset": lambda path, ds: load_dataset(path),
    "tracks": load_tracks,
    "consensus": load_consensus,
    "descriptions": lambda path, ds: load_descriptions(path, dim=ds.dim),
    "ground_truth": load_ground_truth,
}


def plain(value):
    """A reader's value as plain data, for ==."""
    if isinstance(value, tf.SceneDataset):
        return (value.n_views, value.height, value.width, value.dim, value.key,
                columns(value),
                {label: emb.vector.tolist() for label, emb in value.embeddings.items()},
                [d.to_json() for d in value.descriptions])
    if isinstance(value, GroundTruth):
        return value.key, value.to_json()
    return [item.to_json() if hasattr(item, "to_json") else (item.track_id, item.members) for item in value]


def writes(value) -> list:
    """Each write a caller could make to a reader's value when it was built of lists, dicts and
    plain records, as a call; each must raise now."""
    if isinstance(value, tf.SceneDataset):
        mask, desc = value.masks[0], value.descriptions[0]
        return [
            lambda: setattr(mask, "counts", ()),
            lambda: value.masks.append(mask),
            lambda: value.label.__setitem__(0, 1),
            lambda: value.first.__setitem__(1, 0),
            lambda: value.packed.__setitem__((0, 0), 255),
            lambda: setattr(value, "label", np.zeros_like(value.label)),
            lambda: setattr(value, "packed", np.zeros_like(value.packed)),
            lambda: desc.referrals.append(("another cup", text_embedding("another cup", value.dim))),
            lambda: value.embeddings.clear(),
            lambda: value.embeddings.__setitem__("plate", value.embeddings["cup"]),
            lambda: value.embedding("cup").__setitem__(0, 1.0),
            lambda: desc.referrals[0][1].__setitem__(0, 1.0),
            lambda: setattr(value, "descriptions", None),
        ]
    if isinstance(value, GroundTruth):
        obj = value.objects[0]
        return [
            lambda: setattr(obj, "identity", "plate"),
            lambda: obj.visible.__setitem__(0, not obj.visible[0]),
            lambda: obj.centers.__setitem__(0, (0.0, 0.0)),
            lambda: obj.masks.pop(),
            lambda: value.objects.append(obj),
        ]
    first = value[0]
    own = []
    if isinstance(first, ConsensusRecord):
        own = [lambda: first.votes.__setitem__("plate", 1), lambda: setattr(first, "canonical", "plate")]
    elif isinstance(first, DescriptionSet):
        own = [lambda: setattr(first, "category", "plate"),
               lambda: first.referrals.append(("another cup", text_embedding("another cup", 32)))]
    return own + [lambda: value.append(first), lambda: value.reverse()]


def copy_input(paths, kind, root):
    """The path of a copy of ``kind``'s file(s) under ``root``."""
    if kind == "dataset":
        return shutil.copytree(paths["dataset"].parent, root / "scene") / "manifest.json"
    root.mkdir()
    return Path(shutil.copy(paths[kind], root / paths[kind].name))


def count_json_loads(monkeypatch) -> list:
    decoded = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(a) or real_loads(*a, **k))
    return decoded


KINDS = list(READERS)
CHECKED = ["tracks", "consensus", "ground_truth"]  # the kinds read against a dataset


class TestKeptDataset:
    """Each input kind, the dataset first, is kept by the sha256 of its bytes (and its dataset's key),
    not by path or mtime, and a hit returns the kept value itself, which is read-only."""

    def test_second_load_decodes_no_json_and_equals_a_fresh_parse(self, tmp_path, monkeypatch):
        manifest = described_scene(tmp_path)
        load_dataset(manifest)
        decoded = []
        real_loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(a) or real_loads(*a, **k))
        again = load_dataset(manifest)
        assert decoded == []
        fresh = fresh_parse(manifest)
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
        assert_same_dataset(second, fresh_parse(manifest))

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


    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bytes_under_another_path_decode_no_json(self, tmp_path, monkeypatch, kind):
        paths = kept_scene(tmp_path)
        ds = load_dataset(paths["dataset"])
        first = READERS[kind](paths[kind], ds)
        other = copy_input(paths, kind, tmp_path / "elsewhere")
        decoded = count_json_loads(monkeypatch)
        again = READERS[kind](other, ds)
        assert decoded == []
        assert plain(again) == plain(first)
        records.forget_kept()
        fresh = READERS[kind](other, load_dataset(paths["dataset"]))
        assert decoded
        assert plain(again) == plain(fresh)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_edited_byte_parses_again(self, tmp_path, monkeypatch, kind):
        paths = kept_scene(tmp_path)
        ds = load_dataset(paths["dataset"])
        READERS[kind](paths[kind], ds)
        path = paths["dataset"].parent / "detections.jsonl" if kind == "dataset" else paths[kind]
        data = path.read_bytes()
        assert data.endswith(b"\n")
        path.write_bytes(data[:-1] + b" ")  # the same records: JSON ignores the trailing space
        decoded = count_json_loads(monkeypatch)
        again = READERS[kind](paths[kind], ds)
        assert decoded
        records.forget_kept()
        assert plain(again) == plain(READERS[kind](paths[kind], load_dataset(paths["dataset"])))

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_hit_returns_the_kept_value_itself(self, tmp_path, kind):
        paths = kept_scene(tmp_path)
        ds = load_dataset(paths["dataset"])
        first = READERS[kind](paths[kind], ds)
        assert READERS[kind](paths[kind], ds) is first

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_write_raises_and_the_next_read_equals_a_fresh_parse(self, tmp_path, kind):
        paths = kept_scene(tmp_path)
        ds = load_dataset(paths["dataset"])
        first = READERS[kind](paths[kind], ds)
        want = plain(first)
        for write in writes(first):
            with pytest.raises((AttributeError, TypeError, ValueError)):
                write()
        assert plain(first) == want
        again = READERS[kind](paths[kind], ds)
        records.forget_kept()
        assert plain(again) == plain(READERS[kind](paths[kind], load_dataset(paths["dataset"])))

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("tracks", r"track 0: member \(2, 0\) is not a detection of the dataset"),
            ("consensus", r"track 0: member \(2, 0\) is not a detection of the dataset"),
            ("descriptions", r"referral vector has shape \(32,\), expected \(16,\)"),
            ("ground_truth", "object 0: 3 masks, the dataset has 2 views"),
        ],
    )
    def test_bytes_passed_against_one_dataset_are_refused_against_another(self, tmp_path, kind, message):
        paths = kept_scene(tmp_path / "a")
        READERS[kind](paths[kind], load_dataset(paths["dataset"]))
        smaller = load_dataset(kept_scene(tmp_path / "b", n_views=2, dim=16)["dataset"])
        with pytest.raises(SchemaError, match=rf"{paths[kind]}(:1)?: {message}"):
            READERS[kind](paths[kind], smaller)

    @pytest.mark.parametrize("kind", CHECKED)
    def test_dataset_not_read_from_files_keeps_nothing(self, tmp_path, monkeypatch, kind):
        paths = kept_scene(tmp_path)
        loaded = load_dataset(paths["dataset"])
        built = rebuilt(loaded)  # no key, as for a dataset built in memory
        assert built.key is None
        READERS[kind](paths[kind], built)
        decoded = count_json_loads(monkeypatch)
        value = READERS[kind](paths[kind], built)
        assert decoded
        if kind == "ground_truth":
            assert value.key is None
            assert detection_ious(built, value) is not detection_ious(built, value)

    def test_detection_ious_are_kept_per_dataset_and_ground_truth(self, tmp_path, monkeypatch):
        paths = kept_scene(tmp_path)
        ds = load_dataset(paths["dataset"])
        first = detection_ious(ds, load_ground_truth(paths["ground_truth"], ds))
        calls = []
        real = metrics.iou_table
        monkeypatch.setattr(metrics, "iou_table", lambda *a: calls.append(a) or real(*a))
        again = detection_ious(load_dataset(paths["dataset"]), load_ground_truth(paths["ground_truth"], ds))
        assert calls == []
        assert again is first
        with pytest.raises(ValueError, match="read-only"):
            again[...] = 0.0
        # read against another dataset of the same views: the same bytes under another key
        other = load_ground_truth(copy_input(paths, "ground_truth", tmp_path / "other"),
                                  load_dataset(kept_scene(tmp_path / "b", dim=16)["dataset"]))
        assert detection_ious(ds, other).tolist() == first.tolist()
        assert len(calls) == ds.n_views

    def test_member_table_is_kept_per_dataset_and_tracks(self, tmp_path):
        paths = kept_scene(tmp_path)
        ds = load_dataset(paths["dataset"])
        tracks = load_tracks(paths["tracks"], ds)
        # the same detections in other tracks: the first track split in two
        head, *rest = tracks[0].members
        split = (tf.Trajectory(0, (head,)), tf.Trajectory(7, tuple(rest)), *tracks[1:])
        first = consensus.member_table(ds, tracks)
        second = consensus.member_table(ds, split)
        assert consensus.member_table(ds, split) is second
        records.forget_kept()
        fresh = consensus.member_table(ds, split)
        assert fresh is not second
        for name in (f.name for f in fields(fresh)):
            want, got = getattr(fresh, name), getattr(second, name)
            assert (got.tolist() == want.tolist()) if isinstance(want, np.ndarray) else got == want, name
        assert second.owner.tolist() != first.owner.tolist()


def assert_identical(a, b, where="value"):
    """``a`` and ``b`` are the same value: the same types throughout, sequences and maps in the same
    order, and arrays of one dtype, shape and read-only flag, with the same bytes."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, float):
        assert a.hex() == b.hex(), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{where}[{k}]")
    elif isinstance(a, Mapping):
        assert list(a) == list(b), where
        for key in a:
            assert_identical(a[key], b[key], f"{where}[{key!r}]")
    elif is_dataclass(a):
        for f in fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    else:
        assert a == b, where


def written_scene(root):
    """The dataset of ``kept_scene``, read from its files, and its ground truth."""
    paths = kept_scene(root)
    ds = load_dataset(paths["dataset"])
    return ds, load_ground_truth(paths["ground_truth"], ds)


def saved_values(ds, gt):
    """What each stage of ``ds`` writes, by kind: the values their savers take."""
    tracks = tf.import_tracks(ds)
    consensus_records = tf.run_consensus(ds, tracks).records
    field_ = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
    field_.features = np.random.default_rng(0).standard_normal(field_.features.shape)
    return {
        "tracks": tracks,
        "consensus": consensus_records,
        "descriptions": run_keyframes(ds, consensus_records),
        "field": field_,
    }


SAVERS = {"tracks": save_tracks, "consensus": save_consensus, "descriptions": save_descriptions, "field": save_field}
LOADERS = {
    "tracks": load_tracks,
    "consensus": load_consensus,
    "descriptions": lambda path, ds: load_descriptions(path, dim=ds.dim),
    "field": load_field,
}


def refused_values(ds, gt):
    """A value per kind that its saver writes and its reader refuses."""
    text = "the cup"
    field_ = saved_values(ds, gt)["field"]
    field_.features[1, 2] = np.nan
    return {
        "tracks": [tf.Trajectory(0, ((0, int(ds.first[1] - ds.first[0])),))],
        "consensus": [ConsensusRecord(track_id=0, canonical="cup", votes={"cup": 2}, members=((0, 0),))],
        "descriptions": [DescriptionSet(0, "cup", [(text, 2.0 * text_embedding(text, ds.dim))])],
        "field": field_,
    }


class TestKeptWrite:
    """A stage's saver keeps the value the reader would give for the bytes it wrote, so that a later
    stage of the same process parses none of them."""

    @pytest.mark.parametrize("kind", list(SAVERS))
    def test_kept_value_equals_a_fresh_read(self, tmp_path, monkeypatch, kind):
        ds, gt = written_scene(tmp_path)
        path = tmp_path / f"written-{kind}"
        SAVERS[kind](saved_values(ds, gt)[kind], path, ds)
        decoded = count_json_loads(monkeypatch)
        kept_value = LOADERS[kind](path, ds)
        assert decoded == []
        records.forget_kept()
        fresh = LOADERS[kind](path, ds)
        assert decoded
        assert_identical(kept_value, fresh)

    @pytest.mark.parametrize("kind", list(SAVERS))
    def test_a_dataset_built_in_memory_keeps_nothing(self, tmp_path, monkeypatch, kind):
        ds, gt = written_scene(tmp_path)
        path = tmp_path / f"written-{kind}"
        SAVERS[kind](saved_values(ds, gt)[kind], path, rebuilt(ds))
        decoded = count_json_loads(monkeypatch)
        LOADERS[kind](path, ds)
        assert decoded

    @pytest.mark.parametrize("kind", list(SAVERS))
    def test_a_value_the_reader_refuses_is_refused_as_in_a_fresh_process(self, tmp_path, kind):
        ds, gt = written_scene(tmp_path)
        path = tmp_path / f"written-{kind}"
        SAVERS[kind](refused_values(ds, gt)[kind], path, ds)
        with pytest.raises(SchemaError) as same_process:
            LOADERS[kind](path, ds)
        records.forget_kept()
        with pytest.raises(SchemaError) as fresh:
            LOADERS[kind](path, ds)
        assert str(same_process.value) == str(fresh.value)
        assert str(path) in str(fresh.value)

    def test_field_with_a_nan_feature_is_refused_naming_it(self, tmp_path):
        ds, gt = written_scene(tmp_path)
        save_field(refused_values(ds, gt)["field"], tmp_path / "model.json", ds)
        with pytest.raises(SchemaError, match=f"{tmp_path / 'model.json'}: gaussian 1: feature is not finite"):
            load_field(tmp_path / "model.json", ds)

    def test_each_field_load_is_a_new_field_around_the_kept_arrays(self, tmp_path, monkeypatch):
        ds, gt = written_scene(tmp_path)
        path = tmp_path / "field_geometry.json"
        save_field(saved_values(ds, gt)["field"], path, ds)
        first, decoded = load_field(path, ds), count_json_loads(monkeypatch)
        again = load_field(path, ds)
        assert decoded == []
        assert again is not first
        assert again.features is first.features and again.gaussians is first.gaussians
        for array in (first.features, first.gaussians):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        first.features = np.zeros_like(first.features)
        first.gaussians = np.zeros_like(first.gaussians)
        reloaded = load_field(path, ds)
        assert reloaded.features is again.features and reloaded.gaussians is again.gaussians

    def test_training_twice_from_one_kept_geometry_gives_one_model(self, tmp_path, monkeypatch):
        ds, gt = written_scene(tmp_path)
        values = saved_values(ds, gt)
        records_, descriptions = values["consensus"], values["descriptions"]
        geometry = values["field"]
        geometry.features = np.zeros_like(geometry.features)
        path = tmp_path / "field_geometry.json"
        save_field(geometry, path, ds)
        cfg = tf.TrainConfig(epochs=2)

        def trained(name):
            field_, _ = tf.train(load_field(path, ds), ds, records_, descriptions, cfg)
            save_field(field_, tmp_path / name, rebuilt(ds))  # keeps nothing
            return (tmp_path / name).read_bytes()

        decoded = count_json_loads(monkeypatch)
        first, second = trained("first.json"), trained("second.json")
        assert decoded == []
        records.forget_kept()
        assert first == second == trained("fresh.json")
        assert decoded


class TestKeptClustering:
    """``cluster_synonyms`` keeps the last label set's complete linkage, and cuts it at every tau_sem."""

    @staticmethod
    def counted(monkeypatch) -> list:
        """The label count of each agglomeration made."""
        calls = []
        real = consensus._agglomerate
        monkeypatch.setattr(consensus, "_agglomerate", lambda *a: calls.append(len(a[0])) or real(*a))
        return calls

    def test_hit_equals_a_fresh_call_at_the_same_and_higher_tau(self, noisy_scene, monkeypatch):
        ds, _ = noisy_scene
        labels = list(ds.labels)
        calls = self.counted(monkeypatch)
        tf.cluster_synonyms(labels, ds.embeddings, 0.7)
        for tau in (0.7, 0.8, 0.85, 0.95):
            got = tf.cluster_synonyms(labels, ds.embeddings, tau)
            assert calls == [len(labels)]
            records.forget_kept()
            assert clustering_fields(got) == clustering_fields(tf.cluster_synonyms(labels, ds.embeddings, tau))
            assert len(got.linkage) == len(labels) - 1 and len(got.canonical) > 1
            records.forget_kept()
            tf.cluster_synonyms(labels, ds.embeddings, 0.7)
            del calls[1:]

    def test_lower_tau_cuts_the_kept_merges(self, noisy_scene, monkeypatch):
        ds, _ = noisy_scene
        labels = list(ds.labels)
        calls = self.counted(monkeypatch)
        tf.cluster_synonyms(labels, ds.embeddings, 0.85)
        for tau in (0.5, 0.3, 0.05, 0.95):
            got = tf.cluster_synonyms(labels, ds.embeddings, tau)
            assert calls == [len(labels)]
            records.forget_kept()
            assert clustering_fields(got) == clustering_fields(tf.cluster_synonyms(labels, ds.embeddings, tau))
            records.forget_kept()
            fresh = tf.cluster_synonyms(labels, ds.embeddings, tau / 2)
            assert clustering_fields(got.at(tau / 2)) == clustering_fields(fresh)
            records.forget_kept()
            tf.cluster_synonyms(labels, ds.embeddings, 0.85)
            del calls[1:]

    def test_other_labels_or_vectors_agglomerate_again(self, noisy_scene, monkeypatch):
        ds, _ = noisy_scene
        labels = list(ds.labels)
        calls = self.counted(monkeypatch)
        tf.cluster_synonyms(labels, ds.embeddings, 0.8)
        tf.cluster_synonyms(labels[1:], ds.embeddings, 0.8)
        turned = dict(ds.embeddings) | {labels[0]: LabelEmbedding(labels[0], -ds.embeddings[labels[0]].vector)}
        tf.cluster_synonyms(labels, turned, 0.8)
        assert calls == [len(labels), len(labels) - 1, len(labels)]

    def test_callers_share_one_read_only_linkage(self, noisy_scene):
        ds, _ = noisy_scene
        labels = list(ds.labels)
        first = tf.cluster_synonyms(labels, ds.embeddings, 0.8)
        again = tf.cluster_synonyms(labels, ds.embeddings, 0.8)
        assert again.linkage is first.linkage and again.cluster is not first.cluster
        for arr in (first.linkage, first.cluster):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(FrozenInstanceError):
            first.canonical = ()
        assert clustering_fields(again) == clustering_fields(first)


class TestTextEmbedding:
    def test_unit_norm(self):
        vec = text_embedding("anything at all", 32)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(text_embedding("cup", 16), text_embedding("cup", 16))

    def test_distinct_texts_differ(self):
        assert not np.array_equal(text_embedding("cup", 16), text_embedding("mug", 16))
