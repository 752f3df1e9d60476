"""The JSON/JSONL helpers of trackfuse.records and the loaders built on them."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse as tf
from trackfuse.consensus import load_consensus, save_consensus
from trackfuse.errors import SchemaError
from trackfuse.keyframes import ExternalDescriptions, run_keyframes
from trackfuse.records import (
    LabelEmbedding,
    load_dataset,
    load_descriptions,
    read_json,
    read_jsonl,
    save_dataset,
    save_descriptions,
    text_embedding,
    write_json,
    write_jsonl,
)
from trackfuse.tracking import load_tracks, save_tracks

DIM = 8


class TestHelpers:
    def test_write_jsonl_matches_canonical_lines(self, tmp_path):
        write_jsonl([{"b": 1, "a": [1.5, None]}, {}], tmp_path / "x.jsonl")
        assert (tmp_path / "x.jsonl").read_text() == '{"a":[1.5,null],"b":1}\n{}\n'
        write_jsonl([], tmp_path / "empty.jsonl")
        assert (tmp_path / "empty.jsonl").read_text() == ""

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "x.json"
        write_json({"old": 1}, path)

        def failing_replace(src, dst):
            raise OSError("injected")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            write_json({"new": 2}, path)
        assert read_json(path) == {"old": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]

    def test_errors_name_path_and_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n{"a": \n')
        with pytest.raises(SchemaError, match=r"x\.jsonl:3: invalid JSON"):
            read_jsonl(path, lambda obj: obj)
        path.write_text('{"a": 1}\n[]\n')
        with pytest.raises(SchemaError, match=r"x\.jsonl:2: malformed record: TypeError"):
            read_jsonl(path, lambda obj: obj["a"])

    def test_non_utf8_is_schema_error(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(SchemaError, match=r"x\.json: not UTF-8"):
            read_json(path)


class TestNonFiniteVectors:
    def test_nan_embedding_rejected(self):
        with pytest.raises(SchemaError, match="unit-norm"):
            LabelEmbedding("cup", np.full(DIM, np.nan))

    def test_nan_in_embeddings_file_names_file(self, tmp_path):
        ds, _ = tf.generate_scene(tf.SynthConfig(n_views=2, n_objects=1, dim=DIM, seed=1))
        manifest = save_dataset(ds, tmp_path / "scene")
        path = tmp_path / "scene" / "embeddings.json"
        emb = json.loads(path.read_text())
        emb[sorted(emb)[0]][0] = float("nan")
        path.write_text(json.dumps(emb))
        with pytest.raises(SchemaError, match=r"embeddings\.json: embedding"):
            load_dataset(manifest)

    def test_non_finite_referral_vector_rejected(self, tmp_path):
        vec = text_embedding("the red cup", DIM)
        vec[0] = np.inf
        sets = [tf.DescriptionSet(track_id=0, category="cup", referrals=[("the red cup", vec)])]
        save_descriptions(sets, tmp_path / "d.jsonl")
        with pytest.raises(SchemaError, match=r"d\.jsonl:1: referral vector is not finite"):
            load_descriptions(tmp_path / "d.jsonl", dim=DIM)

    @pytest.mark.parametrize("vec, problem", [([np.nan] * DIM, "not finite"), ([1.0] * 3, "shape")])
    def test_bad_caption_vector_rejected(self, tmp_path, vec, problem):
        path = tmp_path / "ext.jsonl"
        path.write_text(json.dumps({"track": 0, "view": 0, "texts": ["t"], "vecs": [vec]}) + "\n")
        with pytest.raises(SchemaError, match=rf"ext\.jsonl:1: caption vector .*{problem}"):
            ExternalDescriptions.load(path, dim=DIM)


# --------------------------------------------------------------------------
# fuzz: every JSONL loader turns a malformed line into a SchemaError that
# starts with path:lineno, and raises nothing else

LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85  "
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
RAW_NUMBERS = st.sampled_from(["1e400", "-1e400", "NaN", "Infinity", "1" * 5000, "-1"])


@pytest.fixture(scope="module")
def loaders(tmp_path_factory):
    """JSONL file and loader per kind, for a small scene."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = tf.SynthConfig(n_views=3, n_objects=2, height=16, width=16, dim=DIM, seed=2)
    ds, _ = tf.generate_scene(cfg)
    manifest = save_dataset(ds, root / "scene")
    trajectories = tf.import_tracks(ds)
    save_tracks(trajectories, root / "tracks.jsonl")
    records = tf.run_consensus(ds, trajectories).records
    save_consensus(records, root / "consensus.jsonl")
    save_descriptions(run_keyframes(ds, records), root / "descriptions.jsonl")
    vec = text_embedding("t", DIM).tolist()
    write_jsonl(
        (
            {"track": rec.track_id, "view": view, "texts": ["t"], "vecs": [vec]}
            for rec in records
            for view, _ in rec.members
        ),
        root / "captions.jsonl",
    )
    return {
        "detections": (root / "scene" / "detections.jsonl", lambda: load_dataset(manifest)),
        "tracks": (root / "tracks.jsonl", lambda: load_tracks(root / "tracks.jsonl", ds)),
        "consensus": (root / "consensus.jsonl", lambda: load_consensus(root / "consensus.jsonl", ds)),
        "descriptions": (
            root / "descriptions.jsonl",
            lambda: load_descriptions(root / "descriptions.jsonl", dim=DIM),
        ),
        "captions": (
            root / "captions.jsonl",
            lambda: ExternalDescriptions.load(root / "captions.jsonl", dim=DIM),
        ),
    }


def malformed_lines(record: dict):
    """Arbitrary text and JSON, and the record with one field replaced or dropped."""
    keys = st.sampled_from(sorted(record))
    return st.one_of(
        st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS)),
        JSON_VALUES.map(json.dumps),
        st.tuples(keys, JSON_VALUES).map(lambda kv: json.dumps(record | {kv[0]: kv[1]})),
        st.tuples(keys, RAW_NUMBERS).map(
            lambda kv: json.dumps(record | {kv[0]: "RAW"}).replace('"RAW"', kv[1])
        ),
        keys.map(lambda key: json.dumps({k: v for k, v in record.items() if k != key})),
    )


@pytest.mark.parametrize("kind", ["detections", "tracks", "consensus", "descriptions", "captions"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_last_line_is_schema_error(loaders, kind, data):
    path, load = loaders[kind]
    original = path.read_text()
    lines = original.splitlines()
    # the last line, so that a clash with another track is reported on it too
    line = data.draw(malformed_lines(json.loads(lines[-1])), label="line")
    path.write_text("\n".join(lines[:-1] + [line]) + "\n")
    try:
        load()
    except SchemaError as exc:
        assert str(exc).startswith(f"{path}:{len(lines)}: ")
    else:
        assert not line.strip() or isinstance(json.loads(line), dict)
    finally:
        path.write_text(original)
