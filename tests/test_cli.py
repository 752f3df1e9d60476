import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from trackfuse import consensus, records, rle
from trackfuse.cli import STAGES, _train_config, load_config, main, run_pipeline
from trackfuse.consensus import load_consensus, run_consensus
from trackfuse.errors import StageError
from trackfuse.keyframes import run_keyframes
from trackfuse.metrics import consensus_accuracy, detection_ious, matched_objects
from trackfuse.field import load_field
from trackfuse.records import config_hash, dumps, forget_kept, load_dataset, load_descriptions, read_json
from trackfuse.synth import load_ground_truth
from trackfuse.tracking import load_tracks

from oracles import oracle_eval_miou

DATA = Path(__file__).parent / "data"
SRC = Path(consensus.__file__).resolve().parents[1]  # the directory that holds the trackfuse package

GROUP = '{"canonical": str, "synonyms": [str, ...]}'
SECTIONS = "synth, assoc, consensus, keyframe, train, eval"  # the config sections, as a refused top-level key's message lists them

SUBCOMMANDS = ["synth", "associate", "consensus", "keyframe", "train", "eval", "sweep", "run"]

SMALL_CONFIG = {
    "seed": 0,
    "synth": {"n_views": 4, "n_objects": 2, "height": 48, "width": 48},
    "train": {"epochs": 2},
}


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def tree_bytes(root: Path, exclude=("run.json",)):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestUsage:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_help_exits_zero(self, cmd):
        with pytest.raises(SystemExit) as err:
            main([cmd, "--help"])
        assert err.value.code == 0

    def test_top_level_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_invalid_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["consensus", "--bogus"])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_numeric_failure_exits_three(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG)
        cfg["train"] = {"epochs": 1}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        run_pipeline(load_config(None) | {"synth": SMALL_CONFIG["synth"]}, out)
        geometry = json.loads((out / "field_geometry.json").read_text())
        for g in geometry["gaussians"]:
            g["centers"] = [None] * len(g["centers"])  # no Gaussian inside any pseudo mask
        (out / "field_geometry.json").write_text(json.dumps(geometry))
        code = main(
            [
                "train",
                "--config",
                cfg_path,
                "--manifest",
                str(out / "dataset" / "manifest.json"),
                "--consensus",
                str(out / "consensus.jsonl"),
                "--descriptions",
                str(out / "descriptions.jsonl"),
                "--geometry",
                str(out / "field_geometry.json"),
                "--out",
                str(tmp_path / "model.json"),
            ]
        )
        assert code == 3
        assert "no Gaussian center inside the pseudo mask" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, tmp_path):
        code = main(
            [
                "consensus",
                "--manifest",
                str(tmp_path / "nope" / "manifest.json"),
                "--tracks",
                str(tmp_path / "nope.jsonl"),
                "--out",
                str(tmp_path / "c.jsonl"),
            ]
        )
        assert code == 2


class TestStages:
    def test_golden_consensus_output(self, tmp_path):
        cfg_path = str(DATA / "fixture_config.json")
        assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "scene")]) == 0
        manifest = tmp_path / "scene" / "dataset" / "manifest.json"
        assert main(
            [
                "associate",
                "--manifest",
                str(manifest),
                "--out",
                str(tmp_path / "tracks.jsonl"),
            ]
        ) == 0
        assert main(
            [
                "consensus",
                "--manifest",
                str(manifest),
                "--tracks",
                str(tmp_path / "tracks.jsonl"),
                "--tau-sem",
                "0.85",
                "--out",
                str(tmp_path / "consensus.jsonl"),
            ]
        ) == 0
        golden = (DATA / "golden_consensus.jsonl").read_bytes()
        assert (tmp_path / "consensus.jsonl").read_bytes() == golden

    def test_train_reads_a_manifest_directory_as_its_manifest_file(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        run_pipeline(load_config(cfg), out)
        argv = ["train", "--config", cfg, "--manifest", str(out / "dataset"), "--consensus",
                str(out / "consensus.jsonl"), "--descriptions", str(out / "descriptions.jsonl"),
                "--geometry", str(out / "field_geometry.json")]
        assert main(argv + ["--out", str(tmp_path / "model.json")]) == 0
        argv[4] = str(out / "dataset" / "manifest.json")
        assert main(argv + ["--out", str(tmp_path / "again.json")]) == 0
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_run_reads_an_empty_external_as_template_captions(self, tmp_path):
        cfg = {"seed": 0, "synth": {"n_views": 3, "n_objects": 2, "height": 32, "width": 32},
               "train": {"epochs": 1}}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "null")]) == 0
        (tmp_path / "empty").mkdir()
        empty = write_config(tmp_path / "empty", cfg | {"keyframe": {"external": ""}})
        assert main(["run", "--config", empty, "--out", str(tmp_path / "empty" / "run")]) == 0
        null = tmp_path / "null" / "descriptions.jsonl"
        assert (tmp_path / "empty" / "run" / "descriptions.jsonl").read_bytes() == null.read_bytes()

    def test_out_defaults_to_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRACKFUSE_OUT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["synth", "--config", cfg]) == 0
        assert (tmp_path / "root" / "scene" / "dataset" / "manifest.json").exists()

    def test_sweep_tau_sem(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        run_pipeline(load_config(cfg), out)
        code = main(
            [
                "sweep",
                "--manifest",
                str(out / "dataset" / "manifest.json"),
                "--tracks",
                str(out / "tracks.jsonl"),
                "--param",
                "tau_sem",
                "--values",
                "0.70,0.75,0.80,0.85,0.90",
                "--ground-truth",
                str(out / "ground_truth.json"),
                "--out",
                str(tmp_path / "sweep.csv"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        header = lines[0].split(",")
        counts = [float(row.split(",")[header.index("cluster_count")]) for row in lines[1:]]
        assert counts == sorted(counts)


    def test_sweep_sigma_matches_run_keyframes(self, tmp_path):
        noisy = SMALL_CONFIG | {"synth": SMALL_CONFIG["synth"] | {"n_views": 8, "noise": {"dropout_rate": 0.3}}}
        cfg = write_config(tmp_path, noisy)
        out = tmp_path / "run"
        run_pipeline(load_config(cfg), out)
        values = [0.5, 2.0, 10.0, 100.0]
        argv = ["sweep", "--config", cfg, "--manifest", str(out / "dataset" / "manifest.json"),
                "--tracks", str(out / "tracks.jsonl"), "--param", "sigma",
                "--values", ",".join(map(str, values)), "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,mean_keyframe,n_tracks"
        ds = load_dataset(out / "dataset" / "manifest.json")
        records = run_consensus(ds, load_tracks(out / "tracks.jsonl", ds)).records
        for line, value in zip(lines[1:], values, strict=True):
            descriptions = run_keyframes(ds, records, sigma=value)
            keyframes = [d.keyframe for d in descriptions]
            assert line.split(",") == [str(value), str(sum(keyframes) / len(keyframes)), str(len(keyframes))]

    def test_sweep_tau_sem_matches_per_value_consensus(self, tmp_path):
        noisy = SMALL_CONFIG | {"synth": SMALL_CONFIG["synth"] | {
            "n_views": 8, "noise": {"synonym_rate": 0.5, "wrong_label_rate": 0.1}}}
        cfg = write_config(tmp_path, noisy)
        out = tmp_path / "run"
        run_pipeline(load_config(cfg), out)
        # the lowest is not first, 0.9 is repeated, and 0.96 and 0.961 cut the same merges
        values = [0.9, 0.5, 0.97, 0.7, 0.99, 0.9, 0.96, 0.961]
        argv = ["sweep", "--config", cfg, "--manifest", str(out / "dataset" / "manifest.json"),
                "--tracks", str(out / "tracks.jsonl"), "--ground-truth", str(out / "ground_truth.json"),
                "--param", "tau_sem", "--values", ",".join(map(str, values)),
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,cluster_count,per_view_acc,tscm_acc"
        ds = load_dataset(out / "dataset" / "manifest.json")
        trajectories = load_tracks(out / "tracks.jsonl", ds)
        gt = load_ground_truth(out / "ground_truth.json", ds)
        matched = matched_objects(detection_ious(ds, gt))
        clusters = {}
        for line, value in zip(lines[1:], values, strict=True):
            result = run_consensus(ds, trajectories, tau_sem=value)
            [acc] = consensus_accuracy(result, gt, matched)
            clusters[value] = result.clustering.cluster.tolist()
            assert line.split(",") == [str(value), str(len(result.clustering.canonical)),
                                       str(acc["per_view_acc"]), str(acc["tscm_acc"])]
        assert len({len(set(c)) for c in clusters.values()}) > 2  # the values cut the merges at different depths
        assert clusters[0.96] == clusters[0.961] != clusters[0.97]
        assert lines[1] == lines[6]

    @pytest.mark.parametrize("param, matrices", [("tau_sem", 1), ("sigma", 0)])
    def test_sweep_tau_sem_builds_one_distance_matrix(self, tmp_path, monkeypatch, param, matrices):
        # the sigma sweep reads member areas from the tracks: it clusters nothing
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        run_pipeline(load_config(cfg), out)
        forget_kept()  # as in a process of its own
        calls = []
        build = consensus.cosine_distance_matrix
        monkeypatch.setattr(consensus, "cosine_distance_matrix", lambda e: calls.append(len(e)) or build(e))
        argv = ["sweep", "--manifest", str(out / "dataset" / "manifest.json"),
                "--tracks", str(out / "tracks.jsonl"), "--param", param,
                "--values", "0.70,0.75,0.80,0.85,0.90", "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert len(calls) == matrices


class TestPipeline:
    def test_zero_noise_report_is_perfect(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["tscm_acc"] == 1.0
        assert report["metrics"]["per_view_acc"] == 1.0
        assert "miou_short" in report["metrics"]
        assert "miou_long" in report["metrics"]

    def test_rerun_without_force_skips_and_preserves_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        main(["run", "--config", cfg, "--out", str(out)])
        before = tree_bytes(out)
        main(["run", "--config", cfg, "--out", str(out)])
        run_manifest = json.loads((out / "run.json").read_text())
        assert all(status == "skipped" for status in run_manifest["stages"].values())
        assert tree_bytes(out) == before

    def test_force_reruns_stages(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        main(["run", "--config", cfg, "--out", str(out)])
        main(["run", "--config", cfg, "--out", str(out), "--force"])
        run_manifest = json.loads((out / "run.json").read_text())
        assert all(status == "done" for status in run_manifest["stages"].values())

    def test_identical_config_and_seed_give_identical_artifacts(self, tmp_path):
        noisy = {
            "seed": 1,
            "synth": {
                "n_views": 5,
                "n_objects": 3,
                "height": 48,
                "width": 48,
                "noise": {"synonym_rate": 0.3, "wrong_label_rate": 0.1, "mask_jitter": 1},
            },
            "train": {"epochs": 2},
        }
        cfg = write_config(tmp_path, noisy)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(a)])
        main(["run", "--config", cfg, "--out", str(b)])
        assert tree_bytes(a) == tree_bytes(b)

    def test_trained_model_and_loss_curve_are_byte_identical(self, tmp_path):
        # sha256 of model.json and loss_curve.csv recorded before the train step reused its
        # buffers, and of report.json before eval counted pixels on bit-packed rows; model.json's
        # is of that file's document with each Gaussian's id and track taken out, dumped again.
        # A change here means the same config and seed no longer train or score the same field
        noisy = {
            "seed": 21,
            "synth": {"n_views": 6, "height": 32, "width": 32, "n_objects": 3,
                      "noise": {"synonym_rate": 0.35, "wrong_label_rate": 0.1, "mask_jitter": 1,
                                "strip_track_ids": True}},
            "assoc": {"mode": "greedy"},
            "train": {"epochs": 2, "spread": 4.0},
        }
        out = tmp_path / "run"
        assert main(["run", "--config", write_config(tmp_path, noisy), "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("model.json", "loss_curve.csv", "report.json")}
        assert digests == {
            "model.json": "8fc48456cc8ddad4510fc0a735dcbfd5d76c5f25b7abb127f0a541d527d27c9a",
            "loss_curve.csv": "e626732316335190cac41f2723bc456171717128e368319e9daa202be17076ed",
            "report.json": "00c2fb4fa83211f9340c0b419024c7c06dbc9c8e1b1146aa16d74cee1e3d30c9",
        }

    def test_stage_failure_names_stage(self, tmp_path):
        cfg = load_config(None)
        cfg["synth"] = {"n_views": 2, "n_objects": 1}
        cfg["consensus"]["tau_sem"] = 2.0  # invalid: consensus stage must fail
        with pytest.raises(StageError, match="stage 'consensus'") as err:
            run_pipeline(cfg, tmp_path / "run")
        assert isinstance(err.value.__cause__, ValueError)

    def test_fully_dropped_scene_still_completes(self, tmp_path):
        cfg = load_config(None)
        cfg["synth"] = {"n_views": 3, "n_objects": 1, "noise": {"dropout_rate": 1.0}}
        cfg["train"] = {"epochs": 1}
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"] == {"n_tracks": 0}

    def test_sweep_on_fully_dropped_scene_has_no_accuracy_columns(self, tmp_path):
        cfg = load_config(None)
        cfg["synth"] = {"n_views": 3, "n_objects": 2, "noise": {"dropout_rate": 1.0}}
        cfg["train"] = {"epochs": 1}
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        argv = ["sweep", "--manifest", str(out / "dataset" / "manifest.json"),
                "--tracks", str(out / "tracks.jsonl"), "--param", "tau_sem", "--values", "0.8",
                "--ground-truth", str(out / "ground_truth.json"), "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert (tmp_path / "sweep.csv").read_text().splitlines() == ["value,cluster_count", "0.8,0"]

    def test_default_config_hash_is_pinned(self):
        # DEFAULT_CONFIG reads the library's defaults; a moved default would move every report's hash
        assert config_hash(load_config(None)) == "872b2f87029d8942d14a90ced77546c4d6e196f1e03673c1a92c330fbf3722e1"

    def test_run_manifest_contents(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        main(["run", "--config", cfg, "--out", str(out)])
        manifest = read_json(out / "run.json")
        assert (out / "run.json").read_text() == dumps(manifest) + "\n"
        assert not list(out.rglob("*.tmp"))
        assert set(manifest["stages"]) == {
            "synth",
            "associate",
            "consensus",
            "keyframe",
            "train",
            "eval",
        }
        assert "trackfuse" in manifest["versions"]
        assert manifest["seed"] == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config_hash"] == manifest["config_hash"]


TINY_CONFIG = {
    "seed": 0,
    "synth": {"n_views": 3, "n_objects": 2, "height": 32, "width": 32},
    "train": {"epochs": 1},
}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("finished")
    cfg = write_config(root, TINY_CONFIG)
    assert main(["run", "--config", cfg, "--out", str(root / "run")]) == 0
    return root / "run"


@pytest.fixture
def run_dir(finished_run, tmp_path):
    """A private copy of a finished tiny run."""
    shutil.copytree(finished_run, tmp_path / "run")
    return tmp_path / "run"


def edit_jsonl(path, lineno, edit):
    """Replace line ``lineno`` (1-based) of a JSONL file with edit(parsed line) as text."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(json.loads(lines[lineno - 1]))
    path.write_text("\n".join(lines) + "\n")


def first_center(gaussian):
    """The first [x, y] center of a field file's Gaussian that is not null (not visible)."""
    return next(c for c in gaussian["centers"] if c is not None)


def stage_argv(run, command, tmp_path):
    """Single-stage argv reading the run's artifacts and writing under tmp_path."""
    inputs = {
        "associate": [],
        "consensus": ["--tracks", str(run / "tracks.jsonl")],
        "keyframe": ["--consensus", str(run / "consensus.jsonl")],
        "train": [
            "--consensus", str(run / "consensus.jsonl"),
            "--descriptions", str(run / "descriptions.jsonl"),
            "--geometry", str(run / "field_geometry.json"),
        ],
    }[command]
    manifest = ["--manifest", str(run / "dataset" / "manifest.json")]
    return [command, *manifest, *inputs, "--out", str(tmp_path / f"{command}.out")]


def caption_entries(run):
    """One external caption entry per (track, member view) of the run's consensus, in track order."""
    from trackfuse.records import text_embedding

    good = text_embedding("a caption", 32).tolist()
    return [
        {"track": rec.track_id, "view": view, "texts": ["a caption"], "vecs": [good]}
        for rec in load_consensus(run / "consensus.jsonl", load_dataset(run / "dataset" / "manifest.json"))
        for view, _ in rec.members
    ]


def keyframe_with_captions(run, tmp_path, entries):
    """The keyframe argv of the run with ``entries`` written to ``tmp_path / captions.jsonl`` as its captions."""
    external = tmp_path / "captions.jsonl"
    external.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return stage_argv(run, "keyframe", tmp_path) + ["--external", str(external)]


class TestBadInput:
    @pytest.mark.parametrize("name, key", [("dataset/detections.jsonl", "view"), ("tracks.jsonl", "track")])
    def test_overflowing_number_exits_two_naming_line(self, run_dir, tmp_path, capsys, name, key):
        edit_jsonl(run_dir / name, 2, lambda obj: json.dumps(obj | {key: "BIG"}).replace('"BIG"', "1e400"))
        assert main(stage_argv(run_dir, "consensus", tmp_path)) == 2
        assert f"{Path(name).name}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("view", 1.5), ("view", True), ("track", 2.0)])
    def test_non_integer_detection_field_exits_two_naming_line(self, run_dir, tmp_path, capsys, key, value):
        edit_jsonl(run_dir / "dataset" / "detections.jsonl", 3, lambda obj: json.dumps(obj | {key: value}))
        assert main(stage_argv(run_dir, "consensus", tmp_path)) == 2
        assert f"detections.jsonl:3: {key} must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["keyframe", "run"])
    def test_non_utf8_external_captions_exit_two(self, run_dir, tmp_path, capsys, command):
        external = tmp_path / "captions.jsonl"
        external.write_bytes(b'{"track": 0, "view": 0, "texts": ["\xff"], "vecs": [[1.0]]}\n')
        if command == "run":
            for name in ("descriptions.jsonl", "model.json", "report.json"):
                (run_dir / name).unlink()
            cfg = write_config(tmp_path, TINY_CONFIG | {"keyframe": {"external": str(external)}})
            argv = ["run", "--config", cfg, "--out", str(run_dir)]
        else:
            argv = stage_argv(run_dir, "keyframe", tmp_path) + ["--external", str(external)]
        assert main(argv) == 2
        assert "captions.jsonl: not UTF-8" in capsys.readouterr().err

    def test_nan_embedding_exits_two_naming_file(self, run_dir, tmp_path, capsys):
        path = run_dir / "dataset" / "embeddings.json"
        emb = json.loads(path.read_text())
        emb[sorted(emb)[0]][0] = float("nan")
        path.write_text(json.dumps(emb))
        assert main(stage_argv(run_dir, "consensus", tmp_path)) == 2
        assert "embeddings.json" in capsys.readouterr().err

    def test_non_finite_referral_vector_exits_two(self, run_dir, tmp_path, capsys):
        def poison(obj):
            obj["referrals"][0]["vec"][0] = float("inf")
            return json.dumps(obj)

        edit_jsonl(run_dir / "descriptions.jsonl", 1, poison)
        assert main(stage_argv(run_dir, "train", tmp_path)) == 2
        assert "descriptions.jsonl:1: referral vector is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [2.0, 0.5, 0.0])
    def test_referral_vector_not_unit_norm_exits_two(self, run_dir, tmp_path, capsys, scale):
        def stretch(obj):
            obj["referrals"][-1]["vec"] = [scale * x for x in obj["referrals"][-1]["vec"]]
            return json.dumps(obj)

        edit_jsonl(run_dir / "descriptions.jsonl", 2, stretch)
        out = tmp_path / "train.out"
        assert main(stage_argv(run_dir, "train", tmp_path)) == 2
        assert "descriptions.jsonl:2: referral vector must be unit-norm, got |v| = " in capsys.readouterr().err
        assert not out.exists()

    def test_referral_vector_within_the_unit_norm_tolerance_is_accepted(self, run_dir, tmp_path):
        def stretch(obj):
            obj["referrals"][0]["vec"] = [(1.0 + 5e-7) * x for x in obj["referrals"][0]["vec"]]
            return json.dumps(obj)

        edit_jsonl(run_dir / "descriptions.jsonl", 1, stretch)
        assert main(stage_argv(run_dir, "train", tmp_path)) == 0

    @pytest.mark.parametrize(
        "vec, problem",
        [([float("nan")] * 32, "not finite"), ([1.0] * 31, "shape"), ([1.0] * 32, "must be unit-norm, got |v| = ")],
    )
    def test_bad_external_caption_vector_exits_two(self, run_dir, tmp_path, capsys, vec, problem):
        entries = caption_entries(run_dir)
        entries[0]["vecs"] = [vec]
        assert main(keyframe_with_captions(run_dir, tmp_path, entries)) == 2
        err = capsys.readouterr().err
        assert "captions.jsonl:1: caption vector" in err
        assert problem in err

    def test_external_caption_text_not_a_string_exits_two_naming_its_line(self, run_dir, tmp_path, capsys):
        # str(5) used to make the caption "5"
        entries = caption_entries(run_dir)
        entries[0]["texts"] = [5]
        assert main(keyframe_with_captions(run_dir, tmp_path, entries)) == 2
        assert f"{tmp_path / 'captions.jsonl'}:1: caption text must be a non-empty string, got 5" in capsys.readouterr().err

    def test_repeated_external_caption_entry_exits_two_naming_its_line(self, run_dir, tmp_path, capsys):
        # a dict of the entries used to keep the last captions of a repeated (track, view)
        entries = caption_entries(run_dir)
        first = entries[0]
        entries.insert(1, first | {"texts": ["another caption"]})
        assert main(keyframe_with_captions(run_dir, tmp_path, entries)) == 2
        message = f"{tmp_path / 'captions.jsonl'}:2: track {first['track']} view {first['view']} appears twice"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "keyframe.out").exists()

    @pytest.mark.parametrize(
        "name, command, edit, message",
        [
            ("dataset/detections.jsonl", "consensus", lambda obj: obj.update(label=5),
             "detection label must be a non-empty string, got 5"),
            ("dataset/detections.jsonl", "consensus", lambda obj: obj.update(conf="0.9"),
             "detection confidence must be a finite number, got '0.9'"),
            ("descriptions.jsonl", "train", lambda obj: obj.update(category=7),
             "description category must be a non-empty string, got 7"),
            ("descriptions.jsonl", "train", lambda obj: obj["referrals"][0].update(text=3),
             "referral text must be a non-empty string, got 3"),
            ("consensus.jsonl", "keyframe", lambda obj: obj.update(canonical=1),
             "canonical identity must be a non-empty string, got 1"),
            ("consensus.jsonl", "keyframe", lambda obj: obj.update(votes={"": len(obj["members"])}),
             "vote label must be a non-empty string, got ''"),
        ],
        ids=["detection-label", "detection-conf", "category", "referral-text", "canonical", "vote-label"],
    )
    def test_strict_json_scalar_in_a_record_exits_two_naming_its_line(
        self, run_dir, tmp_path, capsys, name, command, edit, message
    ):
        # each value used to be converted (str(5), float("0.9")), so the stage exited 0 or failed
        # naming no line
        edit_jsonl(run_dir / name, 1, lambda obj: edit(obj) or json.dumps(obj))
        assert main(stage_argv(run_dir, command, tmp_path)) == 2
        assert f"{run_dir / name}:1: {message}" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.out").exists()

    @pytest.mark.parametrize(
        "member, owner",
        [([0, 99], 0), ([0, -1], 0), ([0, 0], 1)],
        ids=["past-end", "negative", "duplicate"],
    )
    @pytest.mark.parametrize("name, command", [("tracks.jsonl", "consensus"), ("consensus.jsonl", "keyframe")])
    def test_bad_track_member_exits_two(self, run_dir, tmp_path, capsys, member, owner, name, command):
        path = run_dir / name

        def corrupt(obj):
            obj["members"][0] = member
            return json.dumps(obj)

        # scene detections are (view, track) ordered: track t owns (v, t) in every view
        edit_jsonl(path, owner + 1, corrupt)
        assert main(stage_argv(run_dir, command, tmp_path)) == 2
        assert f"{path.name}:{owner + 1}: track {owner}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, command",
        [
            ("tracks.jsonl", "consensus"),
            ("consensus.jsonl", "keyframe"),
            ("consensus.jsonl", "train"),
            ("descriptions.jsonl", "train"),
        ],
    )
    def test_repeated_track_id_exits_two(self, run_dir, tmp_path, capsys, name, command):
        # one track per line, ascending from 0: line 2 takes the id of line 1
        path = run_dir / name
        edit_jsonl(path, 2, lambda obj: json.dumps(obj | {"track": 0}))
        assert main(stage_argv(run_dir, command, tmp_path)) == 2
        assert f"{path.name}:2: track id 0 appears twice" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.out").exists()

    @pytest.mark.parametrize(
        "members, views",
        [
            ({1: [[1, 0], [0, 0], [2, 0]]}, [1, 0, 2]),
            # a second member in view 0, taken from track 1, which keeps its other members
            ({1: [[0, 0], [0, 1], [1, 0], [2, 0]], 2: [[1, 1], [2, 1]]}, [0, 0, 1, 2]),
        ],
        ids=["swapped", "repeated-view"],
    )
    @pytest.mark.parametrize("command", ["keyframe", "train"])
    def test_consensus_member_views_not_increasing_exit_two(self, run_dir, tmp_path, capsys, command, members, views):
        path = run_dir / "consensus.jsonl"
        for lineno, new in members.items():
            edit_jsonl(path, lineno, lambda obj: json.dumps(obj | {"members": new}))
        assert main(stage_argv(run_dir, command, tmp_path)) == 2
        assert f"consensus.jsonl:1: track 0: member views must be strictly increasing, got {views}" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"votes": {}}, "track 0: votes are empty"),
            ({"votes": {"pot": 2}}, "track 0: votes {'pot': 2} sum to 2, but the track has 3 members"),
            ({"canonical": "book"}, "track 0: canonical 'book' is not a most-voted identity of votes {'pot': 3}"),
            ({"votes": {"pot": 4, "zzz": -1}}, "track 0: votes {'pot': 4, 'zzz': -1} hold a count below 1"),
            ({"votes": {"pot": 3, "zzz": 0}}, "track 0: votes {'pot': 3, 'zzz': 0} hold a count below 1"),
        ],
        ids=["no-votes", "votes-not-members", "canonical-not-voted", "negative-vote", "zero-vote"],
    )
    @pytest.mark.parametrize("command", ["keyframe", "train", "eval"])
    def test_consensus_record_contradicting_itself_exits_two(self, run_dir, tmp_path, capsys, command, edit, message):
        path = run_dir / "consensus.jsonl"
        assert json.loads(path.read_text().splitlines()[0])["votes"] == {"pot": 3}
        edit_jsonl(path, 1, lambda obj: json.dumps(obj | edit))
        out = tmp_path / f"{command}.out"
        argv = eval_argv(run_dir, out) if command == "eval" else stage_argv(run_dir, command, tmp_path)
        assert main(argv) == 2
        assert f"{path}:1: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("detections", 5), ("embeddings", ""), ("embeddings", None)])
    def test_manifest_path_not_a_file_path_exits_two(self, run_dir, tmp_path, capsys, key, value):
        manifest = run_dir / "dataset" / "manifest.json"
        manifest.write_text(json.dumps(json.loads(manifest.read_text()) | {key: value}))
        assert main(stage_argv(run_dir, "associate", tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: manifest {key!r} must be a non-empty file path, got {value!r}" in err
        assert not (tmp_path / "associate.out").exists()

    @pytest.mark.parametrize("key, flag", [("tracks", "consensus --tracks"),
                                           ("descriptions", "train and eval --descriptions")])
    @pytest.mark.parametrize("command", ["associate", "train", "eval", "run"])
    def test_manifest_naming_a_stage_input_exits_two_naming_it(self, run_dir, tmp_path, capsys, command, key, flag):
        # the associate stage used to adopt a manifest's tracks file, whose bytes were in no stage key:
        # run skipped every stage after it was edited, keeping the tracks read before
        manifest = run_dir / "dataset" / "manifest.json"
        shutil.copy(run_dir / f"{key}.jsonl", manifest.parent / f"{key}.jsonl")
        manifest.write_text(dumps(read_json(manifest) | {key: f"{key}.jsonl"}) + "\n")
        if command == "run":
            out = run_dir / "report.json"
            argv = ["run", "--config", write_config(tmp_path, TINY_CONFIG), "--out", str(run_dir)]
        elif command == "eval":
            out = tmp_path / "eval.out"
            argv = eval_argv(run_dir, out, "--descriptions", str(run_dir / "descriptions.jsonl"))
        else:
            out = tmp_path / f"{command}.out"
            argv = stage_argv(run_dir, command, tmp_path)
        before = out.read_bytes() if out.exists() else None
        assert main(argv) == 2
        message = f"{manifest}: manifest names {key!r}, which no stage reads from a manifest: pass that file to {flag}"
        assert message in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == before

    @pytest.mark.parametrize(
        "key, value",
        [("n_views", 3), ("height", 32), ("width", 32), ("n_objects", 2), ("dim", 32),
         ("noise", {"dropout_rate": 0.5}), ("vocabulary", [{"canonical": "a", "synonyms": []}])],
    )
    def test_top_level_synth_setting_exits_two_naming_it(self, tmp_path, capsys, key, value):
        # a config once held the synth fields at the top level, each field valid there; only seed sits there now
        cfg = write_config(tmp_path, {key: value})
        out = tmp_path / "scene"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {cfg}: {key} is not seed or a config section ({SECTIONS})\n" in capsys.readouterr().err
        assert not out.exists()

    def test_top_level_seed_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 4, "synth": TINY_CONFIG["synth"]})
        assert load_config(cfg)["seed"] == 4
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "scene")]) == 0

    @pytest.mark.parametrize("flag", ["--descriptions", "--geometry"])
    def test_train_without_an_input_flag_exits_one(self, run_dir, tmp_path, capsys, flag):
        argv = stage_argv(run_dir, "train", tmp_path)
        del argv[argv.index(flag) : argv.index(flag) + 2]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert f"the following arguments are required: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_ground_truth_without_objects_exits_two_naming_it(self, run_dir, tmp_path, capsys, command):
        path = run_dir / "ground_truth.json"
        path.write_text(json.dumps({"objects": []}))
        argv = [command, "--manifest", str(run_dir / "dataset" / "manifest.json"),
                "--ground-truth", str(path), "--out", str(tmp_path / f"{command}.out")]
        if command == "eval":
            argv += ["--consensus", str(run_dir / "consensus.jsonl")]
        else:
            argv += ["--tracks", str(run_dir / "tracks.jsonl"), "--param", "tau_sem", "--values", "0.8,0.9"]
        assert main(argv) == 2
        assert f"{path}: no detections matched any ground-truth object" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.out").exists()

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("model.json", lambda doc: doc.update(spread="8"), "spread must be a finite number, got '8'"),
            ("model.json", lambda doc: doc.update(spread=True), "spread must be a finite number, got True"),
            ("model.json", lambda doc: first_center(doc["gaussians"][0]).__setitem__(0, "3"),
             "gaussian 0: center must be a finite number, got '3'"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(identity=5),
             "object identity must be a non-empty string, got 5"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(identity=""),
             "object identity must be a non-empty string, got ''"),
            ("ground_truth.json", lambda doc: doc["objects"][0]["visible"].__setitem__(0, "no"),
             "object visible must be true or false, got 'no'"),
            ("ground_truth.json", lambda doc: doc["objects"][0]["visible"].__setitem__(0, 1),
             "object visible must be true or false, got 1"),
            ("ground_truth.json", lambda doc: doc["objects"][0]["centers"][0].__setitem__(1, "7"),
             "object center must be a finite number, got '7'"),
            ("ground_truth.json", lambda doc: doc["objects"][0]["radii"].__setitem__(0, False),
             "object radius must be a finite number, got False"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(shape=0),
             "object shape must be a non-empty string, got 0"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(visible=[True]),
             "object 0: 1 visible flags, the dataset has 3 views"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(visible=[True] * 5),
             "object 0: 5 visible flags, the dataset has 3 views"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(centers=[[1.0, 2.0]]),
             "object 0: 1 centers, the dataset has 3 views"),
            ("ground_truth.json", lambda doc: doc["objects"][0]["centers"].__setitem__(1, [1.0, 2.0, 3.0]),
             "object 0: view 1 center must be 2 numbers, got [1.0, 2.0, 3.0]"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(radii=[1.0, 2.0, 3.0]),
             "object 0: radii must be 2 numbers, got [1.0, 2.0, 3.0]"),
            ("ground_truth.json", lambda doc: doc["objects"][0].update(radii=[1.0]),
             "object 0: radii must be 2 numbers, got [1.0]"),
            ("model.json", lambda doc: doc["gaussians"][0]["centers"].__setitem__(0, [1.0, 2.0, 3.0]),
             "gaussian 0: view 0 center must be null or 2 numbers, got [1.0, 2.0, 3.0]"),
            ("model.json", lambda doc: doc["gaussians"][0]["centers"].__setitem__(0, [1.0]),
             "gaussian 0: view 0 center must be null or 2 numbers, got [1.0]"),
        ],
    )
    def test_strict_json_scalar_exits_two_naming_the_file(self, run_dir, tmp_path, capsys, name, edit, message):
        # each value used to be converted (float("8"), bool("no"), str(5)), so eval exited 0 or
        # failed naming no file; each list of the wrong length used to load (the extra entries
        # unread, a third coordinate dropped), or fail on an IndexError naming no object or count
        path = run_dir / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(eval_argv(run_dir, out)) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem, message",
        [
            ("fewer-views", "object 0: 2 masks, the dataset has 3 views"),
            ("mask-size", "object 0: view 0 mask is 64x64, the dataset's views are 32x32"),
            ("duplicate-id", "object id 0 appears twice"),
        ],
    )
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_ground_truth_not_matching_dataset_exits_two(self, run_dir, tmp_path, capsys, command, problem, message):
        path = run_dir / "ground_truth.json"
        gt = json.loads(path.read_text())
        for obj in gt["objects"]:
            if problem == "fewer-views":
                del obj["masks"][-1]
            elif problem == "mask-size":
                obj["masks"][0] = {"h": 64, "w": 64, "counts": [64 * 64]}
            else:
                obj["id"] = 0
        path.write_text(json.dumps(gt))
        argv = [command, "--manifest", str(run_dir / "dataset" / "manifest.json"),
                "--ground-truth", str(path), "--out", str(tmp_path / f"{command}.out")]
        if command == "eval":
            argv += ["--consensus", str(run_dir / "consensus.jsonl")]
        else:
            argv += ["--tracks", str(run_dir / "tracks.jsonl"), "--values", "0.8,0.9"]
        assert main(argv) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.out").exists()

    @pytest.mark.parametrize(
        "problem, message",
        [
            ("fewer-views", "gaussian 0: 2 centers, the dataset has 3 views"),
            ("dim", "field dim is 16, the dataset's embeddings have dim 32"),
            ("short-feature", "gaussian 0: feature has shape (31,), expected (32,)"),
            ("nan-feature", "gaussian 0: feature is not finite"),
            ("height", "field is 16x32, the dataset's views are 32x32"),
            ("nan-spread", "spread must be a finite number, got nan"),
            (
                "huge-spread",
                "malformed record: ValueError('spread must be at most 4.47e+153, so that (3 * spread) ** 2 "
                "is finite, got 1e+300')",
            ),
            (
                "tiny-spread",
                "malformed record: ValueError('spread is too small: 2 * spread ** 2 underflows to 0, got 1e-200')",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_field_not_matching_dataset_exits_two(self, run_dir, tmp_path, capsys, command, problem, message):
        path = run_dir / ("field_geometry.json" if command == "train" else "model.json")
        field = json.loads(path.read_text())
        first = field["gaussians"][0]
        if problem == "fewer-views":
            for g in field["gaussians"]:
                del g["centers"][-1]
        elif problem == "dim":
            field["dim"] = 16
            for g in field["gaussians"]:
                g["feature"] = g["feature"][:16]
        elif problem == "short-feature":
            first["feature"] = first["feature"][:-1]
        elif problem == "nan-feature":
            first["feature"][0] = float("nan")
        elif problem == "nan-spread":
            field["spread"] = float("nan")
        elif problem == "huge-spread":  # finite, but the squared cutoff (3 * spread) ** 2 overflows
            field["spread"] = 1e300
        elif problem == "tiny-spread":  # positive, but the weights' denominator 2 * spread ** 2 underflows
            field["spread"] = 1e-200
        else:
            field["h"] = 16
        path.write_text(json.dumps(field))
        out = tmp_path / f"{command}.out"
        if command == "train":
            argv = stage_argv(run_dir, "train", tmp_path)
        else:
            argv = ["eval", "--manifest", str(run_dir / "dataset" / "manifest.json"),
                    "--consensus", str(run_dir / "consensus.jsonl"), "--model", str(path),
                    "--ground-truth", str(run_dir / "ground_truth.json"), "--out", str(out)]
        assert main(argv) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("epoch", 0), ("selection", "pseudo"), ("assoc.max_gaps", 0), ("consensus.tau", 0.5),
         ("keyframe.sigmaa", 3), ("eval.view", [0]), ("synth.n_view", 3)],
    )
    def test_unknown_train_key_exits_two(self, run_dir, tmp_path, capsys, key, value):
        # a bare key is a train key; every section's keys are checked when the config is read
        section, _, key = key.rpartition(".")
        section = section or "train"
        cfg = write_config(tmp_path, TINY_CONFIG | {section: {key: value}})
        assert main(stage_argv(run_dir, "train", tmp_path) + ["--config", cfg]) == 2
        assert f"{cfg}: {section}.{key} is not a {section} setting" in capsys.readouterr().err
        assert not (tmp_path / "train.out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", 1.5), ("ratio_interval", 2.7), ("gaussians_per_object", 2.5), ("assoc.max_gap", 1.5),
         ("epochs", 2.0), ("seed", 1.5)],
    )
    def test_fractional_integer_setting_exits_two(self, run_dir, tmp_path, capsys, key, value):
        # an integer setting would otherwise be truncated by int(...) when its stage runs
        section, _, key = key.rpartition(".")
        section = section or ("" if key == "seed" else "train")
        name = f"{section}.{key}" if section else key
        cfg = write_config(tmp_path, TINY_CONFIG | ({section: {key: value}} if section else {key: value}))
        assert main(stage_argv(run_dir, "train", tmp_path) + ["--config", cfg]) == 2
        assert f"{cfg}: {name} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "train.out").exists()

    def test_integer_train_keys_follow_train_config_types(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"train": {"epochs": 3, "ratio_interval": 7, "lam": 1}}))
        tcfg = _train_config(cfg, n_views=3)
        assert (tcfg.epochs, tcfg.ratio_interval, tcfg.lam) == (3, 7, 1.0)
        assert type(tcfg.lam) is float

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", "x"), ("lam", True), ("ratio_start", "0.5"), ("assoc.max_gap", None),
         ("keyframe.sigma", "100"), ("consensus.tau_sem", False), ("seed", "0")],
    )
    def test_non_number_setting_exits_two(self, run_dir, tmp_path, capsys, key, value):
        # a bare key is a train key, except the top-level seed
        section, _, key = key.rpartition(".")
        section = section or ("" if key == "seed" else "train")
        name = f"{section}.{key}" if section else key
        cfg = write_config(tmp_path, TINY_CONFIG | ({section: {key: value}} if section else {key: value}))
        assert main(stage_argv(run_dir, "train", tmp_path) + ["--config", cfg]) == 2
        assert f"{cfg}: {name} must be a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "train.out").exists()

    @pytest.mark.parametrize("tau_sem", [2, 1.0, 0, -0.5])
    def test_tau_sem_outside_unit_interval_exits_two_before_any_stage(self, tmp_path, capsys, tau_sem):
        cfg = write_config(tmp_path, TINY_CONFIG | {"consensus": {"tau_sem": tau_sem}})
        out = tmp_path / "run"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}: consensus.tau_sem must be in (0, 1), got {tau_sem!r}" in capsys.readouterr().err
        assert not (out / "tracks.jsonl").exists()
        assert not (out / "dataset").exists()

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("epochs", -1, ">= 0"),
            ("feature_lr", -1.0, "finite and > 0"),
            ("feature_lr", math.nan, "finite and > 0"),
            ("tau", math.inf, "finite and > 0"),
            ("tau", 0.0, "finite and > 0"),
            ("lam", -0.5, "finite and >= 0"),
            ("lam", math.inf, "finite and >= 0"),
            ("ratio_start", 0.0, "finite and > 0"),
            ("ratio_factor", math.nan, "finite and > 0"),
            ("ratio_interval", 0, "> 0"),
        ],
    )
    def test_train_setting_out_of_range_exits_two_before_any_stage(self, tmp_path, capsys, key, value, rule):
        # json writes NaN and Infinity, which json reads back as floats: only a range check refuses them
        cfg = write_config(tmp_path, TINY_CONFIG | {"train": {key: value}})
        out = tmp_path / "run"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}: train.{key} must be {rule}, got {value!r}" in capsys.readouterr().err
        assert not (out / "dataset").exists()

    def test_train_settings_at_their_bounds_are_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"train": {"epochs": 0, "lam": 0.0, "feature_lr": 1e-300}}))
        tcfg = _train_config(cfg, n_views=1)
        assert (tcfg.epochs, tcfg.lam, tcfg.feature_lr) == (0, 0.0, 1e-300)

    @pytest.mark.parametrize("values, bad", [("nan,0.8", "nan"), ("0.8,1.5", "1.5"), ("0.8,-0.1", "-0.1")])
    def test_sweep_tau_sem_outside_unit_interval_exits_one(self, run_dir, tmp_path, capsys, values, bad):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--manifest", str(run_dir / "dataset" / "manifest.json"),
                "--tracks", str(run_dir / "tracks.jsonl"), "--ground-truth", str(run_dir / "ground_truth.json"),
                "--param", "tau_sem", "--values", values, "--out", str(out)]
        assert main(argv) == 1
        assert f"tau_sem must be in (0, 1), got {bad}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["asoc", "tau_sem", "long_only"])
    def test_unknown_top_level_key_exits_two(self, run_dir, tmp_path, capsys, key):
        cfg = write_config(tmp_path, TINY_CONFIG | {key: {"mode": "greedy"}})
        assert main(stage_argv(run_dir, "associate", tmp_path) + ["--config", cfg]) == 2
        assert f"{cfg}: {key} is not seed or a config section ({SECTIONS})" in capsys.readouterr().err
        assert not (tmp_path / "associate.out").exists()

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    @pytest.mark.parametrize("key", ["train.long_only", "synth.noise.strip_track_ids"])
    def test_non_boolean_switch_exits_two(self, run_dir, tmp_path, capsys, key, value):
        doc = {
            "train.long_only": TINY_CONFIG | {"train": {"long_only": value}},
            "synth.noise.strip_track_ids": TINY_CONFIG | {"synth": {"noise": {"strip_track_ids": value}}},
        }[key]
        cfg = write_config(tmp_path, doc)
        if key == "train.long_only":
            argv, out = stage_argv(run_dir, "train", tmp_path), tmp_path / "train.out"
        else:
            argv, out = ["synth", "--out", str(tmp_path / "scene")], tmp_path / "scene"
        assert main(argv + ["--config", cfg]) == 2
        assert f"{cfg}: {key} must be true or false, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_refuses_consensus_voted_at_another_tau_sem(self, tmp_path, capsys):
        # synonyms of one object merge at tau_sem 0.85 but split at 0.97
        noisy = TINY_CONFIG | {"synth": {"n_views": 6, "n_objects": 2, "height": 32, "width": 32,
                                         "noise": {"synonym_rate": 0.5}}}
        cfg = write_config(tmp_path, noisy)
        run = tmp_path / "run"
        assert main(["run", "--config", cfg, "--out", str(run)]) == 0
        manifest = ["--manifest", str(run / "dataset" / "manifest.json")]
        consensus = tmp_path / "consensus97.jsonl"
        assert main(["consensus", "--config", cfg, *manifest, "--tracks", str(run / "tracks.jsonl"),
                     "--tau-sem", "0.97", "--out", str(consensus)]) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert main(["eval", "--config", cfg, *manifest, "--consensus", str(consensus),
                     "--ground-truth", str(run / "ground_truth.json"), "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"{consensus}: track 0 has votes {{'" in err  # the votes as a dict
        assert "the clustering at consensus.tau_sem 0.85 gives" in err
        assert not report.exists()

    def test_section_not_an_object_exits_two(self, run_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG | {"assoc": 5})
        assert main(stage_argv(run_dir, "associate", tmp_path) + ["--config", cfg]) == 2
        assert f"{cfg}: assoc must be a JSON object, got 5" in capsys.readouterr().err
        assert not (tmp_path / "associate.out").exists()

    def test_unknown_assoc_mode_exits_two(self, run_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG | {"assoc": {"mode": "hungarian"}})
        assert main(stage_argv(run_dir, "associate", tmp_path) + ["--config", cfg]) == 2
        assert "assoc.mode must be 'import' or 'greedy', got 'hungarian'" in capsys.readouterr().err
        assert not (tmp_path / "associate.out").exists()

    def test_unknown_synth_noise_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG | {"synth": TINY_CONFIG["synth"] | {"noise": {"dropout": 0.5}}})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "scene")]) == 2
        assert f"{cfg}: synth.noise.dropout is not a synth.noise setting" in capsys.readouterr().err
        assert not (tmp_path / "scene").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"synth": {"n_views": 2.5}}, "synth.n_views must be an integer, got 2.5"),
            ({"synth": {"dim": 6.5}}, "synth.dim must be an integer, got 6.5"),
            ({"synth": {"seed": "1"}}, "synth.seed must be a number, got '1'"),
            ({"synth": {"noise": {"mask_jitter": 1.5}}}, "synth.noise.mask_jitter must be an integer, got 1.5"),
            ({"synth": {"noise": {"mask_jitter": "2"}}}, "synth.noise.mask_jitter must be a number, got '2'"),
            ({"synth": {"noise": {"dropout_rate": True}}}, "synth.noise.dropout_rate must be a number"),
            ({"synth": {"vocabulary": [{"canonical": "a"}]}},
             f"synth.vocabulary[0] must be {GROUP}, got {{'canonical': 'a'}}"),
            ({"synth": {"vocabulary": [{"canonical": "a", "synonyms": "ab"}]}}, f"synth.vocabulary[0] must be {GROUP}"),
            ({"synth": {"vocabulary": [{"canonical": "a", "synonyms": [], "weight": 1}]}},
             f"synth.vocabulary[0] must be {GROUP}"),
            ({"synth": {"vocabulary": []}}, f"synth.vocabulary must be a non-empty list of {GROUP} groups"),
            ({"synth": {"vocabulary": {"canonical": "a", "synonyms": []}}}, "synth.vocabulary must be a non-empty"),
            ({"synth": {"vocabulary": [{"canonical": "a", "synonyms": ["b"]}, {"canonical": "b", "synonyms": []}]}},
             "synth.vocabulary[1]: 'b' is already a word of the vocabulary"),
        ],
    )
    def test_bad_synth_setting_exits_two_before_synth_runs(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "scene"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"synth": {"n_views": 0}}, "synth.n_views must be positive, got 0"),
            ({"synth": {"n_objects": -2}}, "synth.n_objects must be positive, got -2"),
            ({"synth": {"dim": 3}}, "synth.dim must be at least the 6 synonym groups of the vocabulary, got 3"),
            ({"synth": {"noise": {"synonym_rate": 1.5}}}, "synth.noise.synonym_rate must be in [0, 1], got 1.5"),
            ({"synth": {"noise": {"mask_jitter": -1}}}, "synth.noise.mask_jitter must be >= 0, got -1"),
            ({"synth": {"height": 1}}, "synth.height must exceed 2 * (height / 6 + 1) = 2.33333, got 1"),
            ({"synth": {"height": 64, "width": 16}}, "synth.width must exceed 2 * (height / 6 + 1) = 23.3333, got 16"),
        ],
    )
    def test_synth_setting_out_of_range_exits_two_before_synth_runs(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "scene"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            (TINY_CONFIG | {"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"synth": TINY_CONFIG["synth"] | {"seed": -1}}, "synth.seed must be >= 0, got -1"),
        ],
    )
    def test_negative_seed_exits_two_before_any_stage(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {cfg}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_negative_seed_flag_exits_one(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--seed", "-1", "--out", str(out)]) == 1
        assert "error: seed must be >= 0, got -1\n" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_settings_of_their_types_are_accepted(self, tmp_path):
        vocabulary = [{"canonical": "a", "synonyms": ["b", "c"]}, {"canonical": "d", "synonyms": []}]
        doc = {"synth": {"n_views": 3, "height": 16, "width": 16, "n_objects": 2, "dim": 4, "seed": 1,
                         "vocabulary": vocabulary, "noise": {"synonym_rate": 1, "mask_jitter": 0}}}
        out = tmp_path / "scene"
        assert main(["synth", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        lines = (out / "dataset" / "detections.jsonl").read_text().splitlines()
        assert {json.loads(line)["label"] for line in lines} <= {"b", "c", "d"}

    @pytest.mark.parametrize(
        "name, command, keys, value, message",
        [
            ("dataset/manifest.json", "consensus", ["h"], 32.7, "h must be an integer, got 32.7"),
            ("dataset/manifest.json", "consensus", ["n_views"], 3.0, "n_views must be an integer, got 3.0"),
            ("dataset/manifest.json", "consensus", ["w"], True, "w must be an integer, got True"),
            ("dataset/manifest.json", "consensus", ["dim"], "32", "dim must be an integer, got '32'"),
            ("descriptions.jsonl", "train", ["track"], 0.5, "track must be an integer, got 0.5"),
            ("descriptions.jsonl", "train", ["keyframe"], 1.5, "keyframe must be an integer, got 1.5"),
            ("consensus.jsonl", "keyframe", ["track"], 0.0, "track must be an integer, got 0.0"),
            ("consensus.jsonl", "keyframe", ["votes"], {"x": 2.5}, "votes['x'] must be an integer, got 2.5"),
            ("consensus.jsonl", "keyframe", ["members", 0, 0], 0.5, "member view must be an integer"),
            ("tracks.jsonl", "consensus", ["track"], 1.5, "track must be an integer, got 1.5"),
            ("tracks.jsonl", "consensus", ["members", 0, 1], 0.5, "member index must be an integer, got 0.5"),
            ("captions.jsonl", "keyframe", ["track"], 0.5, "track must be an integer, got 0.5"),
            ("captions.jsonl", "keyframe", ["view"], 1.5, "view must be an integer, got 1.5"),
            ("field_geometry.json", "train", ["h"], 32.7, "h must be an integer, got 32.7"),
            ("field_geometry.json", "train", ["dim"], 2.0, "dim must be an integer, got 2.0"),
            ("model.json", "eval", ["dim"], 32.0, "dim must be an integer, got 32.0"),
            ("model.json", "eval", ["w"], 31.9, "w must be an integer, got 31.9"),
            ("model.json", "eval", ["h"], 32.5, "h must be an integer, got 32.5"),
            ("ground_truth.json", "eval", ["objects", 0, "id"], 1.5, "object id must be an integer, got 1.5"),
        ],
    )
    def test_non_integer_artifact_field_exits_two_naming_file(
        self, run_dir, tmp_path, capsys, name, command, keys, value, message
    ):
        # an int(...) cast would truncate these (h 32.7 read as 32) instead of refusing them
        path = run_dir / name if name != "captions.jsonl" else tmp_path / name
        if name == "captions.jsonl":
            vec = [1.0] + [0.0] * 31
            entries = [{"track": rec.track_id, "view": view, "texts": ["a caption"], "vecs": [vec]}
                       for rec in load_consensus(run_dir / "consensus.jsonl", load_dataset(run_dir / "dataset"))
                       for view, _ in rec.members]
            path.write_text("".join(json.dumps(e) + "\n" for e in entries))

        def edit(obj):
            *walk, last = keys
            inner = obj
            for key in walk:
                inner = inner[key]
            inner[last] = value
            return json.dumps(obj)

        where = f"{path}:1" if name.endswith(".jsonl") else str(path)
        if name.endswith(".jsonl"):
            edit_jsonl(path, 1, edit)
        else:
            path.write_text(edit(json.loads(path.read_text())))
        out = tmp_path / f"{command}.out"
        argv = eval_argv(run_dir, out) if command == "eval" else stage_argv(run_dir, command, tmp_path)
        if name == "captions.jsonl":
            argv += ["--external", str(path)]
        assert main(argv) == 2
        assert f"{where}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, views, bad",
        [("eval", [0, 9], "9"), ("eval", [-1], "-1"), ("train", [7], "7")],
    )
    @pytest.mark.parametrize("command", ["stage", "run"])
    def test_view_outside_dataset_exits_two(self, run_dir, tmp_path, capsys, command, key, views, bad):
        cfg = write_config(tmp_path, TINY_CONFIG | {key: TINY_CONFIG.get(key, {}) | {"views": views}})
        out = tmp_path / f"{key}.out"
        if command == "run":
            for name in ("model.json", "report.json") if key == "train" else ("report.json",):
                (run_dir / name).unlink()
            argv = ["run", "--config", cfg, "--out", str(run_dir)]
            out = run_dir / ("model.json" if key == "train" else "report.json")
        elif key == "train":
            argv = stage_argv(run_dir, "train", tmp_path) + ["--config", cfg]
        else:
            argv = ["eval", "--config", cfg, "--manifest", str(run_dir / "dataset" / "manifest.json"),
                    "--consensus", str(run_dir / "consensus.jsonl"), "--model", str(run_dir / "model.json"),
                    "--ground-truth", str(run_dir / "ground_truth.json"), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{key}.views: {bad} is not a view of the dataset, which has 3 views" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("assoc.iou_weight", 1.5),
            ("assoc.max_gap", -1),
            ("assoc.mode", "bogus"),
            ("keyframe.sigma", math.nan),
            ("keyframe.sigma", 0),
            ("keyframe.sigma", 1e-200),
            ("keyframe.strategy", "bogus"),
            ("keyframe.strategy", 3),
            ("keyframe.external", 5),
            ("train.spread", -1),
            ("train.spread", math.nan),
            ("train.spread", 1e300),
            ("train.spread", 1e-200),
            ("train.gaussians_per_object", 0),
            ("train.gaussians_per_object", 9),
            ("eval.views", "x"),
        ],
    )
    def test_setting_its_stage_refuses_exits_two_before_any_stage(self, tmp_path, capsys, name, value):
        # every builder a stage calls also runs when the config is read
        section, _, key = name.partition(".")
        cfg = write_config(tmp_path, TINY_CONFIG | {section: TINY_CONFIG.get(section, {}) | {key: value}})
        out = tmp_path / "run"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {cfg}: {name} " in capsys.readouterr().err
        assert not (out / "dataset").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["consensus", "--tau-sem", "2"], "tau_sem must be in (0, 1), got 2.0"),
            (["keyframe", "--sigma", "0"], "sigma must be positive, got 0.0"),
            (["keyframe", "--sigma", "nan"], "sigma must be positive, got nan"),
            (["keyframe", "--sigma", "1e-200"], "sigma is too small: 2 * sigma * sigma underflows to 0, got 1e-200"),
            (["associate", "--mode", "greedy", "--iou-weight", "1.5"], "iou_weight must be in [0, 1], got 1.5"),
        ],
    )
    def test_flag_its_stage_refuses_exits_one(self, run_dir, tmp_path, capsys, argv, message):
        command, *flags = argv
        assert main(stage_argv(run_dir, command, tmp_path) + flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.out").exists()

    @pytest.mark.parametrize(
        "values, message",
        [
            ("nan", "sigma must be positive, got nan"),
            ("100,0", "sigma must be positive, got 0.0"),
            ("100,1e-320", "sigma is too small: 2 * sigma * sigma underflows to 0, got 1e-320"),
        ],
    )
    def test_sweep_sigma_not_positive_exits_one(self, run_dir, tmp_path, capsys, values, message):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--manifest", str(run_dir / "dataset" / "manifest.json"),
                "--tracks", str(run_dir / "tracks.jsonl"), "--param", "sigma", "--values", values, "--out", str(out)]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def eval_argv(run, out, *extra):
    return ["eval", "--manifest", str(run / "dataset" / "manifest.json"), "--consensus", str(run / "consensus.jsonl"),
            "--model", str(run / "model.json"), "--ground-truth", str(run / "ground_truth.json"),
            *extra, "--out", str(out)]


def test_eval_of_a_model_with_gaussian_ids_and_tracks_writes_the_same_report(run_dir, tmp_path):
    # the older field format: each Gaussian also held its position as "id" and its object as "track"
    model = json.loads((run_dir / "model.json").read_text())
    objects = [o["id"] for o in read_json(run_dir / "ground_truth.json")["objects"]]
    per_object = len(model["gaussians"]) // len(objects)
    for gid, g in enumerate(model["gaussians"]):
        g.update(id=gid, track=objects[gid // per_object])
    (tmp_path / "model.json").write_text(dumps(model) + "\n")
    descriptions = ["--descriptions", str(run_dir / "descriptions.jsonl")]
    assert main(eval_argv(run_dir, tmp_path / "report.json", *descriptions)) == 0
    old = eval_argv(run_dir, tmp_path / "report-old.json", *descriptions)
    old[old.index("--model") + 1] = str(tmp_path / "model.json")
    assert main(old) == 0
    assert (tmp_path / "report-old.json").read_bytes() == (tmp_path / "report.json").read_bytes()


class TestEvalScores:
    """The report's mIoU entries against every (query, view) grid kept and scored by ``miou``."""

    @staticmethod
    def oracle(run, views, with_descriptions):
        ds = load_dataset(run / "dataset" / "manifest.json")
        records = load_consensus(run / "consensus.jsonl", ds)
        descriptions = load_descriptions(run / "descriptions.jsonl", dim=ds.dim) if with_descriptions else None
        return oracle_eval_miou(load_field(run / "model.json", ds), ds, load_ground_truth(run / "ground_truth.json", ds),
                                records, views, descriptions)

    @pytest.mark.parametrize("with_descriptions", [True, False])
    def test_report_equals_grid_oracle(self, run_dir, tmp_path, with_descriptions):
        extra = ["--descriptions", str(run_dir / "descriptions.jsonl")] if with_descriptions else []
        assert main(eval_argv(run_dir, tmp_path / "report.json", *extra)) == 0
        metrics = read_json(tmp_path / "report.json")["metrics"]
        want = self.oracle(run_dir, [0, 1, 2], with_descriptions)
        # the report's floats are repr round trips, so == is bit for bit
        assert {k: metrics[k] for k in metrics if k.startswith("miou")} == want
        assert ("miou_long" in metrics) == with_descriptions

    def test_repeated_unsorted_views_give_the_sorted_report(self, run_dir, tmp_path):
        reports = []
        for views in ([2, 0, 0], [0, 2]):
            cfg = write_config(tmp_path, TINY_CONFIG | {"eval": {"views": views}})
            out = tmp_path / f"report{len(views)}.json"
            assert main(eval_argv(run_dir, out, "--descriptions", str(run_dir / "descriptions.jsonl"),
                                  "--config", cfg)) == 0
            reports.append(read_json(out)["metrics"])
        assert reports[0] == reports[1]
        assert {k: v for k, v in reports[0].items() if k.startswith("miou")} == self.oracle(run_dir, [0, 2], True)


FRAGMENTED_CONFIG = {
    "seed": 0,
    "synth": {"n_views": 48, "n_objects": 4, "height": 32, "width": 32,
              "noise": {"dropout_rate": 0.5, "mask_jitter": 1, "strip_track_ids": True}},
    "assoc": {"mode": "greedy", "max_gap": 0},
    "train": {"epochs": 1},
}


def test_eval_peak_memory_stays_below_one_grid_per_query_and_view(tmp_path):
    # dropout splits each object into many tracks, so there are many referral queries
    cfg = write_config(tmp_path, FRAGMENTED_CONFIG)
    run = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(run)]) == 0
    ds = load_dataset(run / "dataset" / "manifest.json")
    categories = {o.identity for o in load_ground_truth(run / "ground_truth.json", ds).objects}
    referrals = sum(len(d.referrals) for d in load_descriptions(run / "descriptions.jsonl", dim=ds.dim))
    views = {v for rec in load_consensus(run / "consensus.jsonl", ds) for v, _ in rec.members}
    grids_bytes = (len(categories) + referrals) * len(views) * ds.height * ds.width
    assert referrals > 50 and len(views) > 40
    argv = eval_argv(run, tmp_path / "report.json", "--descriptions", str(run / "descriptions.jsonl"),
                     "--config", cfg)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what one bool grid per (query, view) alone would take; each view's masks are scored as it renders
    assert peak < grids_bytes


class TestResume:
    @pytest.mark.parametrize("victim", ["field_geometry.json", "manifest.json"])
    def test_failed_synth_write_is_rerun(self, tmp_path, monkeypatch, victim):
        real_write_text = Path.write_text

        def failing_write_text(self, data, *args, **kwargs):
            if self.name.startswith(victim):
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(f"injected failure writing {self.name}")
            return real_write_text(self, data, *args, **kwargs)

        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "run"
        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", failing_write_text)
            assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["stages"]["synth"] == "done"
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "clean")]) == 0
        assert tree_bytes(out) == tree_bytes(tmp_path / "clean")


    def test_stage_rerun_reruns_every_later_stage(self, tmp_path):
        # a changed assoc section and a deleted tracks.jsonl: every stage after synth
        # must run again, so no output is built from the old tracks
        out = tmp_path / "run"
        assert main(["run", "--config", write_config(tmp_path, TINY_CONFIG), "--out", str(out)]) == 0
        (out / "tracks.jsonl").unlink()
        changed = TINY_CONFIG | {"assoc": {"mode": "greedy", "match_threshold": 0.99}}
        cfg = write_config(tmp_path, changed)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        stages = json.loads((out / "run.json").read_text())["stages"]
        assert stages == {"synth": "skipped", "associate": "done", "consensus": "done",
                          "keyframe": "done", "train": "done", "eval": "done"}
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "clean")]) == 0
        assert tree_bytes(out) == tree_bytes(tmp_path / "clean")


class TestResumeKeys:
    """``run`` skips a stage only when its marker exists and its stored key (config sections read,
    input digests) matches."""

    @staticmethod
    def rerun(tmp_path, out, config):
        assert main(["run", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        return read_json(out / "run.json")

    def test_changed_consensus_section_reruns_consensus_and_later(self, tmp_path):
        # resuming by marker alone skipped every stage: run.json held the new config hash, report.json the old
        out = tmp_path / "run"
        self.rerun(tmp_path, out, TINY_CONFIG)
        changed = TINY_CONFIG | {"consensus": {"tau_sem": 0.5}}
        manifest = self.rerun(tmp_path, out, changed)
        assert manifest["stages"] == {"synth": "skipped", "associate": "skipped", "consensus": "done",
                                      "keyframe": "done", "train": "done", "eval": "done"}
        assert read_json(out / "report.json")["config_hash"] == manifest["config_hash"]
        self.rerun(tmp_path, tmp_path / "clean", changed)
        assert tree_bytes(out) == tree_bytes(tmp_path / "clean")

    def test_changed_train_section_reruns_train_and_eval_only(self, tmp_path):
        out = tmp_path / "run"
        self.rerun(tmp_path, out, TINY_CONFIG)
        changed = TINY_CONFIG | {"train": {"epochs": 2}}
        manifest = self.rerun(tmp_path, out, changed)
        assert manifest["stages"] == {"synth": "skipped", "associate": "skipped", "consensus": "skipped",
                                      "keyframe": "skipped", "train": "done", "eval": "done"}
        self.rerun(tmp_path, tmp_path / "clean", changed)
        assert tree_bytes(out) == tree_bytes(tmp_path / "clean")

    @pytest.mark.parametrize(
        "name, first",
        [
            ("dataset/manifest.json", "associate"),
            ("dataset/detections.jsonl", "associate"),
            ("dataset/embeddings.json", "associate"),
            ("ground_truth.json", "eval"),
            ("field_geometry.json", "train"),
            ("tracks.jsonl", "consensus"),
            ("consensus.jsonl", "keyframe"),
            ("descriptions.jsonl", "train"),
            ("model.json", "eval"),
        ],
    )
    def test_changed_input_bytes_rerun_the_stage_that_reads_them(self, tmp_path, name, first):
        # every file run reads: a trailing newline parses to the same value, but the bytes, so the
        # key, differ; the first stage that reads the file runs again, and every stage after it
        out = tmp_path / "run"
        self.rerun(tmp_path, out, TINY_CONFIG)
        with open(out / name, "a") as fh:
            fh.write("\n")
        manifest = self.rerun(tmp_path, out, TINY_CONFIG)
        names = [stage.name for stage in STAGES]
        k = names.index(first)
        assert manifest["stages"] == dict.fromkeys(names[:k], "skipped") | dict.fromkeys(names[k:], "done")
        assert set(manifest["keys"]) == set(names)

    def test_run_json_without_keys_reruns_every_stage(self, tmp_path):
        out = tmp_path / "run"
        self.rerun(tmp_path, out, TINY_CONFIG)
        (out / "run.json").write_text("[]")
        manifest = self.rerun(tmp_path, out, TINY_CONFIG)
        assert set(manifest["stages"].values()) == {"done"}


def test_single_stage_sequence_matches_run(tmp_path):
    """The per-stage calls perfbench/run.py makes give the artifacts of ``run``."""
    cfg = write_config(tmp_path, SMALL_CONFIG | {"assoc": {"mode": "greedy"}})
    staged, run = tmp_path / "staged", tmp_path / "run"
    c = ["--config", cfg]
    m = ["--manifest", str(staged / "dataset" / "manifest.json")]

    def a(name):
        return str(staged / name)

    calls = [
        ["synth", *c, "--out", str(staged)],
        ["associate", *c, *m, "--out", a("tracks.jsonl")],
        ["consensus", *c, *m, "--tracks", a("tracks.jsonl"), "--out", a("consensus.jsonl")],
        ["keyframe", *c, *m, "--consensus", a("consensus.jsonl"), "--out", a("descriptions.jsonl")],
        ["train", *c, *m, "--consensus", a("consensus.jsonl"), "--descriptions", a("descriptions.jsonl"),
         "--geometry", a("field_geometry.json"), "--loss-curve", a("loss_curve.csv"), "--out", a("model.json")],
        ["eval", *c, *m, "--consensus", a("consensus.jsonl"), "--model", a("model.json"),
         "--descriptions", a("descriptions.jsonl"), "--ground-truth", a("ground_truth.json"),
         "--out", a("report.json")],
    ]
    for argv in calls:
        assert main(argv) == 0, argv
    assert main(["run", *c, "--out", str(run)]) == 0
    assert tree_bytes(staged) == tree_bytes(run)


def benchmark_calls(c, scene, out):
    """The stage calls, then the sweep, that one benchmark pipeline process makes, writing into ``out``."""
    m = ["--manifest", str(scene / "dataset" / "manifest.json")]
    gt = ["--ground-truth", str(scene / "ground_truth.json")]

    def a(name):
        return str(out / name)

    return [
        ["associate", *c, *m, "--out", a("tracks.jsonl")],
        ["consensus", *c, *m, "--tracks", a("tracks.jsonl"), "--out", a("consensus.jsonl")],
        ["keyframe", *c, *m, "--consensus", a("consensus.jsonl"), "--out", a("descriptions.jsonl")],
        ["train", *c, *m, "--consensus", a("consensus.jsonl"), "--descriptions", a("descriptions.jsonl"),
         "--geometry", str(scene / "field_geometry.json"), "--loss-curve", a("loss_curve.csv"),
         "--out", a("model.json")],
        ["eval", *c, *m, "--consensus", a("consensus.jsonl"), "--model", a("model.json"),
         "--descriptions", a("descriptions.jsonl"), *gt, "--out", a("report.json")],
        ["sweep", *c, *m, "--tracks", a("tracks.jsonl"), "--param", "tau_sem",
         "--values", "0.70,0.75,0.80,0.85,0.90", *gt, "--out", a("sweep.csv")],
    ]


NOISY_CONFIG = {"seed": 3, "synth": {"n_views": 6, "height": 32, "width": 32, "n_objects": 3,
                                     "noise": {"synonym_rate": 0.35, "wrong_label_rate": 0.1, "mask_jitter": 1,
                                               "strip_track_ids": True}},
                "assoc": {"mode": "greedy"}, "train": {"epochs": 1, "spread": 4.0}}


def test_one_process_gives_the_artifacts_of_separate_processes(tmp_path, monkeypatch):
    """The benchmark's calls in one process, where each stage reads what earlier stages kept (the
    files they wrote, the clustering), write every artifact that the same calls write each in a
    process of its own."""
    c = ["--config", write_config(tmp_path, NOISY_CONFIG)]
    scene, one, own = tmp_path / "scene", tmp_path / "one", tmp_path / "own"
    assert main(["synth", *c, "--out", str(scene)]) == 0
    agglomerated = []
    real = consensus._agglomerate
    monkeypatch.setattr(consensus, "_agglomerate", lambda *args: agglomerated.append(len(args[0])) or real(*args))
    one.mkdir()
    for argv in benchmark_calls(c, scene, one):
        assert main(argv) == 0, argv
    assert len(agglomerated) == 1  # consensus agglomerated to one cluster; eval and the sweep cut it

    own.mkdir()
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for argv in benchmark_calls(c, scene, own):
        proc = subprocess.run([sys.executable, "-m", "trackfuse.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert sorted(tree_bytes(one)) == ["consensus.jsonl", "descriptions.jsonl", "loss_curve.csv", "model.json",
                                       "report.json", "sweep.csv", "tracks.jsonl"]
    assert tree_bytes(one) == tree_bytes(own)


def decoded_masks(monkeypatch) -> list:
    """The masks every trackfuse module's ``rle_decode`` and ``rle_decode_many`` decode from now on,
    the masks themselves, so that no id is reused while they are counted."""
    decoded = []
    original, original_many = rle.rle_decode, rle.rle_decode_many
    for module in list(sys.modules.values()):
        if not module.__name__.startswith("trackfuse"):
            continue
        if getattr(module, "rle_decode", None) is original:
            monkeypatch.setattr(module, "rle_decode", lambda mask: decoded.append(mask) or original(mask))
        if getattr(module, "rle_decode_many", None) is original_many:
            monkeypatch.setattr(module, "rle_decode_many", lambda masks: decoded.extend(masks) or original_many(masks))
    return decoded


def test_one_process_decodes_each_mask_once(tmp_path, monkeypatch):
    """In the benchmark's process, from associate to the sweep, every detection mask and every
    ground-truth (object, view) mask is decoded exactly once: each stage reads the bit-packed rows
    the kept dataset and ground truth hold."""
    c = ["--config", write_config(tmp_path, NOISY_CONFIG)]
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert main(["synth", *c, "--out", str(scene)]) == 0
    decoded = decoded_masks(monkeypatch)
    out.mkdir()
    for argv in benchmark_calls(c, scene, out):
        assert main(argv) == 0, argv
    ds = load_dataset(scene / "dataset" / "manifest.json")
    gt = load_ground_truth(scene / "ground_truth.json", ds)  # both kept: the objects the stages read
    masks = [*ds.masks, *(m for obj in gt.objects for m in obj.masks)]
    assert Counter(map(id, decoded)) == Counter(map(id, masks)) == dict.fromkeys(map(id, masks), 1)


def test_consensus_and_sigma_sweep_decode_no_mask(tmp_path, monkeypatch):
    """A ``consensus`` stage and a ``sweep --param sigma``, each as a new process starts, read the
    member areas from the run counts (``SceneDataset.area``): neither decodes a mask."""
    c = ["--config", write_config(tmp_path, NOISY_CONFIG)]
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert main(["synth", *c, "--out", str(scene)]) == 0
    out.mkdir()
    associate, consensus_call, *_, sweep = benchmark_calls(c, scene, out)
    assert main(associate) == 0
    sigma = [*sweep[: sweep.index("--param")], "--param", "sigma", "--values", "0.5,1,2,4,8",
             "--out", str(out / "sweep-sigma.csv")]
    decoded = decoded_masks(monkeypatch)
    for argv in (consensus_call, sigma):
        forget_kept()  # as a new process starts
        assert main(argv) == 0, argv
    assert (out / "consensus.jsonl").is_file() and (out / "sweep-sigma.csv").is_file()
    assert decoded == []


def test_sweep_after_eval_builds_no_iou_table(tmp_path, monkeypatch):
    """In the benchmark's process, eval builds the detection IoU table a view at a time, and the
    sweep after it reads the kept table (``detection_ious``): it builds none, and writes the CSV
    the sweep writes in a process of its own, which builds the table again."""
    c = ["--config", write_config(tmp_path, NOISY_CONFIG)]
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert main(["synth", *c, "--out", str(scene)]) == 0
    built = []
    real = rle.iou_table
    for module in list(sys.modules.values()):
        if module.__name__.startswith("trackfuse") and getattr(module, "iou_table", None) is real:
            monkeypatch.setattr(module, "iou_table", lambda *a: built.append(1) or real(*a))
    out.mkdir()
    *stages, eval_call, sweep = benchmark_calls(c, scene, out)
    for argv in stages:
        assert main(argv) == 0, argv
    n_views = NOISY_CONFIG["synth"]["n_views"]
    for argv, tables in ((eval_call, n_views), (sweep, 0)):
        built.clear()
        assert main(argv) == 0, argv
        assert len(built) == tables, argv
    alone = (out / "sweep.csv").read_bytes()

    forget_kept()  # as a new process starts
    built.clear()
    assert main(sweep) == 0
    assert len(built) == n_views
    assert (out / "sweep.csv").read_bytes() == alone


def test_eval_and_the_sweep_each_tally_once(tmp_path, monkeypatch):
    """Eval scores the re-vote it checks its records with, and a ``tau_sem`` sweep votes all its
    values together: each makes one ``consensus._tally`` call, in the benchmark's process and each
    as a process of its own."""
    c = ["--config", write_config(tmp_path, NOISY_CONFIG)]
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert main(["synth", *c, "--out", str(scene)]) == 0
    out.mkdir()
    *stages, eval_call, sweep = benchmark_calls(c, scene, out)
    for argv in stages:
        assert main(argv) == 0, argv
    tallies = []
    real = consensus._tally
    monkeypatch.setattr(consensus, "_tally", lambda *a: tallies.append(1) or real(*a))
    for fresh in (False, True):
        for argv in (eval_call, sweep):
            if fresh:
                forget_kept()  # as a new process starts
            tallies.clear()
            assert main(argv) == 0, argv
            assert len(tallies) == 1, argv


def test_report_accuracy_is_the_sweep_row_at_the_config_tau_sem(tmp_path):
    """``report.json``'s ``cluster_count``, ``per_view_acc`` and ``tscm_acc`` are ``sweep.csv``'s row
    at the config's ``consensus.tau_sem``: in the benchmark's process, where the sweep reads what
    eval kept, and with eval and the sweep each in a process of its own."""
    config = NOISY_CONFIG | {"consensus": {"tau_sem": 0.8}}
    c = ["--config", write_config(tmp_path, config)]
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert main(["synth", *c, "--out", str(scene)]) == 0
    out.mkdir()
    calls = benchmark_calls(c, scene, out)

    def check():
        report = read_json(out / "report.json")["metrics"]
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        [row] = [dict(zip(header.split(","), line.split(","))) for line in lines if line.split(",")[0] == "0.8"]
        keys = ("cluster_count", "per_view_acc", "tscm_acc")
        assert {k: float(row[k]) for k in keys} == {k: report[k] for k in keys}

    for argv in calls:
        assert main(argv) == 0, argv
    check()
    for argv in calls[-2:]:  # eval, then the sweep
        forget_kept()  # as a new process starts
        assert main(argv) == 0, argv
    check()


def test_one_process_parses_no_file_it_wrote(tmp_path, monkeypatch):
    """In the benchmark's process, no stage decodes the JSON of a file an earlier stage wrote: each
    saver kept what its reader would give. A new process parses and checks each of them."""
    c = ["--config", write_config(tmp_path, NOISY_CONFIG)]
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert main(["synth", *c, "--out", str(scene)]) == 0
    forget_kept()  # synth runs in a process of its own
    parsed = []
    real = records.parse_json
    for module in list(sys.modules.values()):
        if module.__name__.startswith("trackfuse") and getattr(module, "parse_json", None) is real:
            monkeypatch.setattr(module, "parse_json", lambda where, *a: parsed.append(str(where)) or real(where, *a))

    def parsed_files():
        return {where.split(":")[0] for where in parsed}

    out.mkdir()
    calls = benchmark_calls(c, scene, out)
    for argv in calls:
        assert main(argv) == 0, argv
    written = {str(out / name) for name in ("tracks.jsonl", "consensus.jsonl", "descriptions.jsonl", "model.json")}
    assert str(scene / "field_geometry.json") in parsed_files()
    assert parsed_files().isdisjoint(written)

    forget_kept()  # as a new process starts
    parsed.clear()
    for argv in calls[4:]:  # eval, then the sweep
        assert main(argv) == 0, argv
    assert written <= parsed_files()
