"""Command-line entry points.

Subcommands: synth | associate | consensus | keyframe | train | eval |
sweep | run. Every subcommand takes --config/--seed/--out; flags override
config keys; TRACKFUSE_OUT sets the default output root. ``run`` executes
the whole staged pipeline into one directory, skipping stages whose
output already exists unless --force is given.

Exit codes: 0 ok, 1 usage error, 2 data/schema error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import logging
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import __version__
from .consensus import (
    DEFAULT_TAU_SEM,
    check_tau_sem,
    cluster_synonyms,
    load_consensus,
    member_table,
    run_consensus,
    save_consensus,
)
from .errors import NumericError, SchemaError, StageError
from .field import (
    DEFAULT_GAUSSIANS_PER_OBJECT,
    DEFAULT_SPREAD,
    TrainConfig,
    field_from_ground_truth,
    load_field,
    save_field,
    save_loss_curve,
    train,
)
from .keyframes import (
    DEFAULT_SIGMA,
    ExternalDescriptions,
    check_keyframe_settings,
    member_areas,
    run_keyframes,
    select_keyframe,
)
from .metrics import consensus_accuracy, detection_ious, emit_report, eval_miou, matched_objects, tau_sem_rows
from .records import (
    config_hash,
    file_digest,
    load_dataset,
    load_descriptions,
    manifest_file,
    manifest_tracks,
    read_json,
    save_dataset,
    save_descriptions,
    write_csv,
    write_json,
)
from .synth import (
    GroundTruth,
    NoiseSpec,
    SynonymGroup,
    SynthConfig,
    corrupt,
    generate_scene,
    load_ground_truth,
    save_ground_truth,
    side_margin,
)
from .tracking import AssocParams, associate_greedy, import_tracks, load_tracks, save_tracks

logger = logging.getLogger(__name__)

DEFAULT_CONFIG = {
    "seed": 0,
    "synth": {},
    "assoc": {"mode": "import", **asdict(AssocParams())},
    "consensus": {"tau_sem": DEFAULT_TAU_SEM},
    "keyframe": {"sigma": DEFAULT_SIGMA, "strategy": "weighting", "external": None},
    "train": {
        **{key: getattr(TrainConfig, key) for key in ("lam", "tau", "epochs", "feature_lr", "views")},
        "spread": DEFAULT_SPREAD,
        "gaussians_per_object": DEFAULT_GAUSSIANS_PER_OBJECT,
        "long_only": False,
    },
    "eval": {"views": None},
}

# The files of a run directory, keyed by the path flag that names each one
# ("scene" is the run directory itself).
RUN_FILES = {
    "scene": ".",
    "manifest": "dataset/manifest.json",
    "ground_truth": "ground_truth.json",
    "geometry": "field_geometry.json",
    "tracks": "tracks.jsonl",
    "consensus": "consensus.jsonl",
    "descriptions": "descriptions.jsonl",
    "model": "model.json",
    "loss_curve": "loss_curve.csv",
    "report": "report.json",
}

# Exit code per error type; a StageError exits with the code of its cause.
EXIT_CODES = ((SchemaError, 2), (NumericError, 3), (ValueError, 1), (OSError, 2))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# "section.key" -> type of every setting a config file may hold: the types of the defaults and the
# hints of the config dataclasses. A bare SynthConfig document's top-level fields are "synth" keys.
_TYPES = {
    f"{section}.{key}": type(value)
    for section, keys in DEFAULT_CONFIG.items() if isinstance(keys, dict) for key, value in keys.items()
} | {
    f"{section}.{key}": kind
    for section, cls in (("train", TrainConfig), ("synth", SynthConfig), ("synth.noise", NoiseSpec))
    for key, kind in get_type_hints(cls).items()
}


def _check_value(name: str, value, kind) -> None:
    """Refuse a ``value`` of setting ``name`` that is not of type ``kind``; the builders check ranges."""
    # any JSON value would pass a truth test; a string or a bool for a number would fail only
    # when its stage runs, and a fraction for an int would be truncated there
    if kind is bool and not isinstance(value, bool):
        raise SchemaError(f"{name} must be true or false, got {value!r}")
    elif kind in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    elif kind is int and not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    elif kind is NoiseSpec:
        _check_section(name, value, "synth.noise")
    elif kind == tuple[SynonymGroup, ...]:
        _check_vocabulary(name, value)


def _check_section(name: str, value, section: str) -> None:
    """Each key of ``value``, the config object written ``name``, is a ``section`` setting of its type."""
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be a JSON object, got {value!r}")
    for key, item in value.items():
        if f"{section}.{key}" not in _TYPES:
            raise SchemaError(f"{name}.{key} is not a {name} setting")
        _check_value(f"{name}.{key}", item, _TYPES[f"{section}.{key}"])


_GROUP = '{"canonical": str, "synonyms": [str, ...]}'


def _check_vocabulary(name: str, value) -> None:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{name} must be a non-empty list of {_GROUP} groups, got {value!r}")
    seen: set[str] = set()
    for i, group in enumerate(value):
        words = group.get("synonyms") if isinstance(group, dict) else None
        if not (
            isinstance(words, list)
            and set(group) == {"canonical", "synonyms"}
            and all(isinstance(word, str) for word in [group["canonical"], *words])
        ):
            raise SchemaError(f"{name}[{i}] must be {_GROUP}, got {group!r}")
        for word in [group["canonical"], *words]:
            if word in seen:
                raise SchemaError(f"{name}[{i}]: {word!r} is already a word of the vocabulary")
            seen.add(word)


def load_config(path: str | None) -> dict:
    """The defaults updated by the file at ``path``; top-level SynthConfig fields (a bare one) are kept.

    Each setting of the file is checked for its type, and then by the builder its stage calls,
    so that a bad one exits 2 as ``<file>: <section>.<key> ...`` before any stage runs.
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)

    def merge(doc: dict) -> None:
        for key, value in doc.items():
            if key != "seed" and key in DEFAULT_CONFIG:
                _check_section(key, value, key)
                cfg[key].update(value)
            elif f"synth.{key}" in _TYPES:  # a bare SynthConfig document's field; "seed" is one too
                _check_value(key, value, _TYPES[f"synth.{key}"])
                cfg[key] = value
            else:
                raise SchemaError(f"{key} is not a config section or a synth setting")
        builders = (
            ("assoc.", _assoc_params),
            ("consensus.", _tau_sem),
            ("keyframe.", _keyframe_settings),
            ("train.", _geometry),
            ("train.", lambda cfg: _train_config(cfg, None)),
            ("eval.", lambda cfg: _views(cfg, "eval", None)),
            ("", lambda cfg: _seed(cfg["seed"])),
            ("synth." if cfg["synth"] else "", _synth_config),
        )
        for prefix, build in builders:
            try:
                build(cfg)
            except ValueError as exc:
                raise SchemaError(f"{prefix}{exc}") from exc

    if path:
        read_json(path, merge)
    return cfg


# ---------------------------------------------------------------------------
# builders: each turns one config section into what its stage takes, and raises
# a ValueError whose message starts with the name of the setting it refuses
# (``_views`` raises a SchemaError: a view outside the dataset is a data error)


def _settings(cfg: dict, section: str) -> dict:
    """Config section ``section`` over its defaults: a ``run_pipeline`` caller may replace a whole section."""
    return DEFAULT_CONFIG[section] | cfg[section]


def _seed(value: int) -> int:
    """The run seed, from the config or ``--seed``: numpy's generators take no negative seed."""
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value!r}")
    return value


def _assoc_params(cfg: dict) -> tuple[str, AssocParams]:
    assoc = _settings(cfg, "assoc")
    if assoc["mode"] not in ("import", "greedy"):
        raise ValueError(f"mode must be 'import' or 'greedy', got {assoc['mode']!r}")
    params = AssocParams(float(assoc["iou_weight"]), float(assoc["match_threshold"]), int(assoc["max_gap"]))
    return assoc["mode"], params


def _tau_sem(cfg: dict) -> float:
    tau_sem = _settings(cfg, "consensus")["tau_sem"]
    check_tau_sem(tau_sem)
    return float(tau_sem)


def _keyframe_settings(cfg: dict) -> tuple[str, float, str | None]:
    """The strategy, sigma and external captions file of the keyframe section."""
    keyframe = _settings(cfg, "keyframe")
    strategy, sigma, external = keyframe["strategy"], keyframe["sigma"], keyframe["external"]
    check_keyframe_settings(strategy, sigma)
    if external is not None and not isinstance(external, str):
        raise ValueError(f"external must be a file path or null, got {external!r}")
    return strategy, float(sigma), external


def _geometry(cfg: dict) -> dict:
    """The spread and per-object Gaussian count ``field_from_ground_truth`` takes, from the train
    section; checked by building the field of a scene without objects."""
    train = _settings(cfg, "train")
    geometry = {"spread": float(train["spread"]), "per_object": int(train["gaussians_per_object"])}
    field_from_ground_truth(GroundTruth([]), n_views=0, height=1, width=1, **geometry)
    return geometry


def _train_config(cfg: dict, n_views: int | None) -> TrainConfig:
    train = _settings(cfg, "train")
    views = _views(cfg, "train", n_views)
    numbers = {key: _TYPES[f"train.{key}"](value) for key, value in train.items()
               if key in TrainConfig.__dataclass_fields__ and key != "views"}
    return TrainConfig(**numbers, views=None if views is None else tuple(views))


def _views(cfg: dict, section: str, n_views: int | None) -> list[int] | None:
    """The ``<section>.views`` list, each entry checked to be a view of a dataset of ``n_views``
    views; with ``n_views`` None (no dataset yet), only to be an integer."""
    views = _settings(cfg, section)["views"]
    if views is None:
        return None
    if not isinstance(views, list):
        raise SchemaError(f"{section}.views must be a list of view indices, got {views!r}")
    for view in views:
        if type(view) is not int:
            raise SchemaError(f"{section}.views: {view!r} is not a view index")
        if n_views is not None and not 0 <= view < n_views:
            raise SchemaError(f"{section}.views: {view!r} is not a view of the dataset, which has {n_views} views")
    return views


def _synth_config(cfg: dict) -> SynthConfig:
    """The synth section, or else a bare SynthConfig document's top-level fields (no pipeline
    sections), seeded with the run seed unless they set one; an error names the key as written there."""
    section = _settings(cfg, "synth") or {k: v for k, v in cfg.items() if f"synth.{k}" in _TYPES and k != "seed"}
    try:
        NoiseSpec(**section.get("noise", {}))
    except ValueError as exc:
        raise ValueError(f"noise.{exc}") from exc
    scfg = SynthConfig.from_json({"seed": cfg["seed"]} | section)
    margin = side_margin(scfg.height)
    for key in ("height", "width"):
        if not getattr(scfg, key) > margin:
            raise ValueError(f"{key} must exceed 2 * (height / 6 + 1) = {margin:g}, got {getattr(scfg, key)!r}")
    return scfg


# ---------------------------------------------------------------------------
# stages: each takes (cfg, paths keyed like RUN_FILES), writes its done-marker
# last, and returns the path it reports


def stage_synth(cfg: dict, paths: dict[str, Path]) -> Path:
    scfg, geometry = _synth_config(cfg), _geometry(cfg)
    ds, gt = generate_scene(scfg)
    ds = corrupt(ds, gt, scfg)
    out_dir = paths["scene"]
    out_dir.mkdir(parents=True, exist_ok=True)
    save_ground_truth(gt, out_dir / "ground_truth.json")
    field_ = field_from_ground_truth(gt, n_views=ds.n_views, height=ds.height, width=ds.width, dim=ds.dim, **geometry)
    save_field(field_, out_dir / "field_geometry.json", ds)
    return save_dataset(ds, out_dir / "dataset")


def stage_associate(cfg: dict, paths: dict[str, Path]) -> Path:
    mode, params = _assoc_params(cfg)
    ds = load_dataset(paths["manifest"])
    external = manifest_tracks(paths["manifest"])
    if external is not None:
        # dataset ships an external tracker's output: validate and adopt it
        trajectories = load_tracks(external, ds)
    elif mode == "import":
        trajectories = import_tracks(ds)
    else:
        trajectories = associate_greedy(ds, params)
    save_tracks(trajectories, paths["tracks"], ds)
    return paths["tracks"]


def stage_consensus(cfg: dict, paths: dict[str, Path]) -> Path:
    tau_sem = _tau_sem(cfg)
    ds = load_dataset(paths["manifest"])
    trajectories = load_tracks(paths["tracks"], ds)
    result = run_consensus(ds, trajectories, tau_sem=tau_sem)
    save_consensus(result.records, paths["consensus"], ds)
    return paths["consensus"]


def stage_keyframe(cfg: dict, paths: dict[str, Path]) -> Path:
    strategy, sigma, external = _keyframe_settings(cfg)
    ds = load_dataset(paths["manifest"])
    records = load_consensus(paths["consensus"], ds)
    captions = ExternalDescriptions.load(external, dim=ds.dim) if external else None
    descriptions = run_keyframes(ds, records, strategy=strategy, sigma=sigma, seed=cfg["seed"], external=captions)
    save_descriptions(descriptions, paths["descriptions"], ds)
    return paths["descriptions"]


def _descriptions(ds, paths: dict[str, Path]):
    """The description sets ``train`` and ``eval`` read: the ``--descriptions`` file's, else the
    dataset manifest's ``descriptions`` entry's; None if there are neither."""
    if "descriptions" in paths:
        return load_descriptions(paths["descriptions"], dim=ds.dim)
    return ds.descriptions


def stage_train(cfg: dict, paths: dict[str, Path]) -> Path:
    ds = load_dataset(paths["manifest"])
    records = load_consensus(paths["consensus"], ds)
    descriptions = _descriptions(ds, paths)
    if descriptions is None:
        raise SchemaError(
            "no descriptions source: pass --descriptions or add a 'descriptions' "
            "entry to the dataset manifest"
        )
    # without --geometry: <scene>/field_geometry.json, where synth wrote it, two levels above the
    # manifest file (--manifest may name its directory)
    geometry = paths.get("geometry") or manifest_file(paths["manifest"]).parent.parent / "field_geometry.json"
    field_ = load_field(geometry, ds)
    long_only = _settings(cfg, "train")["long_only"]
    field_, curve = train(
        field_, ds, records, descriptions, _train_config(cfg, ds.n_views), include_category=not long_only
    )
    if "loss_curve" in paths:
        save_loss_curve(curve, paths["loss_curve"])
    save_field(field_, paths["model"], ds)
    return paths["model"]


def _scored(paths: dict[str, Path], score: Callable, *args):
    """``score(*args)`` (``consensus_accuracy`` or ``tau_sem_rows``), its error (no detection matches
    an object) naming the ground-truth file."""
    try:
        return score(*args)
    except SchemaError as exc:
        raise SchemaError(f"{paths['ground_truth']}: {exc}") from exc


def stage_eval(cfg: dict, paths: dict[str, Path]) -> Path:
    ds = load_dataset(paths["manifest"])
    records = load_consensus(paths["consensus"], ds)
    gt = load_ground_truth(paths["ground_truth"], ds) if "ground_truth" in paths else None
    ious = detection_ious(ds, gt) if gt is not None else None

    metrics: dict = {"n_tracks": len(records)}
    trajectories_views = sorted({v for rec in records for v, _ in rec.members})

    tau_sem = _tau_sem(cfg)
    # the report describes the clustering at the config's tau_sem: refuse records voted otherwise
    revote = run_consensus(ds, records, tau_sem)
    for rec, again in zip(sorted(records, key=lambda r: r.track_id), revote.records):
        if (rec.votes, rec.canonical) != (again.votes, again.canonical):
            raise SchemaError(
                f"{paths['consensus']}: track {rec.track_id} has votes {dict(rec.votes)} for {rec.canonical!r}, "
                f"but the clustering at consensus.tau_sem {tau_sem} gives "
                f"{dict(sorted(again.votes.items()))} for {again.canonical!r}"
            )
    clustering = revote.clustering
    if clustering.labels:
        metrics["cluster_count"] = len(clustering.canonical)
        if gt is not None:
            metrics.update(_scored(paths, consensus_accuracy, revote, gt, matched_objects(ious))[0])

    if "model" in paths:
        field_ = load_field(paths["model"], ds)
        eval_views = _views(cfg, "eval", ds.n_views)
        views = eval_views if eval_views is not None else trajectories_views
        if gt is not None and views:
            metrics.update(eval_miou(field_, ds, gt, records, ious, views, _descriptions(ds, paths)))

    emit_report(metrics, cfg, {"seed": cfg["seed"]}, paths["report"])
    return paths["report"]


# ---------------------------------------------------------------------------
# the stage table: drives both the single-stage subcommands and ``run``


@dataclass(frozen=True)
class Stage:
    name: str
    help: str
    default_out: str  # --out default under $TRACKFUSE_OUT
    output: str  # RUN_FILES key that --out sets
    marker: str  # RUN_FILES key whose existence, with a matching key, makes ``run`` skip the stage
    run: Callable[[dict, dict[str, Path]], Path]
    config: tuple[str, ...]  # the config sections ("section.key" settings) the stage reads
    inputs: tuple[str, ...] = ()  # required path flags, RUN_FILES keys
    optional: tuple[str, ...] = ()  # optional path flags, RUN_FILES keys
    overrides: tuple[tuple[str, dict], ...] = ()  # ("section.key", argparse kwargs)
    also_writes: tuple[str, ...] = ()  # path flags the stage writes besides its output


STAGES = (
    Stage("synth", "generate a synthetic scene dataset", "scene", "scene", "manifest",
          stage_synth, config=("seed", "synth", "train.spread", "train.gaussians_per_object")),
    Stage(
        "associate", "build trajectories from detections", "tracks.jsonl", "tracks",
        "tracks", stage_associate, config=("assoc",), inputs=("manifest",),
        overrides=(
            ("assoc.mode", {"choices": ["import", "greedy"]}),
            ("assoc.iou_weight", {"type": float}),
            ("assoc.match_threshold", {"type": float}),
            ("assoc.max_gap", {"type": int}),
        ),
    ),
    Stage(
        "consensus", "cluster labels and vote per trajectory", "consensus.jsonl",
        "consensus", "consensus", stage_consensus, config=("consensus",), inputs=("manifest", "tracks"),
        overrides=(("consensus.tau_sem", {"type": float}),),
    ),
    Stage(
        "keyframe", "select keyframes and attach descriptions", "descriptions.jsonl",
        "descriptions", "descriptions", stage_keyframe, config=("seed", "keyframe"),
        inputs=("manifest", "consensus"),
        overrides=(
            ("keyframe.sigma", {"type": float}),
            ("keyframe.strategy", {}),
            ("keyframe.external", {"help": "external descriptions file keyed by (track, view)"}),
        ),
    ),
    Stage(
        "train",
        "train the toy referring field (--descriptions defaults to the manifest's "
        "descriptions entry, --geometry to <scene>/field_geometry.json, two levels above the "
        "manifest)",
        "model.json", "model", "model", stage_train, config=("train",), inputs=("manifest", "consensus"),
        optional=("descriptions", "geometry", "loss_curve"),
        overrides=(("train.long_only", {"action": "store_true", "default": None}),),
        also_writes=("loss_curve",),
    ),
    Stage(
        "eval", "compute metrics and write the report (--descriptions defaults to the manifest's "
        "descriptions entry)", "report.json", "report", "report",
        # the report holds the hash of the whole config
        stage_eval, config=tuple(DEFAULT_CONFIG), inputs=("manifest", "consensus"),
        optional=("ground_truth", "model", "descriptions"),
    ),
)


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(cfg: dict, out_dir: Path, force: bool = False) -> dict:
    """Run every stage into ``out_dir``. Without ``force``, a stage is skipped when its marker exists
    and the key ``run.json`` stored for it equals its key now (``_stage_key``); once one runs, every
    later one runs too."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    statuses: dict[str, str] = {}
    keys = _stored_keys(out_dir / "run.json")
    paths = {key: out_dir / name for key, name in RUN_FILES.items()}

    for stage in STAGES:
        try:
            key = _stage_key(cfg, stage, paths)
            if not force and paths[stage.marker].exists() and keys.get(stage.name) == key:
                statuses[stage.name] = "skipped"
                logger.info("stage %s: output exists and its key matches, skipping", stage.name)
                continue
            # every later stage reads this stage's output, directly or not: re-run them all
            force = True
            keys.pop(stage.name, None)
            logger.info("stage %s: running", stage.name)
            stage.run(cfg, paths)
        except Exception as exc:
            statuses[stage.name] = "failed"
            _write_run_manifest(out_dir, cfg, statuses, keys, started)
            raise StageError(f"stage {stage.name!r} failed: {exc}") from exc
        statuses[stage.name] = "done"
        keys[stage.name] = key

    return _write_run_manifest(out_dir, cfg, statuses, keys, started)


def _stage_key(cfg: dict, stage: Stage, paths: dict[str, Path]) -> str:
    """sha256 of the config sections ``stage`` reads and the digests of its input files: of the
    dataset, the key ``load_dataset`` gives it; of any other file, the sha256 of its bytes."""
    config = {}
    for name in stage.config:
        section, _, setting = name.partition(".")
        config[name] = _settings(cfg, section)[setting] if setting else cfg.get(name)
    if "synth" in stage.config:  # a bare SynthConfig document's fields sit at the top level
        config |= {name: value for name, value in cfg.items() if name not in DEFAULT_CONFIG}
    files = {flag: paths[flag] for flag in stage.inputs + stage.optional
             if flag in paths and flag not in stage.also_writes}
    external = _keyframe_settings(cfg)[2] if stage.name == "keyframe" else None
    if external:  # the truth test of stage_keyframe: null or "" means template captions
        files["external"] = Path(external)
    inputs = {
        flag: [digest.hex() for digest in load_dataset(path).key] if flag == "manifest" else file_digest(path)
        for flag, path in files.items()
    }
    return config_hash({"config": config, "inputs": inputs})


def _stored_keys(path: Path) -> dict[str, str]:
    """The stage keys a ``run.json`` holds; none if it is missing or unreadable, so every stage runs."""
    try:
        manifest = read_json(path)
    except (OSError, SchemaError):
        return {}
    keys = manifest.get("keys") if isinstance(manifest, dict) else None
    return dict(keys) if isinstance(keys, dict) else {}


def _write_run_manifest(out_dir: Path, cfg: dict, statuses: dict, keys: dict, started: float) -> dict:
    manifest = {
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "stages": statuses,
        "keys": keys,
        "versions": {
            "trackfuse": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "started": started,
        "finished": time.time(),
    }
    write_json(manifest, out_dir / "run.json")
    return manifest


# ---------------------------------------------------------------------------
# sweep


def run_sweep(
    cfg: dict, paths: dict[str, Path], param: str, values: list[float], out_path: Path
) -> list[dict]:
    ds = load_dataset(paths["manifest"])
    trajectories = load_tracks(paths["tracks"], ds)
    gt = load_ground_truth(paths["ground_truth"], ds) if "ground_truth" in paths else None

    if param == "tau_sem":
        for value in values:
            check_tau_sem(value)
        matched = None
        if gt is not None and ds.masks:
            # masks, not labels, decide the matching, so one serves every value;
            # like eval, no accuracy columns for a dataset without detections
            matched = matched_objects(detection_ious(ds, gt))
        table = member_table(ds, trajectories)
        agglomeration = cluster_synonyms(list(ds.labels), ds.embeddings, values[0])
        rows = _scored(paths, tau_sem_rows, table, agglomeration, values, gt, matched)
    elif param == "sigma":
        for value in values:
            check_keyframe_settings("weighting", value)
        # the member areas do not depend on sigma: one list serves every value, in track order
        track_areas = [member_areas(ds, traj) for traj in sorted(trajectories, key=lambda t: t.track_id)]
        rows = []
        for value in values:
            keyframes = [select_keyframe(areas, "weighting", value) for areas in track_areas]
            mean = float(np.mean(keyframes)) if keyframes else float("nan")
            rows.append({"value": value, "mean_keyframe": mean, "n_tracks": len(keyframes)})
    else:
        raise ValueError(f"unknown sweep parameter {param!r}")

    fields = sorted({k for row in rows for k in row}, key=lambda k: (k != "value", k))
    write_csv(fields, ([row.get(k, "") for k in fields] for row in rows), out_path)
    return rows


# ---------------------------------------------------------------------------
# argument parsing


def _flag(key: str) -> str:
    """--flag for a RUN_FILES key or a "section.key" config override."""
    return "--" + key.rpartition(".")[2].replace("_", "-")


@functools.cache  # built once per process: parse_args does not change the parser
def build_parser() -> _Parser:
    parser = _Parser(prog="trackfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help: str, default_out: str, inputs=(), optional=()):
        p = sub.add_parser(name, help=help)
        p.set_defaults(default_out=default_out)
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help=f"output path (default: $TRACKFUSE_OUT/{default_out})")
        for key in inputs + optional:
            p.add_argument(_flag(key), dest=key, type=Path, required=key in inputs)
        return p

    for stage in STAGES:
        p = command(stage.name, stage.help, stage.default_out, stage.inputs, stage.optional)
        p.set_defaults(stage=stage)
        for dest, kwargs in stage.overrides:
            p.add_argument(_flag(dest), dest=dest, **kwargs)

    p = command("sweep", "sweep one parameter and export a CSV table", "sweep.csv",
                inputs=("manifest", "tracks"), optional=("ground_truth",))
    p.add_argument("--param", choices=["tau_sem", "sigma"], default="tau_sem")
    p.add_argument("--values", required=True, help="comma-separated values")

    p = command("run", "run the full pipeline into one directory", "run")
    p.add_argument("--force", action="store_true", help="re-run stages whose output exists")

    return parser


def _dispatch(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = _seed(args.seed)
    paths = {}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            cfg[section][key] = value
        elif dest in RUN_FILES and value is not None:
            paths[dest] = value

    out = Path(args.out or Path(os.environ.get("TRACKFUSE_OUT", "runs")) / args.default_out)
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.command == "run":
        run_pipeline(cfg, out, force=args.force)
    elif args.command == "sweep":
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ValueError("--values is empty")
        run_sweep(cfg, paths, args.param, values, out)
    else:
        out = args.stage.run(cfg, paths | {args.stage.output: out})
    print(out)
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        code = next((code for kind, code in EXIT_CODES if isinstance(cause, kind)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
