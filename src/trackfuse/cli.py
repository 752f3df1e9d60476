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
import logging
import os
import platform
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import __version__
from .consensus import (
    check_tau_sem,
    cluster_synonyms,
    load_consensus,
    observed_labels,
    propagate,
    run_consensus,
    save_consensus,
    vote_tracks,
)
from .errors import NumericError, SchemaError, StageError
from .field import (
    TrainConfig,
    field_from_ground_truth,
    load_field,
    save_field,
    save_loss_curve,
    train,
)
from .keyframes import ExternalDescriptions, member_areas, run_keyframes, select_keyframe
from .metrics import (
    consensus_accuracy,
    emit_report,
    eval_miou,
    iou_tables,
    match_detections_to_objects,
)
from .records import (
    config_hash,
    load_dataset,
    load_descriptions,
    read_json,
    save_dataset,
    save_descriptions,
    write_csv,
    write_json,
)
from .synth import NoiseSpec, SynthConfig, corrupt, generate_scene, load_ground_truth, save_ground_truth
from .tracking import AssocParams, associate_greedy, import_tracks, load_tracks, save_tracks

logger = logging.getLogger(__name__)

DEFAULT_CONFIG = {
    "seed": 0,
    "synth": {},
    "assoc": {"mode": "import", "iou_weight": 0.7, "match_threshold": 0.3, "max_gap": 5},
    "consensus": {"tau_sem": 0.85},
    "keyframe": {"sigma": 100.0, "strategy": "weighting", "external": None},
    "train": {
        "lam": 0.1,
        "tau": 0.1,
        "epochs": 5,
        "feature_lr": 2.5e-3,
        "views": None,
        "spread": 8.0,
        "gaussians_per_object": 5,
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


# TrainConfig fields that the train section may set, with their types
_TRAIN_KEYS = {key: kind for key, kind in get_type_hints(TrainConfig).items() if kind in (int, float)}

# the keys each config section may set
_SECTION_KEYS = {section: set(keys) for section, keys in DEFAULT_CONFIG.items() if section != "seed"}
_SECTION_KEYS["synth"] = set(SynthConfig.__dataclass_fields__)
_SECTION_KEYS["train"] |= set(_TRAIN_KEYS)


# switches: any JSON value would pass a truth test, so only true and false are accepted
_BOOL_KEYS = {"long_only", "strip_track_ids"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# "section.key" settings that take a number, with its type: a string or a bool would fail
# only when its stage runs, and a fraction for an int would be truncated there
_NUMBER_KEYS = {
    f"{section}.{key}": type(default)
    for section, keys in DEFAULT_CONFIG.items()
    if isinstance(keys, dict)
    for key, default in keys.items()
    if _is_number(default)
} | {f"train.{key}": kind for key, kind in _TRAIN_KEYS.items()}


def _check_number(name: str, value, kind: type) -> None:
    if not _is_number(value):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    if kind is int and not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")


def _check_section(section: str, value, keys) -> None:
    if not isinstance(value, dict):
        raise SchemaError(f"{section} must be a JSON object, got {value!r}")
    for key, item in value.items():
        if key not in keys:
            raise SchemaError(f"{section}.{key} is not a {section} setting")
        if key in _BOOL_KEYS and not isinstance(item, bool):
            raise SchemaError(f"{section}.{key} must be true or false, got {item!r}")
        name = f"{section}.{key}"
        if name in _NUMBER_KEYS:
            _check_number(name, item, _NUMBER_KEYS[name])
    if section == "consensus" and "tau_sem" in value and not 0 < value["tau_sem"] < 1:
        raise SchemaError(f"consensus.tau_sem must be in (0, 1), got {value['tau_sem']!r}")


def load_config(path: str | None) -> dict:
    """The defaults updated by the file at ``path``; top-level SynthConfig fields (a bare one) are kept."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)

    def merge(doc: dict) -> None:
        for key, value in doc.items():
            if key not in _SECTION_KEYS:
                if key not in _SECTION_KEYS["synth"]:  # "seed" is a synth setting too
                    raise SchemaError(f"{key} is not a config section or a synth setting")
                if key == "noise":  # a bare SynthConfig document's noise
                    _check_section("noise", value, NoiseSpec.__dataclass_fields__)
                if key == "seed":
                    _check_number("seed", value, int)
                cfg[key] = value
                continue
            _check_section(key, value, _SECTION_KEYS[key])
            if key == "synth" and "noise" in value:
                _check_section("synth.noise", value["noise"], NoiseSpec.__dataclass_fields__)
            cfg[key].update(value)

    if path:
        read_json(path, merge)
    return cfg


def _synth_config(cfg: dict, seed: int) -> SynthConfig:
    section = dict(cfg["synth"])
    if not section:
        # a bare SynthConfig document (no pipeline sections) is also accepted
        section = {k: v for k, v in cfg.items() if k in _SECTION_KEYS["synth"] and k != "seed"}
    section.setdefault("seed", seed)
    return SynthConfig.from_json(section)


def _train_config(cfg: dict, n_views: int) -> TrainConfig:
    kwargs = {key: cast(cfg["train"][key]) for key, cast in _TRAIN_KEYS.items() if key in cfg["train"]}
    views = _views(cfg, "train", n_views)
    if views is not None:
        kwargs["views"] = tuple(views)
    return TrainConfig(**kwargs)


def _views(cfg: dict, section: str, n_views: int) -> list[int] | None:
    """The ``<section>.views`` list, each entry checked to be a view of the dataset."""
    views = cfg[section].get("views")
    if views is None:
        return None
    if not isinstance(views, list):
        raise SchemaError(f"{section}.views must be a list of view indices, got {views!r}")
    for view in views:
        if type(view) is not int or not 0 <= view < n_views:
            raise SchemaError(
                f"{section}.views: {view!r} is not a view of the dataset, which has {n_views} views"
            )
    return views


# ---------------------------------------------------------------------------
# stages: each takes (cfg, paths keyed like RUN_FILES, seed), writes its
# done-marker last, and returns the path it reports


def stage_synth(cfg: dict, paths: dict[str, Path], seed: int) -> Path:
    scfg = _synth_config(cfg, seed)
    ds, gt = generate_scene(scfg)
    ds = corrupt(ds, gt, scfg)
    out_dir = paths["scene"]
    out_dir.mkdir(parents=True, exist_ok=True)
    save_ground_truth(gt, out_dir / "ground_truth.json")
    tcfg = cfg["train"]
    geometry = field_from_ground_truth(
        gt,
        n_views=ds.n_views,
        height=ds.height,
        width=ds.width,
        dim=ds.dim,
        spread=float(tcfg.get("spread", 8.0)),
        per_object=int(tcfg.get("gaussians_per_object", 5)),
    )
    save_field(geometry, out_dir / "field_geometry.json")
    return save_dataset(ds, out_dir / "dataset")


def stage_associate(cfg: dict, paths: dict[str, Path], seed: int) -> Path:
    ds = load_dataset(paths["manifest"])
    section = cfg["assoc"]
    mode = section.get("mode", "import")
    if mode not in ("import", "greedy"):
        raise SchemaError(f"assoc.mode must be 'import' or 'greedy', got {mode!r}")
    sidecar = read_json(paths["manifest"]).get("tracks")
    if sidecar is not None:
        # dataset ships an external tracker's output: validate and adopt it
        trajectories = load_tracks(paths["manifest"].parent / sidecar, ds)
    elif mode == "import":
        trajectories = import_tracks(ds)
    else:
        params = AssocParams(
            iou_weight=float(section.get("iou_weight", 0.7)),
            match_threshold=float(section.get("match_threshold", 0.3)),
            max_gap=int(section.get("max_gap", 5)),
        )
        trajectories = associate_greedy(ds, params)
    save_tracks(trajectories, paths["tracks"])
    return paths["tracks"]


def stage_consensus(cfg: dict, paths: dict[str, Path], seed: int) -> Path:
    ds = load_dataset(paths["manifest"])
    trajectories = load_tracks(paths["tracks"], ds)
    result = run_consensus(ds, trajectories, tau_sem=float(cfg["consensus"]["tau_sem"]))
    save_consensus(result.records, paths["consensus"])
    return paths["consensus"]


def stage_keyframe(cfg: dict, paths: dict[str, Path], seed: int) -> Path:
    ds = load_dataset(paths["manifest"])
    records = load_consensus(paths["consensus"], ds)
    section = cfg["keyframe"]
    external = None
    if section.get("external"):
        external = ExternalDescriptions.load(section["external"], dim=ds.dim)
    descriptions = run_keyframes(
        ds,
        records,
        strategy=str(section.get("strategy", "weighting")),
        sigma=float(section.get("sigma", 100.0)),
        seed=seed,
        external=external,
    )
    save_descriptions(descriptions, paths["descriptions"])
    return paths["descriptions"]


def stage_train(cfg: dict, paths: dict[str, Path], seed: int) -> Path:
    ds = load_dataset(paths["manifest"])
    records = load_consensus(paths["consensus"], ds)
    descriptions = ds.descriptions
    if "descriptions" in paths:
        descriptions = load_descriptions(paths["descriptions"], dim=ds.dim)
    if descriptions is None:
        raise SchemaError(
            "no descriptions source: pass --descriptions or add a 'descriptions' "
            "entry to the dataset manifest"
        )
    # without --geometry: <scene>/field_geometry.json, where synth wrote it
    field_ = load_field(paths.get("geometry") or paths["manifest"].parent.parent / "field_geometry.json", ds)
    long_only = bool(cfg["train"].get("long_only", False))
    field_, curve = train(
        field_, ds, records, descriptions, _train_config(cfg, ds.n_views), include_category=not long_only
    )
    if "loss_curve" in paths:
        save_loss_curve(curve, paths["loss_curve"])
    save_field(field_, paths["model"])
    return paths["model"]


def stage_eval(cfg: dict, paths: dict[str, Path], seed: int) -> Path:
    ds = load_dataset(paths["manifest"])
    records = load_consensus(paths["consensus"], ds)
    propagate(ds, records)
    gt = load_ground_truth(paths["ground_truth"], ds) if "ground_truth" in paths else None
    tables = iou_tables(ds, gt) if gt is not None else None

    metrics: dict = {"n_tracks": len(records)}
    trajectories_views = sorted({v for rec in records for v, _ in rec.members})

    tau_sem = float(cfg["consensus"]["tau_sem"])
    observed = observed_labels(ds)
    if observed:
        clustering = cluster_synonyms(observed, ds.embeddings, tau_sem)
        # the report describes this clustering: refuse records voted with another
        for rec in records:
            votes = Counter(clustering.resolve(ds.detection(v, i).raw_label)[1] for v, i in rec.members)
            if votes != Counter(rec.votes):
                raise SchemaError(
                    f"{paths['consensus']}: track {rec.track_id} has votes {rec.votes}, but the "
                    f"clustering at consensus.tau_sem {tau_sem} gives {dict(sorted(votes.items()))}"
                )
        metrics["cluster_count"] = len(clustering.canonical)
        if gt is not None:
            mapping = match_detections_to_objects(tables, gt)
            metrics.update(consensus_accuracy(ds, gt, clustering, mapping))

    if "model" in paths:
        field_ = load_field(paths["model"], ds)
        eval_views = _views(cfg, "eval", ds.n_views)
        views = eval_views if eval_views is not None else trajectories_views
        if gt is not None and views:
            descriptions = None
            if "descriptions" in paths:
                descriptions = load_descriptions(paths["descriptions"], dim=ds.dim)
            metrics.update(eval_miou(field_, ds, gt, records, tables, views, descriptions))

    emit_report(metrics, cfg, {"seed": seed}, paths["report"])
    return paths["report"]


# ---------------------------------------------------------------------------
# the stage table: drives both the single-stage subcommands and ``run``


@dataclass(frozen=True)
class Stage:
    name: str
    help: str
    default_out: str  # --out default under $TRACKFUSE_OUT
    output: str  # RUN_FILES key that --out sets
    marker: str  # RUN_FILES key whose existence makes ``run`` skip the stage
    run: Callable[[dict, dict[str, Path], int], Path]
    inputs: tuple[str, ...] = ()  # required path flags, RUN_FILES keys
    optional: tuple[str, ...] = ()  # optional path flags, RUN_FILES keys
    overrides: tuple[tuple[str, dict], ...] = ()  # ("section.key", argparse kwargs)


STAGES = (
    Stage("synth", "generate a synthetic scene dataset", "scene", "scene", "manifest",
          stage_synth),
    Stage(
        "associate", "build trajectories from detections", "tracks.jsonl", "tracks",
        "tracks", stage_associate, inputs=("manifest",),
        overrides=(
            ("assoc.mode", {"choices": ["import", "greedy"]}),
            ("assoc.iou_weight", {"type": float}),
            ("assoc.match_threshold", {"type": float}),
            ("assoc.max_gap", {"type": int}),
        ),
    ),
    Stage(
        "consensus", "cluster labels and vote per trajectory", "consensus.jsonl",
        "consensus", "consensus", stage_consensus, inputs=("manifest", "tracks"),
        overrides=(("consensus.tau_sem", {"type": float}),),
    ),
    Stage(
        "keyframe", "select keyframes and attach descriptions", "descriptions.jsonl",
        "descriptions", "descriptions", stage_keyframe, inputs=("manifest", "consensus"),
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
        "model.json", "model", "model", stage_train, inputs=("manifest", "consensus"),
        optional=("descriptions", "geometry", "loss_curve"),
        overrides=(("train.long_only", {"action": "store_true", "default": None}),),
    ),
    Stage(
        "eval", "compute metrics and write the report", "report.json", "report", "report",
        stage_eval, inputs=("manifest", "consensus"),
        optional=("ground_truth", "model", "descriptions"),
    ),
)


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(cfg: dict, out_dir: Path, seed: int, force: bool = False) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    statuses: dict[str, str] = {}
    paths = {key: out_dir / name for key, name in RUN_FILES.items()}

    for stage in STAGES:
        if not force and paths[stage.marker].exists():
            statuses[stage.name] = "skipped"
            logger.info("stage %s: output exists, skipping", stage.name)
            continue
        # every later stage reads this stage's output, directly or not: re-run them all
        force = True
        logger.info("stage %s: running", stage.name)
        try:
            stage.run(cfg, paths, seed)
        except Exception as exc:
            statuses[stage.name] = "failed"
            _write_run_manifest(out_dir, cfg, seed, statuses, started)
            raise StageError(f"stage {stage.name!r} failed: {exc}") from exc
        statuses[stage.name] = "done"

    return _write_run_manifest(out_dir, cfg, seed, statuses, started)


def _write_run_manifest(out_dir: Path, cfg: dict, seed: int, statuses: dict, started: float) -> dict:
    manifest = {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "stages": statuses,
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
    mapping = None
    if gt is not None and param == "tau_sem" and any(ds.detections):
        # masks, not labels, decide the matching, so one serves every value;
        # like eval, no accuracy columns for a dataset without detections
        mapping = match_detections_to_objects(iou_tables(ds, gt), gt)

    if param == "tau_sem":
        # every value, in list order, before clustering: min() over a list holding NaN depends on the order
        for value in values:
            check_tau_sem(value)
        # one agglomeration to the lowest value; every higher value's clustering is a prefix of its merges
        agglomeration = cluster_synonyms(observed_labels(ds), ds.embeddings, min(values))
    elif param == "sigma":
        # consensus and the member areas do not depend on sigma: one serves every value
        records = run_consensus(ds, trajectories, tau_sem=float(cfg["consensus"]["tau_sem"])).records
        track_areas = [member_areas(ds, rec) for rec in records]
    else:
        raise ValueError(f"unknown sweep parameter {param!r}")

    rows = []
    for value in values:
        if param == "tau_sem":
            clustering = agglomeration.at(value)
            propagate(ds, vote_tracks(ds, trajectories, clustering))
            row = {"value": value, "cluster_count": len(clustering.canonical)}
            if mapping is not None:
                row.update(consensus_accuracy(ds, gt, clustering, mapping))
        else:
            keyframes = [select_keyframe(areas, "weighting", value) for areas in track_areas]
            row = {
                "value": value,
                "mean_keyframe": float(np.mean(keyframes)) if keyframes else float("nan"),
                "n_tracks": len(keyframes),
            }
        rows.append(row)

    fields = sorted({k for row in rows for k in row}, key=lambda k: (k != "value", k))
    write_csv(fields, ([row.get(k, "") for k in fields] for row in rows), out_path)
    return rows


# ---------------------------------------------------------------------------
# argument parsing


def _flag(key: str) -> str:
    """--flag for a RUN_FILES key or a "section.key" config override."""
    return "--" + key.rpartition(".")[2].replace("_", "-")


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
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    cfg["seed"] = seed
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
        run_pipeline(cfg, out, seed, force=args.force)
    elif args.command == "sweep":
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ValueError("--values is empty")
        run_sweep(cfg, paths, args.param, values, out)
    else:
        out = args.stage.run(cfg, paths | {args.stage.output: out}, seed)
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
