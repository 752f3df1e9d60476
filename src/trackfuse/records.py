"""Canonical records and on-disk formats.

A dataset lives in a directory with a JSON manifest:

    {"n_views": int, "h": int, "w": int, "dim": int,
     "detections": "<path>", "embeddings": "<path>",
     "descriptions": "<path optional>", "tracks": "<path optional>"}

Detections are line-delimited JSON ({view, label, conf, mask{h,w,counts},
track?}), embeddings a JSON map label -> [float, ...], descriptions
line-delimited ({track, keyframe, category, referrals: [{text, vec}]}).
Paths are resolved relative to the manifest. Serialization is canonical
(sorted keys, repr floats), so save followed by load is the identity and
re-serialization is byte-stable.
All JSON, JSONL and CSV IO goes through the helpers below: writes are
atomic (temp file, then ``os.replace``) and read errors are SchemaErrors
naming ``path`` or ``path:line``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import SchemaError
from .rle import RleMask, json_int

UNIT_NORM_TOL = 1e-6

# What a record parser raises on a well-formed JSON value of the wrong shape.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OverflowError, AttributeError)


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path: str | Path) -> None:
    _write_text(path, dumps(obj) + "\n")


def write_jsonl(objs: Iterable, path: str | Path) -> None:
    _write_text(path, "".join(dumps(obj) + "\n" for obj in objs))


def write_csv(header: list[str], rows: Iterable, path: str | Path) -> None:
    """A header row, then one row per item; floats are written with repr (full precision)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    _write_text(path, buf.getvalue())


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse(where: str, text: str, parse: Callable):
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
    try:
        return parse(obj)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    except _MALFORMED as exc:
        raise SchemaError(f"{where}: malformed record: {exc!r}") from exc


def read_json(path: str | Path, parse: Callable = lambda obj: obj):
    """Parse one JSON document; every error is a SchemaError naming ``path``."""
    return _parse(str(path), _read_text(path), parse)


def read_jsonl(path: str | Path, parse: Callable) -> list:
    """Parse each non-blank line; every error is a SchemaError naming ``path:line``."""
    return [
        _parse(f"{path}:{lineno}", line, parse)
        for lineno, line in enumerate(_read_text(path).splitlines(), start=1)
        if line.strip()
    ]


def config_hash(obj) -> str:
    """sha256 of the canonical JSON serialization of ``obj``."""
    return hashlib.sha256(dumps(obj).encode("utf-8")).hexdigest()


def as_vector(value, dim: int | None, what: str, unit: bool = False) -> np.ndarray:
    """A finite float vector, of shape (dim,) when ``dim`` is given, and of unit norm
    (``check_unit_norm``) when ``unit`` is set."""
    vec = np.asarray(value, dtype=float)
    if dim is not None and vec.shape != (dim,):
        raise SchemaError(f"{what} has shape {vec.shape}, expected ({dim},)")
    if not np.all(np.isfinite(vec)):
        raise SchemaError(f"{what} is not finite")
    return check_unit_norm(vec, what) if unit else vec


def check_unit_norm(vec: np.ndarray, what: str) -> np.ndarray:
    """``vec`` if its Euclidean norm is within ``UNIT_NORM_TOL`` of 1."""
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # also rejects NaN
        raise SchemaError(f"{what} must be unit-norm, got |v| = {norm}")
    return vec


def text_embedding(text: str, dim: int) -> np.ndarray:
    """Deterministic unit vector for a piece of text.

    Seeded from sha256(text), so identical text always maps to the same
    direction and distinct texts are near-orthogonal at moderate dim.
    """
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    vec = np.random.default_rng(seed).standard_normal(dim)
    return vec / np.linalg.norm(vec)


@dataclass
class Detection:
    """One per-view observation: mask, raw label, confidence, optional track."""

    view: int
    mask: RleMask
    raw_label: str
    confidence: float
    track_id: int | None = None
    resolved_label: str | None = None

    def __post_init__(self) -> None:
        if self.view < 0:
            raise SchemaError(f"view index must be nonnegative, got {self.view}")
        if not self.raw_label:
            raise SchemaError("raw_label must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise SchemaError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.track_id is not None and self.track_id < 0:
            raise SchemaError(f"track_id must be nonnegative, got {self.track_id}")

    def to_json(self) -> dict:
        obj = {
            "view": self.view,
            "label": self.raw_label,
            "conf": self.confidence,
            "mask": self.mask.to_json(),
        }
        if self.track_id is not None:
            obj["track"] = self.track_id
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Detection":
        return cls(
            view=json_int(obj["view"], "view"),
            mask=RleMask.from_json(obj["mask"]),
            raw_label=str(obj["label"]),
            confidence=float(obj["conf"]),
            track_id=json_int(obj["track"], "track") if "track" in obj else None,
        )


@dataclass(frozen=True)
class Trajectory:
    """Detections of one physical object: (view, detection index) members."""

    track_id: int
    members: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise SchemaError(f"trajectory {self.track_id} has no members")
        views = [v for v, _ in self.members]
        if any(b <= a for a, b in zip(views, views[1:])):
            raise SchemaError(
                f"trajectory {self.track_id} member views must be strictly increasing"
            )


@dataclass(frozen=True)
class LabelEmbedding:
    label: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        check_unit_norm(self.vector, f"embedding for {self.label!r}")


@dataclass
class DescriptionSet:
    """Per-track category plus graded referring texts with their embeddings."""

    track_id: int
    category: str
    referrals: list[tuple[str, np.ndarray]] = field(default_factory=list)
    keyframe: int | None = None

    def __post_init__(self) -> None:
        if not self.category:
            raise SchemaError(f"description set for track {self.track_id} lacks a category")

    def to_json(self) -> dict:
        obj = {
            "track": self.track_id,
            "category": self.category,
            "referrals": [{"text": t, "vec": v.tolist()} for t, v in self.referrals],
        }
        if self.keyframe is not None:
            obj["keyframe"] = self.keyframe
        return obj

    @classmethod
    def from_json(cls, obj: dict, dim: int | None = None) -> "DescriptionSet":
        return cls(
            track_id=json_int(obj["track"], "track"),
            category=str(obj["category"]),
            referrals=[
                (str(r["text"]), as_vector(r["vec"], dim, "referral vector", unit=True))
                for r in obj["referrals"]
            ],
            keyframe=json_int(obj["keyframe"], "keyframe") if "keyframe" in obj else None,
        )


@dataclass
class SceneDataset:
    """All per-view detections of one scene plus the label-embedding table."""

    n_views: int
    height: int
    width: int
    dim: int
    detections: list[list[Detection]]
    embeddings: dict[str, LabelEmbedding]
    descriptions: list[DescriptionSet] | None = None

    def __post_init__(self) -> None:
        if len(self.detections) != self.n_views:
            raise SchemaError(
                f"expected {self.n_views} per-view detection lists, got {len(self.detections)}"
            )
        for per_view in self.detections:
            for det in per_view:
                _check_detection(det, self.n_views, self.height, self.width)
        for emb in self.embeddings.values():
            if emb.vector.shape != (self.dim,):
                raise SchemaError(
                    f"embedding for {emb.label!r} has dim {emb.vector.shape}, "
                    f"expected ({self.dim},)"
                )

    def all_detections(self):
        """Yield (view, index, detection) in deterministic order."""
        for view, per_view in enumerate(self.detections):
            for idx, det in enumerate(per_view):
                yield view, idx, det

    def detection(self, view: int, idx: int) -> Detection:
        return self.detections[view][idx]

    def embedding(self, label: str) -> np.ndarray:
        try:
            return self.embeddings[label].vector
        except KeyError:
            raise SchemaError(f"no embedding for label {label!r}") from None


def _check_detection(det: Detection, n_views: int, height: int, width: int) -> Detection:
    if det.view >= n_views:
        raise SchemaError(f"detection view {det.view} >= n_views {n_views}")
    if (det.mask.height, det.mask.width) != (height, width):
        raise SchemaError(
            f"detection mask is {det.mask.height}x{det.mask.width}, "
            f"dataset is {height}x{width}"
        )
    return det


def json_members(value) -> tuple[tuple[int, int], ...]:
    """A record's ``members``: [view, index] pairs of JSON integers."""
    return tuple((json_int(view, "member view"), json_int(idx, "member index")) for view, idx in value)


def member_check(ds: SceneDataset | None) -> Callable:
    """A parse step for tracks read against ``ds``, checking each in turn.

    Every (view, index) member must be a detection of the dataset, and no
    detection may belong to two tracks. Anything with ``track_id`` and
    ``members`` (trajectories, consensus records) qualifies. Without a
    dataset the step passes tracks through unchecked.
    """
    if ds is None:
        return lambda track: track
    owner: dict[tuple[int, int], int] = {}

    def check(track):
        for view, idx in track.members:
            if not (0 <= view < ds.n_views and 0 <= idx < len(ds.detections[view])):
                raise SchemaError(
                    f"track {track.track_id}: member ({view}, {idx}) "
                    "is not a detection of the dataset"
                )
            if (view, idx) in owner:
                raise SchemaError(
                    f"track {track.track_id}: detection ({view}, {idx}) "
                    f"already belongs to track {owner[(view, idx)]}"
                )
            owner[(view, idx)] = track.track_id
        return track

    return check


def save_dataset(ds: SceneDataset, out_dir: str | Path) -> Path:
    """Write detections + embeddings (+ descriptions), then the manifest. Returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl((det.to_json() for _, _, det in ds.all_detections()), out / "detections.jsonl")
    write_json(
        {label: emb.vector.tolist() for label, emb in sorted(ds.embeddings.items())},
        out / "embeddings.json",
    )
    manifest = {
        "n_views": ds.n_views,
        "h": ds.height,
        "w": ds.width,
        "dim": ds.dim,
        "detections": "detections.jsonl",
        "embeddings": "embeddings.json",
    }
    if ds.descriptions is not None:
        save_descriptions(ds.descriptions, out / "descriptions.jsonl")
        manifest["descriptions"] = "descriptions.jsonl"
    manifest_path = out / "manifest.json"
    write_json(manifest, manifest_path)
    return manifest_path


def load_descriptions(path: str | Path, dim: int | None = None) -> list[DescriptionSet]:
    return read_jsonl(path, lambda obj: DescriptionSet.from_json(obj, dim=dim))


def save_descriptions(sets: list[DescriptionSet], path: str | Path) -> None:
    write_jsonl((d.to_json() for d in sets), path)


def load_dataset(path: str | Path) -> SceneDataset:
    """Load from a manifest file (or a directory containing manifest.json)."""
    path = Path(path)
    manifest_path = path / "manifest.json" if path.is_dir() else path

    def header(obj: dict) -> tuple[dict, int, int, int, int]:
        for key in ("n_views", "h", "w", "dim", "detections", "embeddings"):
            if key not in obj:
                raise SchemaError(f"manifest missing key {key!r}")
        return obj, *(json_int(obj[key], key) for key in ("n_views", "h", "w", "dim"))

    manifest, n_views, height, width, dim = read_json(manifest_path, header)
    base = manifest_path.parent

    # each detection is checked as its line is parsed, so an error names the line
    detections: list[list[Detection]] = [[] for _ in range(n_views)]
    for det in read_jsonl(
        base / manifest["detections"],
        lambda obj: _check_detection(Detection.from_json(obj), n_views, height, width),
    ):
        detections[det.view].append(det)

    def embeddings(obj: dict) -> dict[str, LabelEmbedding]:
        return {
            label: LabelEmbedding(label, as_vector(obj[label], dim, f"embedding {label!r}"))
            for label in sorted(obj)
        }

    descriptions = None
    if "descriptions" in manifest:
        descriptions = load_descriptions(base / manifest["descriptions"], dim=dim)

    return SceneDataset(
        n_views=n_views,
        height=height,
        width=width,
        dim=dim,
        detections=detections,
        embeddings=read_json(base / manifest["embeddings"], embeddings),
        descriptions=descriptions,
    )
