"""Canonical records and on-disk formats.

A dataset lives in a directory with a JSON manifest:

    {"n_views": int, "h": int, "w": int, "dim": int,
     "detections": "<path>", "embeddings": "<path>",
     "descriptions": "<path optional>", "tracks": "<path optional>"}

Detections are line-delimited JSON ({view, label, conf, mask{h,w,counts},
track?}), embeddings a JSON map label -> [float, ...], descriptions
line-delimited ({track, keyframe, category, referrals: [{text, vec}]}).
A ``SceneDataset`` is built from each view's detections as (mask, raw label,
confidence, track) tuples, track -1 for none, and keeps them only as
read-only columns, one row each, view by view.
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
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import SchemaError
from .rle import RleMask, json_float, json_int, json_str, mask_area, pack_views

UNIT_NORM_TOL = 1e-6

# What a record parser raises on a well-formed JSON value of the wrong shape.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OverflowError, AttributeError)


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, each newline as it is on every platform: ``text.encode("utf-8")``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path: str | Path) -> None:
    _write_text(path, dumps(obj) + "\n")


def write_jsonl(objs: Iterable, path: str | Path) -> None:
    _write_text(path, _jsonl(objs))


def _jsonl(objs: Iterable) -> str:
    return "".join(dumps(obj) + "\n" for obj in objs)


def write_csv(header: list[str], rows: Iterable, path: str | Path) -> None:
    """A header row, then one row per item; floats are written with repr (full precision)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    _write_text(path, buf.getvalue())


def _read_text(path: str | Path) -> str:
    return _decode(path, Path(path).read_bytes())


def _decode(path: str | Path, data: bytes) -> str:
    """The text of the file at ``path`` read as ``data``, with newlines as text mode reads them."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def parse_json(where: str | Path, text: str, parse: Callable):
    """``parse`` of one JSON document's ``text``; every error is a SchemaError naming ``where``."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
    return parse_value(where, obj, parse)


def parse_value(where: str | Path, obj, parse: Callable):
    """``parse`` of the JSON value ``obj``; every error is a SchemaError naming ``where``."""
    try:
        return parse(obj)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    except _MALFORMED as exc:
        raise SchemaError(f"{where}: malformed record: {exc!r}") from exc


def read_json(path: str | Path, parse: Callable = lambda obj: obj):
    """Parse one JSON document; every error is a SchemaError naming ``path``."""
    return parse_json(str(path), _read_text(path), parse)


def read_jsonl(path: str | Path, parse: Callable) -> list:
    """Parse each non-blank line; every error is a SchemaError naming ``path:line``."""
    return parse_lines(path, _read_text(path), parse)


def parse_lines(path: str | Path, text: str, parse: Callable) -> list:
    """``parse`` of each non-blank line of ``text``; every error is a SchemaError naming ``path:line``."""
    return [
        parse_json(f"{path}:{lineno}", line, parse)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


# What the process keeps: kind -> (key, value). See ``read_kept``.
_kept: dict[str, tuple] = {}


def forget_kept() -> None:
    """Forget every kept value, so that the next read or build of each kind starts afresh."""
    _kept.clear()


def kept(kind: str, key, build: Callable):
    """The value kept for ``kind``, if it was kept under ``key``; otherwise ``build()``'s value,
    kept in its place first. A ``key`` of None keeps nothing.

    Besides the reads (``read_kept``) and their writes (``write_kept``), the process keeps this way
    the detection IoU table of one (dataset, ground truth) pair, the member table of one (dataset,
    tracks) pair and the complete linkage of the last label set clustered. A kept
    dataset or ground truth carries its bit-packed masks on the object (``SceneDataset.packed``,
    ``GroundTruth.packed``), not as a kind of its own, so a process decodes each mask once.
    """
    entry = _kept.get(kind)
    if key is None or entry is None or entry[0] != key:
        entry = (key, build())
        if key is not None:
            _kept[kind] = entry
    return entry[1]


def read_kept(kind: str, path: str | Path, context, parse: Callable[[str], object]) -> tuple[object, tuple | None]:
    """The value ``parse`` gives for the text of the file at ``path``, and the key it is kept under.

    The process keeps one value per kind: the last read or write of the dataset, tracks,
    consensus, descriptions, field and ground truth. A value is keyed by the sha256 of its file's
    bytes and by ``context``, what else the parse checks against, such as the dataset's ``key``;
    never by path or mtime. A read of the same bytes in the same context decodes
    no JSON and returns the kept value itself, which every value read is built to share: frozen
    records, tuples, read-only maps and arrays. Any other byte parses again, with every check in
    its order and its message. A ``context`` of None keeps nothing. A stage that wrote a file with
    ``write_kept`` has kept it already, so a later stage of the same process parses none of it.
    """
    data = Path(path).read_bytes()
    key = None if context is None else (hashlib.sha256(data).digest(), context)
    return kept(kind, key, lambda: parse(_decode(path, data))), key


def write_kept(kind: str, path: str | Path, text: str, context, build: Callable[[], object]) -> None:
    """Write ``text`` to ``path``, then keep ``build()``'s value as ``read_kept`` would keep the parse
    of those bytes in ``context``: under their sha256 and ``context``, of None keeping nothing.

    ``build`` gives the reader's value and runs the reader's checks on the JSON values the text
    was dumped from, decoding nothing (``parse_value``). Canonical JSON reads back as the values it
    was dumped from, so that value is the parse of the file. A build the checks refuse keeps
    nothing, and the file is parsed, and refused, when it is read.
    """
    _write_text(path, text)
    if context is not None:
        try:
            value = build()
        except SchemaError:
            return
        _kept[kind] = ((hashlib.sha256(text.encode("utf-8")).digest(), context), value)


def write_json_kept(kind: str, obj, path: str | Path, context, parse: Callable) -> None:
    """``write_json`` of ``obj``, keeping what ``read_kept`` of the file with ``parse_json`` and
    ``parse`` would keep in ``context`` (``write_kept``)."""
    write_kept(kind, path, dumps(obj) + "\n", context, lambda: parse_value(str(path), obj, parse))


def read_jsonl_kept(kind: str, path: str | Path, context, record: Callable[[], Callable], finish: Callable = tuple):
    """``finish`` of the records of the JSONL file at ``path``, kept (``read_kept``) in ``context``:
    ``record()`` is a parse step for one file's lines, which may check a line against the ones
    before it."""
    return read_kept(kind, path, context, lambda text: finish(parse_lines(path, text, record())))[0]


def write_jsonl_kept(
    kind: str, objs: Iterable, path: str | Path, context, record: Callable[[], Callable], finish: Callable = tuple
) -> None:
    """``write_jsonl`` of ``objs``, keeping what ``read_jsonl_kept`` with the same arguments would
    read back (``write_kept``). Canonical JSON escapes every control and non-ASCII character, so the
    text holds one line per value and no other line break: value k is parsed as line k."""
    objs = list(objs)

    def build():
        step = record()
        return finish([parse_value(f"{path}:{lineno}", obj, step) for lineno, obj in enumerate(objs, start=1)])

    write_kept(kind, path, _jsonl(objs), context, build)


def set_frozen(record, **values) -> None:
    """Set fields of the frozen ``record``: its ``__post_init__`` storing the read-only form of what
    it was given, or a reader its key, before any caller sees it."""
    for name, value in values.items():
        object.__setattr__(record, name, value)


def file_digest(path: str | Path) -> str:
    """sha256 of the bytes of the file at ``path``, in hex."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_hash(obj) -> str:
    """sha256 of the canonical JSON serialization of ``obj``."""
    return hashlib.sha256(dumps(obj).encode("utf-8")).hexdigest()


def as_vector(value, dim: int, what: str, unit: bool = False) -> np.ndarray:
    """A finite float vector of shape (dim,), and of unit norm (``check_unit_norm``) when ``unit``
    is set."""
    vec = np.asarray(value, dtype=float)
    if vec.shape != (dim,):
        raise SchemaError(f"{what} has shape {vec.shape}, expected ({dim},)")
    if not np.isfinite(vec).all():
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


@dataclass(frozen=True)
class Trajectory:
    """Detections of one physical object: (view, detection index) members."""

    track_id: int
    members: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise SchemaError(f"trajectory {self.track_id} has no members")
        check_member_views(self.track_id, self.members)


def check_member_views(track_id: int, members: tuple[tuple[int, int], ...]) -> None:
    """A track holds at most one detection per view, in view order: its member views strictly increase."""
    views = [v for v, _ in members]
    if any(b <= a for a, b in zip(views, views[1:])):
        raise SchemaError(f"track {track_id}: member views must be strictly increasing, got {views}")


@dataclass(frozen=True)
class LabelEmbedding:
    label: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        check_unit_norm(self.vector, f"embedding for {self.label!r}")


@dataclass(frozen=True)
class DescriptionSet:
    """Per-track category plus graded referring texts with their embeddings."""

    track_id: int
    category: str
    referrals: tuple[tuple[str, np.ndarray], ...] = ()
    keyframe: int | None = None

    def __post_init__(self) -> None:
        if not self.category:
            raise SchemaError(f"description set for track {self.track_id} lacks a category")
        set_frozen(self, referrals=tuple(self.referrals))

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
    def from_json(cls, obj: dict, dim: int) -> "DescriptionSet":
        return cls(
            track_id=json_int(obj["track"], "track"),
            category=json_str(obj["category"], "description category"),
            referrals=[
                (json_str(r["text"], "referral text"), as_vector(r["vec"], dim, "referral vector", unit=True))
                for r in obj["referrals"]
            ],
            keyframe=json_int(obj["keyframe"], "keyframe") if "keyframe" in obj else None,
        )


@dataclass(frozen=True, eq=False)
class SceneDataset:
    """One scene's detections, as read-only columns, plus the label-embedding table.

    The constructor takes each view's detections as (mask, raw label, confidence, track) tuples, track
    -1 for none, and keeps only their columns, one row per detection, view by view: member (view, idx)
    of a tracks or consensus file is row ``first[view] + idx`` (``rows``), and row r's raw label is
    ``labels[label[r]]``.
    """

    n_views: int
    height: int
    width: int
    dim: int
    detections: InitVar[Iterable[Iterable[tuple[RleMask, str, float, int]]]]
    embeddings: Mapping[str, LabelEmbedding]
    descriptions: tuple[DescriptionSet, ...] | None = None
    first: np.ndarray = field(init=False, repr=False)  # (V + 1,) each view's first row, then D
    view: np.ndarray = field(init=False, repr=False)  # (D,) each row's view
    labels: tuple[str, ...] = field(init=False, repr=False)  # the distinct raw labels, sorted
    label: np.ndarray = field(init=False, repr=False)  # (D,) each row's index into ``labels``
    confidence: np.ndarray = field(init=False, repr=False)  # (D,)
    track: np.ndarray = field(init=False, repr=False)  # (D,) each row's carried track id, -1 for none
    masks: tuple[RleMask, ...] = field(init=False, repr=False)
    area: np.ndarray = field(init=False, repr=False)  # (D,) each mask's area from its runs (``mask_area``)
    # the sha256 digests of the files load_dataset read it from; None for a dataset built otherwise
    key: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self, detections) -> None:
        per_view = [[_check_detection(*det, self.height, self.width) for det in dets] for dets in detections]
        if len(per_view) != self.n_views:
            raise SchemaError(f"expected {self.n_views} per-view detection lists, got {len(per_view)}")
        for emb in self.embeddings.values():
            if emb.vector.shape != (self.dim,):
                raise SchemaError(
                    f"embedding for {emb.label!r} has dim {emb.vector.shape}, "
                    f"expected ({self.dim},)"
                )
        rows = [det for dets in per_view for det in dets]
        masks, raw, confidence, track = zip(*rows) if rows else ((),) * 4
        labels = sorted(set(raw))
        index = {lab: k for k, lab in enumerate(labels)}
        first = np.cumsum([0, *map(len, per_view)])
        columns = dict(
            first=first, view=np.repeat(np.arange(self.n_views), np.diff(first)),
            label=np.array([index[lab] for lab in raw], dtype=np.intp),
            confidence=np.array(confidence, dtype=float),
            track=np.array(track, dtype=np.int64),
            area=np.array([mask_area(mask) for mask in masks], dtype=np.int64),
        )
        for arr in columns.values():
            arr.flags.writeable = False
        descriptions = None if self.descriptions is None else tuple(self.descriptions)
        set_frozen(self, **columns, labels=tuple(labels), masks=masks,
                   embeddings=MappingProxyType(dict(self.embeddings)), descriptions=descriptions)

    @cached_property
    def packed(self) -> np.ndarray:
        """(D, ceil(h*w / 8)) every row's mask bit-packed, decoded once on first use (``pack_views``).
        A mask of another size than the dataset raises ``mask dimensions differ: <mask> vs <dataset>``."""
        bounds = self.first.tolist()
        return pack_views([self.masks[a:b] for a, b in zip(bounds, bounds[1:])], self)

    def rows(self, track) -> list[int]:
        """The rows of ``track``'s members (anything with ``track_id`` and ``members``), in member order;
        a member that is not a detection raises ``track T: member (v, i) is not a detection of the dataset``."""
        bounds = self.first.tolist()
        for view, idx in track.members:
            if not (0 <= view < self.n_views and 0 <= idx < bounds[view + 1] - bounds[view]):
                raise SchemaError(f"track {track.track_id}: member ({view}, {idx}) is not a detection of the dataset")
        return [bounds[view] + idx for view, idx in track.members]

    def embedding(self, label: str) -> np.ndarray:
        try:
            return self.embeddings[label].vector
        except KeyError:
            raise SchemaError(f"no embedding for label {label!r}") from None


def _check_detection(mask: RleMask, label: str, confidence: float, track: int, height: int, width: int) -> tuple:
    """The (mask, label, confidence, track) tuple of one detection of a ``height`` x ``width`` dataset."""
    if not label:
        raise SchemaError("detection label must be non-empty")
    if not 0.0 <= confidence <= 1.0:
        raise SchemaError(f"confidence must be in [0, 1], got {confidence}")
    if not -1 <= track < 2**63:
        raise SchemaError(f"track_id must be in [0, 2**63), got {track}")
    if (mask.height, mask.width) != (height, width):
        raise SchemaError(f"detection mask is {mask.height}x{mask.width}, dataset is {height}x{width}")
    return mask, label, confidence, track


def _detection_line(obj: dict, n_views: int, height: int, width: int) -> tuple[int, tuple]:
    """The view and checked (mask, label, confidence, track) tuple of one detections line."""
    view = json_int(obj["view"], "view")
    mask = RleMask.from_json(obj["mask"])
    label = json_str(obj["label"], "detection label")
    confidence = json_float(obj["conf"], "detection confidence")
    track = json_int(obj["track"], "track") if "track" in obj else -1
    if view < 0:
        raise SchemaError(f"view index must be nonnegative, got {view}")
    if "track" in obj and track < 0:
        raise SchemaError(f"track_id must be in [0, 2**63), got {track}")
    if view >= n_views:
        raise SchemaError(f"detection view {view} >= n_views {n_views}")
    return view, _check_detection(mask, label, confidence, track, height, width)


def json_members(value) -> tuple[tuple[int, int], ...]:
    """A record's ``members``: [view, index] pairs of JSON integers."""
    return tuple((json_int(view, "member view"), json_int(idx, "member index")) for view, idx in value)


def unique_track_ids() -> Callable:
    """A parse step for the records of one file that refuses a ``track_id`` seen before."""
    ids: set[int] = set()

    def check(record):
        if record.track_id in ids:
            raise SchemaError(f"track id {record.track_id} appears twice")
        ids.add(record.track_id)
        return record

    return check


def member_check(ds: SceneDataset) -> Callable:
    """A parse step for the tracks of one file, read against ``ds``, checking each in turn.

    No track id may appear twice. Every (view, index) member must be a
    detection of the dataset, and no detection may belong to two tracks.
    Anything with ``track_id`` and ``members`` (trajectories, consensus
    records) qualifies.
    """
    unique = unique_track_ids()
    owner: dict[int, int] = {}  # row -> track id

    def check(track):
        unique(track)
        for (view, idx), row in zip(track.members, ds.rows(track)):
            if row in owner:
                raise SchemaError(
                    f"track {track.track_id}: detection ({view}, {idx}) "
                    f"already belongs to track {owner[row]}"
                )
            owner[row] = track.track_id
        return track

    return check


def save_dataset(ds: SceneDataset, out_dir: str | Path) -> Path:
    """Write detections + embeddings (+ descriptions), then the manifest. Returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = zip(ds.view.tolist(), ds.masks, ds.label.tolist(), ds.confidence.tolist(), ds.track.tolist())
    write_jsonl(({"view": view, "label": ds.labels[label], "conf": conf, "mask": mask.to_json()}
                 | ({} if track < 0 else {"track": track}) for view, mask, label, conf, track in rows),
                out / "detections.jsonl")
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
        save_descriptions(ds.descriptions, out / "descriptions.jsonl", ds)
        manifest["descriptions"] = "descriptions.jsonl"
    manifest_path = out / "manifest.json"
    write_json(manifest, manifest_path)
    return manifest_path


def load_descriptions(path: str | Path, dim: int) -> tuple[DescriptionSet, ...]:
    """Read a descriptions file: one set per track, so no track id may appear twice. Kept (``read_kept``)."""
    return read_jsonl_kept("descriptions", path, (dim,), lambda: _description_step(dim), _read_only_referrals)


def _description_step(dim: int) -> Callable:
    """A parse step for the lines of one descriptions file: no track id may appear twice."""
    unique = unique_track_ids()
    return lambda obj: unique(DescriptionSet.from_json(obj, dim=dim))


def _read_only_referrals(sets: list[DescriptionSet]) -> tuple[DescriptionSet, ...]:
    """The description sets of one file, their referral vectors made read-only."""
    for d in sets:
        for _, vec in d.referrals:
            vec.flags.writeable = False
    return tuple(sets)


def save_descriptions(sets: list[DescriptionSet], path: str | Path, ds: SceneDataset) -> None:
    """Write a descriptions file and keep what ``load_descriptions(path, dim=ds.dim)`` reads back
    (``write_kept``); for a dataset built in memory, which has no ``key``, keep nothing."""
    write_jsonl_kept("descriptions", (d.to_json() for d in sets), path, None if ds.key is None else (ds.dim,),
                     lambda: _description_step(ds.dim), _read_only_referrals)


# The dataset files a manifest names, in the order load_dataset parses them.
_DATASET_FILES = ("detections", "descriptions", "embeddings")


def _manifest_header(obj: dict) -> tuple[int, int, int, int, Mapping[str, str]]:
    """A manifest's n_views, h, w, dim and the file paths it names, each checked."""
    for key in ("n_views", "h", "w", "dim", "detections", "embeddings"):
        if key not in obj:
            raise SchemaError(f"manifest missing key {key!r}")
    sizes = [json_int(obj[key], key) for key in ("n_views", "h", "w", "dim")]
    names = {key: obj[key] for key in (*_DATASET_FILES, "tracks") if key in obj}
    for key, name in names.items():
        if not isinstance(name, str) or not name:
            raise SchemaError(f"manifest {key!r} must be a non-empty file path, got {name!r}")
    return *sizes, MappingProxyType(names)


def manifest_file(path: str | Path) -> Path:
    """The manifest file of ``path``: a manifest, or a directory holding manifest.json."""
    path = Path(path)
    return path / "manifest.json" if path.is_dir() else path


def _read_manifest(path: str | Path) -> tuple[Path, tuple, bytes]:
    """The manifest file of ``path`` (``manifest_file``), its checked header (``_manifest_header``)
    and the sha256 of its bytes. Kept (``read_kept``)."""
    manifest_path = manifest_file(path)
    header, (digest, _) = read_kept(
        "manifest", manifest_path, (), lambda text: parse_json(str(manifest_path), text, _manifest_header)
    )
    return manifest_path, header, digest


def manifest_tracks(path: str | Path) -> Path | None:
    """The tracks file the manifest of ``path`` names, resolved against the manifest; None if it names none."""
    manifest_path, (*_, names), _ = _read_manifest(path)
    return manifest_path.parent / names["tracks"] if "tracks" in names else None


def load_dataset(path: str | Path) -> SceneDataset:
    """Load from a manifest file (or a directory containing manifest.json).

    The dataset is kept (``read_kept``) under the sha256 of the bytes of the manifest and of every
    dataset file it names, which is also its ``key``: a load of the same bytes again reads each file
    once, decodes no JSON and returns the kept dataset itself, which is read-only throughout.
    """
    manifest_path, header, manifest_digest = _read_manifest(path)
    names = header[4]
    base = manifest_path.parent
    files = {key: base / names[key] for key in _DATASET_FILES if key in names}

    # each file is read once, here; a read error is raised when that file's turn to parse comes,
    # so that errors come in the order of a file-by-file parse
    blobs: dict[str, bytes | OSError] = {}
    for key, file in files.items():
        try:
            blobs[key] = file.read_bytes()
        except OSError as exc:
            blobs[key] = exc
    digests = (manifest_digest, *(
        hashlib.sha256(blob).digest() if isinstance(blob, bytes) else None for blob in blobs.values()
    ))
    return kept("dataset", digests, lambda: _parse_dataset(header, files, blobs, digests))


def _parse_dataset(header: tuple, files: dict[str, Path], blobs: dict[str, bytes | OSError], key: tuple) -> SceneDataset:
    """The dataset of a checked manifest ``header`` from its files' bytes, under ``key``, its vectors made read-only."""
    n_views, height, width, dim, _ = header

    def text(key: str) -> str:
        if isinstance(blobs[key], OSError):
            raise blobs[key]
        return _decode(files[key], blobs[key])

    # each detection is checked as its line is parsed, so an error names the line
    detections: list[list[tuple]] = [[] for _ in range(n_views)]
    lines = parse_lines(files["detections"], text("detections"),
                        lambda obj: _detection_line(obj, n_views, height, width))
    for view, det in lines:
        detections[view].append(det)

    def embeddings(obj: dict) -> dict[str, LabelEmbedding]:
        return {
            label: LabelEmbedding(label, as_vector(obj[label], dim, f"embedding {label!r}"))
            for label in sorted(obj)
        }

    descriptions = None
    if "descriptions" in files:
        sets = parse_lines(files["descriptions"], text("descriptions"), _description_step(dim))
        descriptions = _read_only_referrals(sets)

    ds = SceneDataset(
        n_views=n_views,
        height=height,
        width=width,
        dim=dim,
        detections=detections,
        embeddings=parse_json(str(files["embeddings"]), text("embeddings"), embeddings),
        descriptions=descriptions,
    )
    for emb in ds.embeddings.values():
        emb.vector.flags.writeable = False
    set_frozen(ds, key=key)
    return ds
