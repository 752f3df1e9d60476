"""Seeded synthetic multi-view scenes with ground truth and noise models.

Objects are axis-aligned ellipses/rectangles gliding linearly across the
views. Each visible object yields one detection per view, labeled with its
group's canonical word at confidence 1 and track_id = object id. The
corruption pass then reproduces the two per-view failure modes the
consensus stage exists to fix: label drift (synonym swaps and outright
wrong labels) and unreliable masks (dilation/erosion jitter, dropout).

Vocabulary embeddings are constructed, not learned: each synonym group
sits on its own coordinate axis with a small tangential perturbation per
word, which guarantees within-group cosine >= 0.9 and cross-group
cosine <= 0.5 so clustering thresholds have a crisp ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .records import (
    Detection, LabelEmbedding, SceneDataset, dataset_key, parse_json, read_kept, set_frozen, write_json,
)
from .rle import PackedMasks, RleMask, json_bool, json_floats, json_int, json_str, pack_views, rle_decode, rle_encode

_PERTURB = 0.2  # in-group tangential jitter; cos >= (1 - _PERTURB^2) / (1 + _PERTURB^2)


@dataclass(frozen=True)
class SynonymGroup:
    canonical: str
    synonyms: tuple[str, ...]

    @property
    def words(self) -> tuple[str, ...]:
        return (self.canonical,) + self.synonyms


DEFAULT_VOCABULARY = (
    SynonymGroup("cup", ("coffee cup", "small cup")),
    SynonymGroup("bowl", ("soup bowl", "ramen bowl")),
    SynonymGroup("plate", ("dinner plate", "white plate")),
    SynonymGroup("pot", ("cooking pot", "metal pot")),
    SynonymGroup("book", ("thick book", "heavy book")),
    SynonymGroup("mug", ("beer mug", "tall mug")),
)


@dataclass(frozen=True)
class NoiseSpec:
    synonym_rate: float = 0.0
    wrong_label_rate: float = 0.0
    dropout_rate: float = 0.0
    mask_jitter: int = 0
    strip_track_ids: bool = False

    def __post_init__(self) -> None:
        for name in ("synonym_rate", "wrong_label_rate", "dropout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.mask_jitter < 0:
            raise ValueError(f"mask_jitter must be >= 0, got {self.mask_jitter!r}")


@dataclass(frozen=True)
class SynthConfig:
    n_views: int = 8
    height: int = 64
    width: int = 64
    n_objects: int = 3
    vocabulary: tuple[SynonymGroup, ...] = DEFAULT_VOCABULARY
    dim: int = 32
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_views", "n_objects"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.dim < len(self.vocabulary):
            raise ValueError(
                f"dim must be at least the {len(self.vocabulary)} synonym groups of the vocabulary, "
                f"got {self.dim!r}"
            )

    @classmethod
    def from_json(cls, obj: dict) -> "SynthConfig":
        kwargs = dict(obj)
        if "vocabulary" in kwargs:
            kwargs["vocabulary"] = tuple(
                SynonymGroup(g["canonical"], tuple(g["synonyms"])) for g in kwargs["vocabulary"]
            )
        if "noise" in kwargs:
            kwargs["noise"] = NoiseSpec(**kwargs["noise"])
        return cls(**kwargs)


@dataclass(frozen=True)
class GtObject:
    object_id: int
    identity: str
    masks: tuple[RleMask, ...]
    visible: tuple[bool, ...]
    centers: tuple[tuple[float, float], ...]
    radii: tuple[float, float]
    shape: str

    def __post_init__(self) -> None:
        set_frozen(self, masks=tuple(self.masks), visible=tuple(self.visible), centers=tuple(self.centers))


@dataclass(frozen=True)
class GroundTruth:
    objects: tuple[GtObject, ...]
    # load_ground_truth's read_kept key; None for ground truth built otherwise
    key: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        set_frozen(self, objects=tuple(self.objects))

    @cached_property
    def packed(self) -> PackedMasks:
        """Every (object, view) mask, decoded once on first use (``pack_views``), each of the first
        one's size: view v's rows are the objects' masks in view v, in object order."""
        n_views = len(self.objects[0].masks)
        return pack_views([[o.masks[v] for o in self.objects] for v in range(n_views)], self.objects[0].masks[0])

    def to_json(self) -> dict:
        return {
            "objects": [
                {
                    "id": o.object_id,
                    "identity": o.identity,
                    "masks": [m.to_json() for m in o.masks],
                    "visible": list(o.visible),
                    "centers": [[x, y] for x, y in o.centers],
                    "radii": list(o.radii),
                    "shape": o.shape,
                }
                for o in self.objects
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroundTruth":
        objects = []
        for o in obj["objects"]:
            object_id = json_int(o["id"], "object id")
            for view, point in enumerate(o["centers"]):
                if len(point) != 2:
                    raise SchemaError(f"object {object_id}: view {view} center must be 2 numbers, got {point!r}")
            if len(o["radii"]) != 2:
                raise SchemaError(f"object {object_id}: radii must be 2 numbers, got {o['radii']!r}")
            objects.append(
                GtObject(
                    object_id=object_id,
                    identity=json_str(o["identity"], "object identity"),
                    masks=[RleMask.from_json(m) for m in o["masks"]],
                    visible=[json_bool(v, "object visible") for v in o["visible"]],
                    centers=_json_points(o["centers"], "object center"),
                    radii=tuple(json_floats(o["radii"], "object radius")),
                    shape=json_str(o["shape"], "object shape"),
                )
            )
        return cls(objects)


def _json_points(value, what: str) -> list[tuple[float, float]]:
    """The [x, y] pairs of ``value`` as tuples, every coordinate a finite JSON number (``json_floats``)."""
    xy = json_floats([v for x, y in value for v in (x, y)], what)
    return list(zip(xy[::2], xy[1::2]))


def save_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    write_json(gt.to_json(), path)


def load_ground_truth(path: str | Path, ds: SceneDataset | None = None) -> GroundTruth:
    """Read a ground-truth file; every center and the radii must be pairs. Against ``ds``,
    every object needs one mask of the dataset's size, one visible flag and one center per
    view, and object ids must be unique. Kept (``read_kept``), with its key as the ground
    truth's ``key``."""

    def parse(obj: dict) -> GroundTruth:
        gt = GroundTruth.from_json(obj)
        if ds is None:
            return gt
        seen: set[int] = set()
        for o in gt.objects:
            if o.object_id in seen:
                raise SchemaError(f"object id {o.object_id} appears twice")
            seen.add(o.object_id)
            for what, entries in (("masks", o.masks), ("visible flags", o.visible), ("centers", o.centers)):
                if len(entries) != ds.n_views:
                    raise SchemaError(
                        f"object {o.object_id}: {len(entries)} {what}, the dataset has {ds.n_views} views"
                    )
            for view, mask in enumerate(o.masks):
                if (mask.height, mask.width) != (ds.height, ds.width):
                    raise SchemaError(
                        f"object {o.object_id}: view {view} mask is {mask.height}x{mask.width}, "
                        f"the dataset's views are {ds.height}x{ds.width}"
                    )
        return gt

    gt, key = read_kept("ground_truth", path, dataset_key(ds), lambda text: parse_json(path, text, parse))
    if gt.key != key:  # a fresh parse, which no caller has seen yet
        set_frozen(gt, key=key)
    return gt


def build_vocabulary_embeddings(
    vocabulary: tuple[SynonymGroup, ...], dim: int, seed: int
) -> dict[str, LabelEmbedding]:
    """One axis per group, small orthogonal jitter per word, renormalized."""
    rng = np.random.default_rng([seed, 7])
    out: dict[str, LabelEmbedding] = {}
    for g, group in enumerate(vocabulary):
        base = np.zeros(dim)
        base[g] = 1.0
        for word in group.words:
            z = rng.standard_normal(dim)
            z[g] = 0.0
            norm = np.linalg.norm(z)
            if norm > 0:
                z /= norm
            vec = base + _PERTURB * z
            vec /= np.linalg.norm(vec)
            out[word] = LabelEmbedding(word, vec)
    return out


def _render(shape: str, cx: np.ndarray, cy: np.ndarray, rx: float, ry: float, ys, xs) -> np.ndarray:
    """(V, h, w) masks of one path; cx, cy are (V, 1, 1), ys, xs an open (h, 1), (1, w) grid."""
    if shape == "ellipse":
        return ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
    return (np.abs(xs - cx) <= rx) & (np.abs(ys - cy) <= ry)


def _pack(grids: np.ndarray, words: int) -> np.ndarray:
    """(V, h, w) bool masks as (V, words) uint64 bitsets, each view zero-padded to whole words."""
    bits = np.zeros((len(grids), words * 8), dtype=np.uint8)
    packed = np.packbits(grids.reshape(len(grids), -1), axis=1)
    bits[:, : packed.shape[1]] = packed
    return bits.view(np.uint64)


def side_margin(height: int) -> float:
    """The length each view side must exceed for ``generate_scene`` to draw a path:
    radii go up to height / 6, and a center stays a radius plus 1 from each border."""
    return 2.0 * (height / 6.0 + 1.0)


def generate_scene(cfg: SynthConfig) -> tuple[SceneDataset, GroundTruth]:
    """Deterministic scene; raises if any object never renders visible.

    Objects are placed one at a time. A candidate path whose IoU with any
    placed object exceeds 0.3 in any view is resampled, with at most 50
    tries per object; if every try overlaps that much, the least-overlapping
    one is kept (the first, on a tie). Areas and intersections are exact
    popcounts of the bit-packed masks, so each IoU divides the same two
    integers as a pixel count would.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    h, w = cfg.height, cfg.width
    embeddings = build_vocabulary_embeddings(cfg.vocabulary, cfg.dim, cfg.seed)

    n_groups = len(cfg.vocabulary)
    if cfg.n_objects <= n_groups:
        group_ids = rng.permutation(n_groups)[: cfg.n_objects]
    else:
        group_ids = rng.integers(0, n_groups, size=cfg.n_objects)

    ys, xs = np.ogrid[0:h, 0:w]
    t = (np.arange(cfg.n_views) / max(cfg.n_views - 1, 1))[:, None, None]
    words = -(-h * w // 64)
    placed = np.zeros((cfg.n_objects, cfg.n_views, words), dtype=np.uint64)  # per-view bitsets
    placed_areas = np.zeros((cfg.n_objects, cfg.n_views), dtype=np.int64)
    objects: list[GtObject] = []
    for oid in range(cfg.n_objects):
        group = cfg.vocabulary[int(group_ids[oid])]
        shape = "ellipse" if oid % 2 == 0 else "rectangle"

        # Resample paths that overlap existing objects too much: distinct
        # objects must stay distinguishable (occlusion is modeled as
        # detection dropout, not as coinciding masks).
        best = None
        for _ in range(50):
            rx = float(rng.uniform(h / 10.0, h / 6.0))
            ry = float(rng.uniform(h / 10.0, h / 6.0))
            margin_x, margin_y = rx + 1.0, ry + 1.0
            x0 = float(rng.uniform(margin_x, w - margin_x))
            y0 = float(rng.uniform(margin_y, h - margin_y))
            x1 = float(rng.uniform(margin_x, w - margin_x))
            y1 = float(rng.uniform(margin_y, h - margin_y))

            cx = x0 + (x1 - x0) * t
            cy = y0 + (y1 - y0) * t
            grids = _render(shape, cx, cy, rx, ry, ys, xs)
            bits = _pack(grids, words)
            areas = np.bitwise_count(bits).sum(-1, dtype=np.int64)
            worst_overlap = 0.0
            if oid:
                inter = np.bitwise_count(placed[:oid] & bits).sum(-1, dtype=np.int64)  # (oid, V)
                # per-view IoU; a view where both are empty has inter = union = 0 and counts 0
                iou = inter / np.maximum(areas + placed_areas[:oid] - inter, 1)
                worst_overlap = float(iou.max())
            if best is None or worst_overlap < best[0]:
                best = (worst_overlap, grids, bits, areas, cx, cy, (rx, ry))
            if worst_overlap <= 0.3:
                break

        _, grids, bits, areas, cx, cy, radii = best
        visible = (areas > 0).tolist()
        if not any(visible):
            raise ValueError(f"object {oid} is never visible; rejecting config")
        placed[oid], placed_areas[oid] = bits, areas
        objects.append(
            GtObject(
                object_id=oid,
                identity=group.canonical,
                masks=[rle_encode(g) for g in grids],
                visible=visible,
                centers=list(zip(cx.ravel().tolist(), cy.ravel().tolist())),
                radii=radii,
                shape=shape,
            )
        )

    detections: list[list[Detection]] = [[] for _ in range(cfg.n_views)]
    for v in range(cfg.n_views):
        for obj in objects:
            if not obj.visible[v]:
                continue
            detections[v].append(
                Detection(
                    view=v,
                    mask=obj.masks[v],
                    raw_label=obj.identity,
                    confidence=1.0,
                    track_id=obj.object_id,
                )
            )

    ds = SceneDataset(
        n_views=cfg.n_views,
        height=h,
        width=w,
        dim=cfg.dim,
        detections=detections,
        embeddings=embeddings,
    )
    return ds, GroundTruth(objects)


def _shift(grid: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(grid)
    h, w = grid.shape
    ys0, ys1 = max(dy, 0), h + min(dy, 0)
    xs0, xs1 = max(dx, 0), w + min(dx, 0)
    out[ys0:ys1, xs0:xs1] = grid[ys0 - dy : ys1 - dy, xs0 - dx : xs1 - dx]
    return out


def _dilate(grid: np.ndarray, steps: int) -> np.ndarray:
    for _ in range(steps):
        acc = grid.copy()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy or dx:
                    acc |= _shift(grid, dy, dx)
        grid = acc
    return grid


def _erode(grid: np.ndarray, steps: int) -> np.ndarray:
    return ~_dilate(~grid, steps)


def corrupt(ds: SceneDataset, gt: GroundTruth, cfg: SynthConfig) -> SceneDataset:
    """Apply per-detection label/mask/dropout noise; view indices unchanged."""
    rng = np.random.default_rng([cfg.seed, 1])
    noise = cfg.noise
    group_of = {
        word: gi for gi, group in enumerate(cfg.vocabulary) for word in group.words
    }

    out: list[list[Detection]] = [[] for _ in range(ds.n_views)]
    for view, _, det in ds.all_detections():
        u_drop, u_wrong, u_syn = rng.uniform(size=3)
        jitter_amount = int(rng.integers(0, noise.mask_jitter + 1)) if noise.mask_jitter else 0
        jitter_grow = bool(rng.integers(0, 2)) if noise.mask_jitter else False
        wrong_pick = rng.integers(0, 1 << 30)
        syn_pick = rng.integers(0, 1 << 30)
        if u_drop < noise.dropout_rate:
            continue

        label = det.raw_label
        gi = group_of.get(label)
        if gi is not None and u_wrong < noise.wrong_label_rate:
            others = [g for g in range(len(cfg.vocabulary)) if g != gi]
            other = cfg.vocabulary[others[int(wrong_pick) % len(others)]]
            label = other.words[int(syn_pick) % len(other.words)]
        elif gi is not None and u_syn < noise.synonym_rate:
            group = cfg.vocabulary[gi]
            if group.synonyms:
                label = group.synonyms[int(syn_pick) % len(group.synonyms)]

        mask = det.mask
        if jitter_amount > 0:
            grid = rle_decode(mask)
            grid = _dilate(grid, jitter_amount) if jitter_grow else _erode(grid, jitter_amount)
            mask = rle_encode(grid)

        out[view].append(
            Detection(
                view=view,
                mask=mask,
                raw_label=label,
                confidence=det.confidence,
                track_id=None if noise.strip_track_ids else det.track_id,
            )
        )

    return replace(ds, detections=out, descriptions=None)
