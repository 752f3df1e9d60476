"""Visibility-aware keyframe selection and description attachment.

The visibility score weights a view's mask area by a Gaussian penalty on
how far sqrt(area) strays from the trajectory's median sqrt(area):

    v = area * exp(-(sqrt(area) - sqrt(median_area))^2 / (2 sigma^2))

with sigma in sqrt-area (pixel) units. The keyframe is the member view
maximizing v, earliest view on ties. Descriptions for the keyframe either
come from an external per-(track, view) file or from a deterministic
template synthesizer for synthetic scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord
from .errors import SchemaError
from .records import DescriptionSet, SceneDataset, as_vector, read_jsonl, text_embedding
from .rle import mask_area, rle_decode

STRATEGIES = ("weighting", "maximum", "minimum", "random", "medium")

_PALETTE = ("red", "blue", "green", "yellow", "purple", "orange", "white", "black")


def median_area(areas: list[int]) -> float:
    """Middle of the sorted list; mean of the two middles for even length."""
    if not areas:
        raise ValueError("median of an empty list")
    ordered = sorted(areas)
    n = len(ordered)
    if n % 2 == 1:
        return float(ordered[n // 2])
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0


def visibility_score(area: float, med: float, sigma: float) -> float:
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if area < 0 or med < 0:
        raise ValueError("areas must be nonnegative")
    dev = math.sqrt(area) - math.sqrt(med)
    return area * math.exp(-(dev * dev) / (2.0 * sigma * sigma))


@dataclass
class KeyframeChoice:
    track_id: int
    view: int
    scores: dict[int, float]
    med: float
    sigma: float
    strategy: str


def select_keyframe(
    track_id: int,
    view_areas: list[tuple[int, int]],
    strategy: str = "weighting",
    sigma: float = 100.0,
    seed: int = 0,
) -> KeyframeChoice:
    """Pick a member view to describe the object from.

    ``view_areas`` holds (view, mask area) per trajectory member. All ties
    resolve to the earliest view; ``random`` draws uniformly with the given
    seed.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if not view_areas:
        raise ValueError("trajectory has no members")
    views = [v for v, _ in view_areas]
    areas = [a for _, a in view_areas]
    med = median_area(areas)
    scores = {v: visibility_score(a, med, sigma) for v, a in view_areas}

    if strategy == "weighting":
        chosen = min(view_areas, key=lambda va: (-scores[va[0]], va[0]))[0]
    elif strategy == "maximum":
        chosen = min(view_areas, key=lambda va: (-va[1], va[0]))[0]
    elif strategy == "minimum":
        chosen = min(view_areas, key=lambda va: (va[1], va[0]))[0]
    elif strategy == "medium":
        chosen = min(view_areas, key=lambda va: (abs(va[1] - med), va[0]))[0]
    else:
        rng = np.random.default_rng(seed)
        chosen = views[int(rng.integers(0, len(views)))]

    return KeyframeChoice(
        track_id=track_id, view=chosen, scores=scores, med=med, sigma=sigma, strategy=strategy
    )


class ExternalDescriptions:
    """Captions produced offline, keyed by (track, view).

    File format: one JSON object per line
    {"track": int, "view": int, "texts": [str, ...], "vecs": [[float, ...], ...]}.
    Vectors must be finite, and of length ``dim`` when one is given.
    """

    def __init__(self, entries: dict[tuple[int, int], list[tuple[str, np.ndarray]]]):
        self.entries = entries

    @classmethod
    def load(cls, path: str | Path, dim: int | None = None) -> "ExternalDescriptions":
        def entry(obj: dict):
            texts = [str(t) for t in obj["texts"]]
            vecs = [as_vector(v, dim, "caption vector") for v in obj["vecs"]]
            if len(texts) != len(vecs):
                raise SchemaError(f"{len(texts)} texts but {len(vecs)} vectors")
            return (int(obj["track"]), int(obj["view"])), list(zip(texts, vecs))

        return cls(dict(read_jsonl(path, entry)))

    def referrals(self, track_id: int, view: int) -> list[tuple[str, np.ndarray]]:
        key = (track_id, view)
        if key not in self.entries:
            raise SchemaError(f"external descriptions missing entry for (track {track_id}, view {view})")
        return self.entries[key]


def template_referral(category: str, attribute: str, relation: str | None = None) -> str:
    """Compose a referring expression from its parts."""
    base = f"the {attribute} {category}"
    if relation is None:
        return base
    return f"{base} {relation}"


def _mask_centroid(mask) -> tuple[float, float] | None:
    grid = rle_decode(mask)
    ys, xs = np.nonzero(grid)
    if ys.size == 0:
        return None
    return float(xs.mean()), float(ys.mean())


class TemplateSynthesizer:
    """Deterministic caption generator for synthetic scenes.

    Emits two referrals per track: a short attribute form and a longer
    attribute + spatial-relation form. Attributes cycle a fixed palette by
    track id; relations compare pseudo-mask centroids against the nearest
    other track visible in the keyframe view.
    """

    def __init__(self, ds: SceneDataset, records: list[ConsensusRecord]):
        self.ds = ds
        self.records = sorted(records, key=lambda r: r.track_id)

    def _centroid(self, rec: ConsensusRecord, view: int) -> tuple[float, float] | None:
        for v, idx in rec.members:
            if v == view:
                return _mask_centroid(self.ds.detection(v, idx).mask)
        return None

    def referrals(self, track_id: int, category: str, view: int) -> list[tuple[str, np.ndarray]]:
        attribute = _PALETTE[track_id % len(_PALETTE)]
        rec = next(r for r in self.records if r.track_id == track_id)
        own = self._centroid(rec, view)

        relation = "in the middle of the scene"
        if own is not None:
            nearest = None
            nearest_dist = None
            for other in self.records:
                if other.track_id == track_id:
                    continue
                pos = self._centroid(other, view)
                if pos is None:
                    continue
                d = math.hypot(pos[0] - own[0], pos[1] - own[1])
                if nearest_dist is None or d < nearest_dist:
                    nearest = (other, pos)
                    nearest_dist = d
            if nearest is not None:
                other, pos = nearest
                dx = own[0] - pos[0]
                if dx < -2.0:
                    relation = f"to the left of the {other.canonical}"
                elif dx > 2.0:
                    relation = f"to the right of the {other.canonical}"
                else:
                    relation = f"near the {other.canonical}"

        texts = [
            template_referral(category, attribute),
            template_referral(category, attribute, relation),
        ]
        return [(t, text_embedding(t, self.ds.dim)) for t in texts]


def attach_descriptions(
    choice: KeyframeChoice,
    category: str,
    source: ExternalDescriptions | TemplateSynthesizer,
) -> DescriptionSet:
    """Build the track's description set from captions for its keyframe."""
    if isinstance(source, ExternalDescriptions):
        refs = source.referrals(choice.track_id, choice.view)
    else:
        refs = source.referrals(choice.track_id, category, choice.view)
    if not refs:
        raise SchemaError(f"no referrals produced for track {choice.track_id}")
    return DescriptionSet(
        track_id=choice.track_id,
        category=category,
        referrals=refs,
        keyframe=choice.view,
    )


def run_keyframes(
    ds: SceneDataset,
    records: list[ConsensusRecord],
    strategy: str = "weighting",
    sigma: float = 100.0,
    seed: int = 0,
    external: ExternalDescriptions | None = None,
) -> list[DescriptionSet]:
    """Select a keyframe per trajectory and attach its descriptions."""
    source = external if external is not None else TemplateSynthesizer(ds, records)
    out = []
    for rec in sorted(records, key=lambda r: r.track_id):
        view_areas = [
            (view, mask_area(ds.detection(view, idx).mask)) for view, idx in rec.members
        ]
        choice = select_keyframe(
            rec.track_id, view_areas, strategy=strategy, sigma=sigma, seed=seed + rec.track_id
        )
        out.append(attach_descriptions(choice, rec.canonical, source))
    return out
