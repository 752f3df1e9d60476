"""Visibility-aware keyframe selection and keyframe captions.

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
from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord
from .errors import SchemaError
from .records import DescriptionSet, SceneDataset, Trajectory, as_vector, read_jsonl, text_embedding
from .rle import json_int, json_str

STRATEGIES = ("weighting", "maximum", "minimum", "random", "medium")
# the visibility penalty's width of a run that does not set keyframe.sigma
DEFAULT_SIGMA = 100.0

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


def check_keyframe_settings(strategy: str, sigma: float) -> None:
    """Refuse a strategy not in STRATEGIES and a sigma ``check_sigma`` refuses."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}")
    check_sigma(sigma)


def check_sigma(sigma: float) -> None:
    """Refuse a sigma that is not > 0, NaN included, and one so small that the score's
    denominator 2 sigma^2 underflows to 0 (below about 1.1e-162)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 2.0 * sigma * sigma > 0:
        raise ValueError(f"sigma is too small: 2 * sigma * sigma underflows to 0, got {sigma}")


def visibility_score(area: float, med: float, sigma: float) -> float:
    check_sigma(sigma)
    if area < 0 or med < 0:
        raise ValueError("areas must be nonnegative")
    dev = math.sqrt(area) - math.sqrt(med)
    return area * math.exp(-(dev * dev) / (2.0 * sigma * sigma))


def select_keyframe(
    view_areas: list[tuple[int, int]],
    strategy: str = "weighting",
    sigma: float = DEFAULT_SIGMA,
    seed: int = 0,
) -> int:
    """Pick the member view to describe the object from.

    ``view_areas`` holds (view, mask area) per trajectory member. All ties
    resolve to the earliest view; ``random`` draws uniformly with the given
    seed. Every strategy rejects a sigma ``check_sigma`` refuses and negative areas.
    """
    check_keyframe_settings(strategy, sigma)
    if not view_areas:
        raise ValueError("trajectory has no members")
    med = median_area([a for _, a in view_areas])
    scores = {v: visibility_score(a, med, sigma) for v, a in view_areas}

    if strategy == "random":
        rng = np.random.default_rng(seed)
        return view_areas[int(rng.integers(0, len(view_areas)))][0]
    rank = {
        "weighting": lambda va: (-scores[va[0]], va[0]),
        "maximum": lambda va: (-va[1], va[0]),
        "minimum": lambda va: (va[1], va[0]),
        "medium": lambda va: (abs(va[1] - med), va[0]),
    }[strategy]
    return min(view_areas, key=rank)[0]


def member_areas(ds: SceneDataset, track: ConsensusRecord | Trajectory) -> list[tuple[int, int]]:
    """(view, mask area) of each member of the track, from the dataset's ``packed.area``."""
    area, first = ds.packed.area, ds.packed.first
    return [(view, int(area[first[view] + idx])) for view, idx in track.members]


class ExternalDescriptions:
    """Captions produced offline, keyed by (track, view).

    File format: one JSON object per line
    {"track": int, "view": int, "texts": [str, ...], "vecs": [[float, ...], ...]}.
    Vectors must be finite and of unit norm, and of length ``dim`` when one is given.
    No (track, view) may appear twice.
    """

    def __init__(self, entries: dict[tuple[int, int], list[tuple[str, np.ndarray]]]):
        self.entries = entries

    @classmethod
    def load(cls, path: str | Path, dim: int | None = None) -> "ExternalDescriptions":
        entries: dict[tuple[int, int], list[tuple[str, np.ndarray]]] = {}

        def entry(obj: dict) -> None:
            texts = [json_str(t, "caption text") for t in obj["texts"]]
            vecs = [as_vector(v, dim, "caption vector", unit=True) for v in obj["vecs"]]
            if len(texts) != len(vecs):
                raise SchemaError(f"{len(texts)} texts but {len(vecs)} vectors")
            key = (json_int(obj["track"], "track"), json_int(obj["view"], "view"))
            if key in entries:
                raise SchemaError(f"track {key[0]} view {key[1]} appears twice")
            entries[key] = list(zip(texts, vecs))

        read_jsonl(path, entry)
        return cls(entries)

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


class TemplateSynthesizer:
    """Deterministic caption generator for synthetic scenes.

    Emits two referrals per track: a short attribute form and a longer
    attribute + spatial-relation form. The category is the track's voted
    canonical label. Attributes cycle a fixed palette by track id; relations
    compare pseudo-mask centroids against the nearest other track visible in
    the keyframe view (the first in track order on distance ties). Each
    distinct text is embedded once (``text_embedding`` is a pure function of
    the text and dim), and every referral of it shares that one read-only
    vector.
    """

    def __init__(self, ds: SceneDataset, records: list[ConsensusRecord]):
        self.ds = ds
        self.records = {r.track_id: r for r in sorted(records, key=lambda r: r.track_id)}
        self._centroids: dict[int, dict[int, tuple[float, float]]] = {}
        self._vectors: dict[str, np.ndarray] = {}

    def _embedding(self, text: str) -> np.ndarray:
        vec = self._vectors.get(text)
        if vec is None:
            vec = self._vectors[text] = text_embedding(text, self.ds.dim)
            vec.flags.writeable = False
        return vec

    def _view_centroids(self, view: int) -> dict[int, tuple[float, float]]:
        """Track id -> mask centroid in ``view``, ascending; the view's masks unpacked in one block
        from the dataset's ``packed`` rows.

        Tracks not seen in the view, or with an empty mask there, are left out.
        """
        if view not in self._centroids:
            seen = {t: i for t, rec in self.records.items() if (i := dict(rec.members).get(view)) is not None}
            ds = self.ds
            rows = np.unpackbits(ds.packed.view(view)[list(seen.values())], axis=1, count=ds.height * ds.width)
            centroids = {}
            for track_id, row in zip(seen, rows):
                ys, xs = np.divmod(np.flatnonzero(row), ds.width)
                if ys.size:
                    centroids[track_id] = float(xs.mean()), float(ys.mean())
            self._centroids[view] = centroids
        return self._centroids[view]

    def referrals(self, track_id: int, view: int) -> list[tuple[str, np.ndarray]]:
        category = self.records[track_id].canonical
        attribute = _PALETTE[track_id % len(_PALETTE)]
        centroids = self._view_centroids(view)
        own = centroids.get(track_id)
        # (distance, track) pairs: min() takes the first strictly nearest in track order
        others = [] if own is None else [
            (math.hypot(pos[0] - own[0], pos[1] - own[1]), other)
            for other, pos in centroids.items() if other != track_id
        ]
        relation = "in the middle of the scene"
        if others:
            other = min(others)[1]
            name = self.records[other].canonical
            dx = own[0] - centroids[other][0]
            if dx < -2.0:
                relation = f"to the left of the {name}"
            elif dx > 2.0:
                relation = f"to the right of the {name}"
            else:
                relation = f"near the {name}"

        texts = [
            template_referral(category, attribute),
            template_referral(category, attribute, relation),
        ]
        return [(t, self._embedding(t)) for t in texts]


def run_keyframes(
    ds: SceneDataset,
    records: list[ConsensusRecord],
    strategy: str = "weighting",
    sigma: float = DEFAULT_SIGMA,
    seed: int = 0,
    external: ExternalDescriptions | None = None,
) -> list[DescriptionSet]:
    """Select a keyframe per trajectory and caption the track in it."""
    source = external if external is not None else TemplateSynthesizer(ds, records)
    out = []
    for rec in sorted(records, key=lambda r: r.track_id):
        view = select_keyframe(member_areas(ds, rec), strategy, sigma, seed + rec.track_id)
        refs = source.referrals(rec.track_id, view)
        if not refs:
            raise SchemaError(f"no referrals produced for track {rec.track_id}")
        out.append(DescriptionSet(rec.track_id, rec.canonical, refs, keyframe=view))
    return out
