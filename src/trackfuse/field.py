"""Toy language-grounded Gaussian referring field.

Geometry is fixed: each Gaussian has a per-view 2-D center and a shared
isotropic spread; only the per-Gaussian feature vectors are learned. A
query renders to a probability grid through

    prob(p) = sigmoid( sum_g w_g(p) * (feature_g . query) ),
    w_g(p)  = exp(-|p - center_g|^2 / (2 s^2)),  truncated to 0 beyond 3 s.

Training minimizes  L = L_seg + lam * rho(t) * L_con  where L_seg is mean
binary cross-entropy of the rendered grid against the consensus pseudo
mask (one render per positive description), L_con is a multi-positive
softmax contrastive loss over the batch's description pool, and rho(t) is
a stepwise decay schedule on the contrastive weight. All gradients are
analytic; ``grad_check`` compares them against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord
from .errors import NumericError, SchemaError
from .records import DescriptionSet, SceneDataset, read_json, write_csv, write_json
from .rle import RleMask, rle_decode
from .synth import GroundTruth

BCE_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ToyGaussian:
    gid: int
    track: int
    centers: np.ndarray  # (n_views, 2) of (x, y); NaN rows mean not visible
    feature: np.ndarray


@dataclass
class ToyReferringField:
    height: int
    width: int
    spread: float
    dim: int
    gaussians: list[ToyGaussian]

    def __post_init__(self) -> None:
        if self.spread <= 0:
            raise ValueError(f"spread must be positive, got {self.spread}")
        for pos, g in enumerate(self.gaussians):
            if g.gid != pos:
                raise SchemaError(f"gaussian ids must be positional, got {g.gid} at {pos}")
        self._weight_cache: dict[int, np.ndarray] = {}

    def features(self) -> np.ndarray:
        return np.stack([g.feature for g in self.gaussians])

    def set_features(self, mat: np.ndarray) -> None:
        for g, row in zip(self.gaussians, mat):
            g.feature = row.copy()

    def weights(self, view: int) -> np.ndarray:
        """(n_gaussians, h*w) spatial weights for one view; cached (geometry is fixed)."""
        if view not in self._weight_cache:
            ys, xs = np.mgrid[0 : self.height, 0 : self.width]
            px = xs.ravel().astype(float)
            py = ys.ravel().astype(float)
            rows = []
            cutoff = (3.0 * self.spread) ** 2
            for g in self.gaussians:
                cx, cy = g.centers[view]
                if not (np.isfinite(cx) and np.isfinite(cy)):
                    rows.append(np.zeros(px.size))
                    continue
                d2 = (px - cx) ** 2 + (py - cy) ** 2
                w = np.exp(-d2 / (2.0 * self.spread**2))
                w[d2 > cutoff] = 0.0
                rows.append(w)
            self._weight_cache[view] = np.stack(rows)
        return self._weight_cache[view]


def render_logits(field_: ToyReferringField, view: int, query: np.ndarray) -> np.ndarray:
    """Pre-sigmoid grid of shape (h, w)."""
    w = field_.weights(view)
    scores = field_.features() @ query
    return (scores @ w).reshape(field_.height, field_.width)


def render_mask(field_: ToyReferringField, view: int, query: np.ndarray) -> np.ndarray:
    """Per-pixel foreground probability for the query at the view."""
    logits = render_logits(field_, view, query)
    return 1.0 / (1.0 + np.exp(-logits))


def _select_inside(field_: ToyReferringField, view: int, grid: np.ndarray, what: str):
    chosen = []
    for g in field_.gaussians:
        cx, cy = g.centers[view]
        if not (np.isfinite(cx) and np.isfinite(cy)):
            continue
        col, row = int(round(cx)), int(round(cy))
        if 0 <= row < field_.height and 0 <= col < field_.width and grid[row, col]:
            chosen.append(g.gid)
    if not chosen:
        raise NumericError(f"no Gaussian center inside the {what} at view {view}")
    feats = np.stack([field_.gaussians[gid].feature for gid in chosen])
    return chosen, feats.mean(axis=0)


def select_gaussians(
    field_: ToyReferringField, view: int, pseudo_mask: RleMask
) -> tuple[list[int], np.ndarray]:
    """Gaussians whose center pixel falls inside the pseudo mask, plus their mean feature."""
    if (pseudo_mask.height, pseudo_mask.width) != (field_.height, field_.width):
        raise SchemaError(
            f"pseudo mask is {pseudo_mask.height}x{pseudo_mask.width}, "
            f"field is {field_.height}x{field_.width}"
        )
    return _select_inside(field_, view, rle_decode(pseudo_mask), "pseudo mask")


def select_gaussians_rendered(
    field_: ToyReferringField, view: int, query: np.ndarray, threshold: float = 0.5
) -> tuple[list[int], np.ndarray]:
    """Select by the model's own rendered mask instead of the pseudo mask.

    Ablation path: circular early in training (an uninformative field
    renders 0.5 everywhere, so nothing clears the threshold and this
    raises), which is why pseudo-mask selection is the default.
    """
    grid = render_mask(field_, view, query) > threshold
    return _select_inside(field_, view, grid, "rendered mask")


def contrastive_loss(
    anchor: np.ndarray, positives: np.ndarray, pool: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Multi-positive softmax loss and its gradient with respect to anchor.

    loss = -(1/|P|) sum_p log( exp(anchor.p / tau) / sum_d exp(anchor.d / tau) )
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    positives = np.atleast_2d(positives)
    pool = np.atleast_2d(pool)
    if positives.shape[0] == 0:
        raise ValueError("positive set is empty")
    for p in positives:
        if not any(np.array_equal(p, d) for d in pool):
            raise ValueError("positive set is not a subset of the pool")

    logits = pool @ anchor / tau
    m = float(np.max(logits))
    lse = m + math.log(float(np.sum(np.exp(logits - m))))
    pos_logits = positives @ anchor / tau
    loss = float(lse - np.mean(pos_logits))

    softmax = np.exp(logits - lse)
    grad = (softmax @ pool - positives.mean(axis=0)) / tau
    return loss, grad


def seg_loss(probs: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE of a probability grid against a boolean mask.

    Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS]; the returned
    gradient is with respect to the pre-sigmoid logits, i.e. (p - y)/N
    inside the clamp and 0 where clamped flat.
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(target, dtype=float)
    if probs.shape != y.shape:
        raise SchemaError(f"shape mismatch: probs {probs.shape} vs target {y.shape}")
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    grad = (probs - y) / probs.size
    grad[(probs < BCE_EPS) | (probs > 1.0 - BCE_EPS)] = 0.0
    return loss, grad


def total_loss(seg: float, con: float, lam: float) -> float:
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return seg + lam * con


def grad_check(fn, x0: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between fn's analytic gradient and central differences."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x0 = np.asarray(x0, dtype=float)
    _, analytic = fn(x0)
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.zeros_like(analytic)
    flat = x0.ravel()
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        hi, _ = fn(bumped.reshape(x0.shape))
        bumped[i] = flat[i] - step
        lo, _ = fn(bumped.reshape(x0.shape))
        numeric[i] = (hi - lo) / (2.0 * step)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(abs(a), abs(n))
        if scale < 1e-10:
            continue
        worst = max(worst, abs(a - n) / scale)
    return worst


@dataclass
class TrackPositives:
    track_id: int
    pos_keys: list[tuple[int, str]]
    pos_vecs: np.ndarray
    pseudo_mask: RleMask


@dataclass
class ViewBatch:
    """Per-view training batch: each track's positives plus the shared pool."""

    view: int
    entries: list[TrackPositives]
    pool_keys: list[tuple[int, str]]
    pool_vecs: np.ndarray

    def __post_init__(self) -> None:
        keys = set(self.pool_keys)
        if len(keys) != len(self.pool_keys):
            raise SchemaError("pool entries must be distinct by (track, text)")
        for entry in self.entries:
            missing = [k for k in entry.pos_keys if k not in keys]
            if missing:
                raise SchemaError(f"positives missing from pool: {missing}")


def build_view_batch(
    ds: SceneDataset,
    records: list[ConsensusRecord],
    descriptions: dict[int, DescriptionSet],
    view: int,
    include_category: bool = True,
) -> ViewBatch | None:
    """Positives and pool for all tracks visible in one view.

    With ``include_category`` False, positives are the referral texts only
    (the long-descriptions-only ablation).
    """
    entries = []
    pool_keys: list[tuple[int, str]] = []
    pool_rows: list[np.ndarray] = []
    for rec in sorted(records, key=lambda r: r.track_id):
        member = next(((v, i) for v, i in rec.members if v == view), None)
        if member is None or rec.track_id not in descriptions:
            continue
        desc = descriptions[rec.track_id]
        keys: list[tuple[int, str]] = []
        vecs: list[np.ndarray] = []
        if include_category:
            keys.append((rec.track_id, desc.category))
            vecs.append(ds.embedding(desc.category))
        for text, vec in desc.referrals:
            keys.append((rec.track_id, text))
            vecs.append(vec)
        if not keys:
            raise ValueError(f"track {rec.track_id} has an empty positive set")
        entries.append(
            TrackPositives(
                track_id=rec.track_id,
                pos_keys=keys,
                pos_vecs=np.stack(vecs),
                pseudo_mask=ds.detection(*member).mask,
            )
        )
        for k, v in zip(keys, vecs):
            if k not in pool_keys:
                pool_keys.append(k)
                pool_rows.append(v)
    if not entries:
        return None
    return ViewBatch(
        view=view, entries=entries, pool_keys=pool_keys, pool_vecs=np.stack(pool_rows)
    )


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.1
    tau: float = 0.1
    epochs: int = 5
    feature_lr: float = 2.5e-3
    ratio_start: float = 0.1
    ratio_factor: float = 0.6
    ratio_interval: int = 2000
    views: tuple[int, ...] | None = None
    selection: str = "pseudo"  # or "rendered": ablation, unstable from a cold start

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.ratio_interval <= 0:
            raise ValueError(f"ratio_interval must be positive, got {self.ratio_interval}")
        if self.selection not in ("pseudo", "rendered"):
            raise ValueError(f"selection must be 'pseudo' or 'rendered', got {self.selection!r}")

    def ratio(self, iteration: int) -> float:
        return self.ratio_start * self.ratio_factor ** (iteration // self.ratio_interval)


def train(
    field_: ToyReferringField,
    ds: SceneDataset,
    records: list[ConsensusRecord],
    descriptions: list[DescriptionSet],
    cfg: TrainConfig,
    include_category: bool = True,
) -> tuple[ToyReferringField, list[tuple[int, float, float, float]]]:
    """Optimize the field's features; returns the field and the loss curve.

    One iteration per (view, track) pair, views then tracks in ascending
    order, sequential and therefore bit-reproducible. Curve rows are
    (iteration, L_seg, L_con, L_total-with-schedule).
    """
    desc_by_track = {d.track_id: d for d in descriptions}
    if not include_category:
        for d in descriptions:
            if not d.referrals:
                raise ValueError(
                    f"track {d.track_id} has no referrals: positive set would be empty"
                )
    views = cfg.views if cfg.views is not None else tuple(range(ds.n_views))

    feats = field_.features().astype(float)
    m = np.zeros_like(feats)
    v = np.zeros_like(feats)
    curve: list[tuple[int, float, float, float]] = []
    iteration = 0

    for _ in range(cfg.epochs):
        for view in views:
            batch = build_view_batch(
                ds, records, desc_by_track, view, include_category=include_category
            )
            if batch is None:
                continue
            w_view = field_.weights(view)
            for entry in batch.entries:
                field_.set_features(feats)

                if cfg.selection == "rendered":
                    chosen, anchor = select_gaussians_rendered(
                        field_, view, entry.pos_vecs[0]
                    )
                else:
                    chosen, anchor = select_gaussians(field_, view, entry.pseudo_mask)
                con, g_con = contrastive_loss(anchor, entry.pos_vecs, batch.pool_vecs, cfg.tau)
                grads_con = np.zeros_like(feats)
                for gid in chosen:
                    grads_con[gid] += g_con / len(chosen)

                target = rle_decode(entry.pseudo_mask)
                n_pos = entry.pos_vecs.shape[0]
                seg_mean = 0.0
                grads_seg = np.zeros_like(feats)
                for q in entry.pos_vecs:
                    probs = render_mask(field_, view, q)
                    seg, g_logits = seg_loss(probs, target)
                    seg_mean += seg / n_pos
                    grads_seg += np.outer(w_view @ g_logits.ravel(), q) / n_pos

                weight = cfg.lam * cfg.ratio(iteration)
                step_loss = seg_mean + weight * con
                if not math.isfinite(step_loss):
                    raise NumericError(f"non-finite loss at iteration {iteration}")
                step_grad = grads_seg + weight * grads_con

                iteration += 1
                m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * step_grad
                v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * step_grad**2
                m_hat = m / (1.0 - ADAM_BETA1**iteration)
                v_hat = v / (1.0 - ADAM_BETA2**iteration)
                feats = feats - cfg.feature_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                curve.append((iteration, seg_mean, con, step_loss))

    field_.set_features(feats)
    return field_, curve


def field_from_ground_truth(
    gt: GroundTruth,
    n_views: int,
    height: int,
    width: int,
    dim: int = 32,
    spread: float = 8.0,
    per_object: int = 5,
) -> ToyReferringField:
    """Fixed geometry from the true object motion: a small Gaussian cloud per object."""
    offsets = [(0.0, 0.0), (-0.5, 0.0), (0.5, 0.0), (0.0, -0.5), (0.0, 0.5)][:per_object]
    gaussians = []
    for obj in gt.objects:
        rx, ry = obj.radii
        for ox, oy in offsets:
            centers = np.full((n_views, 2), np.nan)
            for view in range(n_views):
                if view < len(obj.visible) and obj.visible[view]:
                    cx, cy = obj.centers[view]
                    centers[view] = (cx + ox * rx, cy + oy * ry)
            gaussians.append(
                ToyGaussian(
                    gid=len(gaussians),
                    track=obj.object_id,
                    centers=centers,
                    feature=np.zeros(dim),
                )
            )
    return ToyReferringField(
        height=height, width=width, spread=spread, dim=dim, gaussians=gaussians
    )


def save_field(field_: ToyReferringField, path: str | Path) -> None:
    obj = {
        "h": field_.height,
        "w": field_.width,
        "spread": field_.spread,
        "dim": field_.dim,
        "gaussians": [
            {
                "id": g.gid,
                "track": g.track,
                "centers": [
                    None if not np.all(np.isfinite(c)) else [float(c[0]), float(c[1])]
                    for c in g.centers
                ],
                "feature": g.feature.tolist(),
            }
            for g in field_.gaussians
        ],
    }
    write_json(obj, path)


def _field_from_json(obj: dict) -> ToyReferringField:
    gaussians = []
    for g in obj["gaussians"]:
        centers = np.array(
            [[np.nan, np.nan] if c is None else [float(c[0]), float(c[1])] for c in g["centers"]]
        )
        gaussians.append(
            ToyGaussian(
                gid=int(g["id"]),
                track=int(g["track"]),
                centers=centers,
                feature=np.asarray(g["feature"], dtype=float),
            )
        )
    return ToyReferringField(
        height=int(obj["h"]),
        width=int(obj["w"]),
        spread=float(obj["spread"]),
        dim=int(obj["dim"]),
        gaussians=gaussians,
    )


def load_field(path: str | Path) -> ToyReferringField:
    return read_json(path, _field_from_json)


def save_loss_curve(curve: list[tuple[int, float, float, float]], path: str | Path) -> None:
    write_csv(["iter", "seg", "con", "total"], curve, path)
