"""Toy language-grounded Gaussian referring field.

Geometry is fixed: each Gaussian has a per-view 2-D center and a shared
isotropic spread; only the features are learned, one (n_gaussians, dim)
matrix on the field. A query renders to a probability grid through

    prob(p) = sigmoid( sum_g w_g(p) * (feature_g . query) ),
    w_g(p)  = exp(-|p - center_g|^2 / (2 s^2)),  truncated to 0 beyond 3 s.

Training minimizes  L = L_seg + lam * rho(t) * L_con: L_seg is the mean
binary cross-entropy of the rendered grids of a track's positives against
its consensus pseudo mask (one render product, one ``seg_loss`` pass), L_con
a multi-positive softmax contrastive loss over the view's description pool,
and rho(t) a stepwise decay of the contrastive weight; all gradients are
analytic. ``train`` builds its plan once, as arrays, so that an epoch only
renders, takes the losses and updates the feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord
from .errors import NumericError, SchemaError
from .records import DescriptionSet, SceneDataset, as_vector, read_json, write_csv, write_json
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


@dataclass
class ToyReferringField:
    height: int
    width: int
    spread: float
    dim: int
    gaussians: list[ToyGaussian]
    features: np.ndarray  # (n_gaussians, dim), row g is Gaussian g's feature

    def __post_init__(self) -> None:
        if not 0 < self.spread < math.inf:
            raise ValueError(f"spread must be positive and finite, got {self.spread}")
        for pos, g in enumerate(self.gaussians):
            if g.gid != pos:
                raise SchemaError(f"gaussian ids must be positional, got {g.gid} at {pos}")
        # one (n_gaussians, h*w) buffer holds the weights of the last view asked for;
        # only the boxes listed in _boxes are non-zero
        self._buffer: np.ndarray | None = None
        self._buffer_view: int | None = None
        self._boxes: list[tuple[int, slice, slice]] = []

    def weights(self, view: int) -> np.ndarray:
        """(n_gaussians, h*w) spatial weights for one view, as a read-only array.

        The field keeps one buffer: a call for another view zeroes the boxes
        of the last view and fills this view's, and a repeated call for the
        same view does no work. The returned array is therefore valid only
        until ``weights`` is called for another view; copy it to keep it.

        Each Gaussian's row is filled only inside its 3-sigma box, from the
        first to the last row and column whose own squared offset from the
        center is within the cutoff. Outside it d^2 > (3 s)^2 already, so
        the weight there is 0, as in a full-grid evaluation.
        """
        if view != self._buffer_view:
            h, w, n = self.height, self.width, len(self.gaussians)
            cutoff = (3.0 * self.spread) ** 2
            centers = np.array([g.centers[view] for g in self.gaussians], dtype=float).reshape(n, 2)
            if self._buffer is None:
                self._buffer = np.zeros((n, h * w))
            grids = self._buffer.reshape(n, h, w)
            # forget the view first, so that a fill cut short is refilled by the next call
            self._buffer_view = None
            for k, ys, xs in self._boxes:
                grids[k, ys, xs] = 0.0
            self._boxes = []
            dx2 = (np.arange(w, dtype=float) - centers[:, :1]) ** 2  # (n, w)
            dy2 = (np.arange(h, dtype=float) - centers[:, 1:]) ** 2  # (n, h)
            # NaN offsets compare False, so a non-finite center gets an empty box
            in_x, in_y = dx2 <= cutoff, dy2 <= cutoff
            x0, x1 = in_x.argmax(axis=1).tolist(), (w - in_x[:, ::-1].argmax(axis=1)).tolist()
            y0, y1 = in_y.argmax(axis=1).tolist(), (h - in_y[:, ::-1].argmax(axis=1)).tolist()
            for k in np.flatnonzero(in_x.any(axis=1) & in_y.any(axis=1)).tolist():
                xs, ys = slice(x0[k], x1[k]), slice(y0[k], y1[k])
                d2 = dx2[k, xs] + dy2[k, ys, None]
                box = np.exp(-d2 / (2.0 * self.spread**2))
                box[d2 > cutoff] = 0.0
                self._boxes.append((k, ys, xs))
                grids[k, ys, xs] = box
            self._buffer_view = view
        out = self._buffer.view()
        out.flags.writeable = False
        return out


def render_logits(
    field_: ToyReferringField, view: int, query: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pre-sigmoid grid: (h, w) for a (dim,) query, (Q, h, w) for a (Q, dim) matrix.

    ``out``, if given, receives the product: an (h*w,) or (Q, h*w) float64
    array, which the returned grids then view. A caller that renders view
    after view can reuse one, so that no large block is freed and mapped
    again per view.
    """
    query = np.asarray(query)
    scores = field_.features @ query.T  # (G,) or (G, Q)
    logits = np.matmul(scores.T, field_.weights(view), out=out)
    return logits.reshape(query.shape[:-1] + (field_.height, field_.width))


def render_mask(field_: ToyReferringField, view: int, query: np.ndarray) -> np.ndarray:
    """Per-pixel foreground probability for the query (or each query row) at the view."""
    logits = render_logits(field_, view, query)
    return 1.0 / (1.0 + np.exp(-logits))


def binarize_logits(logits: np.ndarray) -> np.ndarray:
    """``sigmoid(logits) > 0.5`` as booleans, bit for bit.

    Only logits in the band 0 < z < 1e-15 take the sigmoid, because a tiny
    one rounds to exactly 0.5; every other logit gives ``z > 0``:
    - z <= 0 (and NaN) is False: there the sigmoid is <= 0.5 exactly (NaN
      compares False).
    - z >= 1e-15 (and +inf) is True. 1e-15 is about 9 ulp of 2**-53 below
      1, so a faithfully rounded exp(-z) is at least 8 such ulp below 1;
      then 1 + exp(-z) rounds to at most 2 - 4 * 2**-52, and 1 / (1 + e)
      exceeds 0.5 by about 2 ulp of 2**-53, so it rounds above 0.5.
    """
    out = logits > 0.0
    band = out & (logits < 1e-15)
    out[band] = 1.0 / (1.0 + np.exp(-logits[band])) > 0.5
    return out


def select_gaussians(field_: ToyReferringField, view: int, pseudo_mask: RleMask) -> list[int]:
    """Ids of the Gaussians whose center pixel falls inside the pseudo mask."""
    if (pseudo_mask.height, pseudo_mask.width) != (field_.height, field_.width):
        raise SchemaError(
            f"pseudo mask is {pseudo_mask.height}x{pseudo_mask.width}, "
            f"field is {field_.height}x{field_.width}"
        )
    centers = np.array([g.centers[view] for g in field_.gaussians], dtype=float).reshape(-1, 2)
    # np.rint rounds half to even like round(); NaN and inf fail the bounds
    col, row = np.rint(centers).T
    inside = (0 <= row) & (row < field_.height) & (0 <= col) & (col < field_.width)
    gids = np.flatnonzero(inside)
    hit = rle_decode(pseudo_mask)[row[gids].astype(int), col[gids].astype(int)]
    chosen = gids[hit].tolist()
    if not chosen:
        raise NumericError(f"no Gaussian center inside the pseudo mask at view {view}")
    return chosen


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
    # each positive must equal some pool row (NaN equals nothing)
    if positives.shape[1:] != pool.shape[1:] or not (
        (positives[:, None, :] == pool[None, :, :]).all(axis=2).any(axis=1).all()
    ):
        raise ValueError("positive set is not a subset of the pool")

    logits = pool @ anchor / tau
    m = float(np.max(logits))
    lse = m + math.log(float(np.sum(np.exp(logits - m))))
    pos_logits = positives @ anchor / tau
    loss = float(lse - np.mean(pos_logits))

    softmax = np.exp(logits - lse)
    grad = (softmax @ pool - positives.mean(axis=0)) / tau
    return loss, grad


def seg_loss(probs: np.ndarray, target: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean BCE of an (h, w) probability grid, or of each grid of a (Q, h, w)
    stack, against a boolean (h, w) mask: a float, or a (Q,) array.

    Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS]; the returned
    gradient is with respect to the pre-sigmoid logits, i.e. (p - y)/N with
    N = h*w inside the clamp and 0 where clamped flat.
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(target, dtype=float)
    if y.ndim != 2 or probs.ndim not in (2, 3) or probs.shape[-2:] != y.shape:
        raise SchemaError(f"shape mismatch: probs {probs.shape} vs target {y.shape}")
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    loss = np.mean(-np.log(np.where(y, p, 1.0 - p)), axis=(-2, -1))
    grad = (probs - y) / y.size
    grad[(probs < BCE_EPS) | (probs > 1.0 - BCE_EPS)] = 0.0
    return (float(loss) if probs.ndim == 2 else loss), grad


def seg_step(
    field_: ToyReferringField, view: int, positives: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean ``seg_loss`` over the positives, all rendered at once, and its feature gradient.

    With W the view's weights, G the stacked logit gradients and P the
    positives, d(mean loss)/d(features) = ((W @ G.T) @ P) / |P|.
    """
    losses, g_logits = seg_loss(render_mask(field_, view, positives), target)
    n_pos = positives.shape[0]
    seg_mean = 0.0
    for seg in losses.tolist():  # summed in row order, as one loss per positive would be
        seg_mean += seg / n_pos
    return seg_mean, ((field_.weights(view) @ g_logits.reshape(n_pos, -1).T) @ positives) / n_pos


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

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.ratio_interval <= 0:
            raise ValueError(f"ratio_interval must be positive, got {self.ratio_interval}")

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
    for d in descriptions if not include_category else ():
        if not d.referrals:
            raise ValueError(f"track {d.track_id} has no referrals: positive set would be empty")
    views = cfg.views if cfg.views is not None else tuple(range(ds.n_views))
    for view in views:
        if not 0 <= view < ds.n_views:
            raise ValueError(f"view {view} is not a view of the dataset, which has {ds.n_views} views")

    # the geometry and the pseudo masks are fixed, so the plan is built once: per view,
    # the pool maps each (track, text) to its first vector, and each visible track gets
    # its stacked positives, decoded pseudo mask and chosen Gaussians; the plan is
    # view-major, so each epoch fills each view's weights once
    plan = []
    for view in views:
        pool: dict[tuple[int, str], np.ndarray] = {}
        entries = []
        for rec in sorted(records, key=lambda r: r.track_id):
            member = next(((v, i) for v, i in rec.members if v == view), None)
            desc = desc_by_track.get(rec.track_id)
            if member is None or desc is None:
                continue
            category = [(desc.category, ds.embedding(desc.category))] if include_category else []
            # a repeated key takes the pool's vector, so the positives stay a subset of the pool
            texts = [*category, *desc.referrals]
            positives = [pool.setdefault((rec.track_id, text), vec) for text, vec in texts]
            mask = ds.detection(*member).mask
            chosen = select_gaussians(field_, view, mask)
            entries.append((np.stack(positives), rle_decode(mask), chosen))
        pool_vecs = np.stack(list(pool.values())) if pool else None
        plan += [(view, positives, pool_vecs, target, chosen) for positives, target, chosen in entries]

    m = v = np.zeros_like(field_.features)  # Adam moments; each step rebinds them
    curve: list[tuple[int, float, float, float]] = []
    iteration = 0

    for _ in range(cfg.epochs):
        for view, positives, pool, target, chosen in plan:
            anchor = field_.features[chosen].mean(axis=0)
            con, g_con = contrastive_loss(anchor, positives, pool, cfg.tau)
            grads_con = np.zeros_like(field_.features)
            grads_con[chosen] += g_con / len(chosen)
            seg_mean, grads_seg = seg_step(field_, view, positives, target)

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
            field_.features = field_.features - cfg.feature_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            curve.append((iteration, seg_mean, con, step_loss))

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
            gaussians.append(ToyGaussian(gid=len(gaussians), track=obj.object_id, centers=centers))
    return ToyReferringField(height, width, spread, dim, gaussians, np.zeros((len(gaussians), dim)))


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
                "feature": feature.tolist(),
            }
            for g, feature in zip(field_.gaussians, field_.features)
        ],
    }
    write_json(obj, path)


def load_field(path: str | Path, ds: SceneDataset | None = None) -> ToyReferringField:
    """Read a field file; every feature must be finite and of length ``dim``. Against
    ``ds``, the field must have the dataset's view size, one center entry per view
    and the embeddings' ``dim``."""

    def parse(obj: dict) -> ToyReferringField:
        height, width, dim = int(obj["h"]), int(obj["w"]), int(obj["dim"])
        if ds is not None and (height, width) != (ds.height, ds.width):
            raise SchemaError(f"field is {height}x{width}, the dataset's views are {ds.height}x{ds.width}")
        if ds is not None and dim != ds.dim:
            raise SchemaError(f"field dim is {dim}, the dataset's embeddings have dim {ds.dim}")
        gaussians, features = [], []
        for g in obj["gaussians"]:
            gid = int(g["id"])
            if ds is not None and len(g["centers"]) != ds.n_views:
                raise SchemaError(
                    f"gaussian {gid}: {len(g['centers'])} centers, the dataset has {ds.n_views} views"
                )
            centers = np.array(
                [[np.nan, np.nan] if c is None else [float(c[0]), float(c[1])] for c in g["centers"]]
            )
            gaussians.append(ToyGaussian(gid=gid, track=int(g["track"]), centers=centers))
            features.append(as_vector(g["feature"], dim, f"gaussian {gid}: feature"))
        features = np.array(features).reshape(len(gaussians), dim)
        return ToyReferringField(height, width, float(obj["spread"]), dim, gaussians, features)

    return read_json(path, parse)


def save_loss_curve(curve: list[tuple[int, float, float, float]], path: str | Path) -> None:
    write_csv(["iter", "seg", "con", "total"], curve, path)
