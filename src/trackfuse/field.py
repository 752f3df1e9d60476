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
from .rle import RleMask, json_int, rle_decode
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
        # it is non-zero only inside the windows listed in _filled
        self._buffer: np.ndarray | None = None
        self._buffer_view: int | None = None
        self._filled: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (gaussians, tops, lefts)
        self._centers: np.ndarray | None = None  # (n_gaussians, n_views, 2)

    def weights(self, view: int) -> np.ndarray:
        """(n_gaussians, h*w) spatial weights for one view, as a read-only array.

        The field keeps one buffer: a call for another view zeroes the windows
        of the last view and fills this view's, and a repeated call for the
        same view does no work. The returned array is therefore valid only
        until ``weights`` is called for another view; copy it to keep it.
        The centers are read once, at the first call: the geometry is fixed.

        Every Gaussian gets a window of the same size per axis, min(side,
        floor(6 s) + 2), placed at its first row and column whose own squared
        offset from the center is within the cutoff (3 s)^2, and moved back
        into the view where it would cross the far edge. Those rows and
        columns form one run no longer than floor(6 s) + 1, even with the
        offsets rounded, so the window covers it; any other pixel of the
        window has d^2 > (3 s)^2 and is written as 0, the weight a full-grid
        evaluation gives it.
        """
        if view != self._buffer_view:
            if self._buffer is None:
                self._buffer = np.zeros((len(self.gaussians), self.height * self.width))
                self._centers = np.array([g.centers for g in self.gaussians], dtype=float)
            # forget the view first, so that a fill cut short is refilled by the next call
            self._buffer_view = None
            self._fill(view)
            self._buffer_view = view
        out = self._buffer.view()
        out.flags.writeable = False
        return out

    def _fill(self, view: int) -> None:
        """Zero the listed windows, then write this view's through one strided window view of the
        buffer, a chunk of Gaussians at a time: as many as keep the chunk's float64 and bool
        blocks under 1/8 of the buffer, and at least one."""
        h, w, n = self.height, self.width, len(self.gaussians)
        span = math.floor(min(6.0 * self.spread, max(h, w))) + 2
        win_h, win_w = min(h, span), min(w, span)
        # slots[k, y, x] is Gaussian k's window with its top left pixel at row y, column x
        gaussian, pixel = self._buffer.strides
        slots = np.ndarray(
            (n, h - win_h + 1, w - win_w + 1, win_h, win_w),
            buffer=self._buffer,
            strides=(gaussian, w * pixel, pixel, w * pixel, pixel),
        )
        if self._filled is not None:
            slots[self._filled] = 0.0
            self._filled = None
        if not n:
            return
        centers = self._centers[:, view]
        cutoff = (3.0 * self.spread) ** 2
        dx2 = (np.arange(w, dtype=float) - centers[:, :1]) ** 2  # (n, w)
        dy2 = (np.arange(h, dtype=float) - centers[:, 1:]) ** 2  # (n, h)
        # NaN offsets compare False, so a non-finite center gets no window
        in_x, in_y = dx2 <= cutoff, dy2 <= cutoff
        ks = np.flatnonzero(in_x.any(axis=1) & in_y.any(axis=1))
        tops = np.minimum(in_y.argmax(axis=1)[ks], h - win_h)
        lefts = np.minimum(in_x.argmax(axis=1)[ks], w - win_w)
        # listed before they are written, so that a fill cut short is zeroed by the next one
        self._filled = (ks, tops, lefts)
        denom = 2.0 * self.spread**2
        cols, rows = np.arange(win_w), np.arange(win_h)
        # 9 bytes per window pixel against the buffer's 8 * n * h * w; every chunk reuses the blocks
        chunk = max(1, min(ks.size, n * h * w // (9 * win_h * win_w)))
        d2_block, beyond_block = np.empty((chunk, win_h, win_w)), np.empty((chunk, win_h, win_w), dtype=bool)
        for lo in range(0, ks.size, chunk):
            k, y, x = ks[lo : lo + chunk], tops[lo : lo + chunk], lefts[lo : lo + chunk]
            d2, beyond = d2_block[: k.size], beyond_block[: k.size]
            # each window's slices of dx^2 and dy^2, added as dx2 + dy2
            dx, dy = dx2[k[:, None], x[:, None] + cols], dy2[k[:, None], y[:, None] + rows]
            np.add(dx[:, None, :], dy[:, :, None], out=d2)
            np.greater(d2, cutoff, out=beyond)
            # exp(-d2 / (2 s^2)), one operation at a time in d2's block
            np.negative(d2, out=d2)
            d2 /= denom
            np.exp(d2, out=d2)
            d2[beyond] = 0.0
            slots[k, y, x] = d2


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


def render_mask(
    field_: ToyReferringField, view: int, query: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-pixel foreground probability for the query (or each query row) at the view.

    ``out`` is as for ``render_logits``. The sigmoid ``1 / (1 + exp(-z))`` is
    taken in place, one operation at a time, so a caller that passes ``out``
    allocates nothing of the grid's size.
    """
    probs = render_logits(field_, view, query, out=out)
    np.negative(probs, out=probs)
    np.exp(probs, out=probs)
    probs += 1.0
    return np.divide(1.0, probs, out=probs)


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
    centers = np.array([g.centers[view] for g in field_.gaussians], dtype=float).reshape(-1, 2)
    return _select_inside(field_, view, centers, rle_decode(pseudo_mask))


def _select_inside(field_: ToyReferringField, view: int, centers: np.ndarray, grid: np.ndarray) -> list[int]:
    """Ids of the Gaussians whose center, a row of the (n_gaussians, 2) ``centers``,
    rounds to a set pixel of the decoded pseudo mask ``grid``."""
    if grid.shape != (field_.height, field_.width):
        raise SchemaError(
            f"pseudo mask is {grid.shape[0]}x{grid.shape[1]}, field is {field_.height}x{field_.width}"
        )
    # np.rint rounds half to even like round(); NaN and inf fail the bounds
    col, row = np.rint(centers).T
    inside = (0 <= row) & (row < field_.height) & (0 <= col) & (col < field_.width)
    gids = np.flatnonzero(inside)
    chosen = gids[grid[row[gids].astype(int), col[gids].astype(int)]].tolist()
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
    return _contrastive(anchor, positives, pool, tau)


def _contrastive(
    anchor: np.ndarray, positives: np.ndarray, pool: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """``contrastive_loss`` without its checks, for positives that are rows of the pool by construction."""
    logits = pool @ anchor / tau
    m = float(logits.max())
    lse = m + math.log(float(np.exp(logits - m).sum()))
    pos_logits = positives @ anchor / tau
    loss = float(lse - pos_logits.mean())

    softmax = np.exp(logits - lse)
    grad = (softmax @ pool - positives.mean(axis=0)) / tau
    return loss, grad


def seg_loss(
    probs: np.ndarray, target: np.ndarray, out: np.ndarray | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean BCE of an (h, w) probability grid, or of each grid of a (Q, h, w)
    stack, against a boolean (h, w) mask: a float, or a (Q,) array.

    Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS]; the returned
    gradient is with respect to the pre-sigmoid logits, i.e. (p - y)/N with
    N = h*w inside the clamp and 0 where clamped flat.

    ``out``, if given, is a float64 array of two blocks of ``probs``' size,
    (2, *probs.shape) or reshaped to it without a copy: the first holds the
    clamped probabilities, the second the log terms and then the gradient,
    which the returned gradient views. A training loop passes the same one
    each step, so that no block of the stack's size is allocated per call.
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(target, dtype=bool)
    if y.ndim != 2 or probs.ndim not in (2, 3) or probs.shape[-2:] != y.shape:
        raise SchemaError(f"shape mismatch: probs {probs.shape} vs target {y.shape}")
    p, buf = np.empty((2, *probs.shape)) if out is None else out.reshape((2, *probs.shape))
    # -log(where(y, p, 1 - p)), built as 1 - p with p copied in where y; the terms are
    # summed before negating, which rounds the same, since negation is exact
    np.clip(probs, BCE_EPS, 1.0 - BCE_EPS, out=p)
    np.subtract(1.0, p, out=buf)
    np.copyto(buf, p, where=y)
    np.log(buf, out=buf)
    loss = -np.mean(buf, axis=(-2, -1))
    # (probs - y) / N: probs - 1 where y, and probs itself (x - 0 is x) elsewhere
    grad = np.subtract(probs, 1.0, out=buf)
    np.copyto(grad, probs, where=~y)
    grad /= y.size
    np.copyto(grad, 0.0, where=(probs < BCE_EPS) | (probs > 1.0 - BCE_EPS))
    return (float(loss) if probs.ndim == 2 else loss), grad


def seg_step(
    field_: ToyReferringField,
    view: int,
    positives: np.ndarray,
    target: np.ndarray,
    buffers: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean ``seg_loss`` over the positives, all rendered at once, and its feature gradient.

    With W the view's weights, G the stacked logit gradients and P the
    positives, d(mean loss)/d(features) = ((W @ G.T) @ P) / |P|.

    ``buffers``, if given, is a (3, n, h*w) float64 array with n >= |P|:
    the render goes into the first block and ``seg_loss`` works in the
    other two, so that a training loop allocates no large block per step.
    """
    n_pos = positives.shape[0]
    probs = render_mask(field_, view, positives, out=None if buffers is None else buffers[0, :n_pos])
    losses, g_logits = seg_loss(probs, target, out=None if buffers is None else buffers[1:, :n_pos])
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
        # each range is written so that NaN fails it
        ranges = (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("feature_lr", 0 < self.feature_lr < math.inf, "finite and > 0"),
            ("lam", 0 <= self.lam < math.inf, "finite and >= 0"),
            ("tau", 0 < self.tau < math.inf, "finite and > 0"),
            ("ratio_start", 0 < self.ratio_start < math.inf, "finite and > 0"),
            ("ratio_factor", 0 < self.ratio_factor < math.inf, "finite and > 0"),
            ("ratio_interval", self.ratio_interval > 0, "> 0"),
        )
        for name, within, rule in ranges:
            if not within:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

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
    # the pool holds each (track, text) key's first vector once, and each visible track
    # gets its positives, gathered from the pool rows of its keys (a repeated key reuses
    # its row, so they are a subset of the pool by construction), its pseudo mask decoded
    # once and the Gaussians chosen from it; the plan is view-major, so each epoch fills
    # each view's weights once
    centers = np.array([[g.centers[view] for g in field_.gaussians] for view in views], dtype=float)
    centers = centers.reshape(len(views), len(field_.gaussians), 2)
    plan = []
    for view, view_centers in zip(views, centers):
        pool: dict[tuple[int, str], tuple[int, np.ndarray]] = {}  # key -> (row, vector)
        entries = []
        for rec in sorted(records, key=lambda r: r.track_id):
            member = next(((v, i) for v, i in rec.members if v == view), None)
            desc = desc_by_track.get(rec.track_id)
            if member is None or desc is None:
                continue
            category = [(desc.category, ds.embedding(desc.category))] if include_category else []
            texts = [*category, *desc.referrals]
            rows = [pool.setdefault((rec.track_id, text), (len(pool), vec))[0] for text, vec in texts]
            target = rle_decode(ds.detection(*member).mask)
            entries.append((rows, target, _select_inside(field_, view, view_centers, target)))
        if entries:
            pool_vecs = np.stack([vec for _, vec in pool.values()])
            plan += [(view, pool_vecs[rows], pool_vecs, target, chosen) for rows, target, chosen in entries]

    # one render block and two seg_loss blocks of the largest positive set, for every step
    n_rows = max((positives.shape[0] for _, positives, *_ in plan), default=0)
    buffers = np.empty((3, n_rows, field_.height * field_.width))
    # the features and the Adam moments are updated in place, each product and sum
    # rounded as in m = b1 * m + (1 - b1) * g and its kin; the caller's array is kept
    features = field_.features = field_.features.astype(float)
    m, v, step, denom = (np.zeros_like(features) for _ in range(4))
    curve: list[tuple[int, float, float, float]] = []
    iteration = 0

    for _ in range(cfg.epochs):
        for view, positives, pool, target, chosen in plan:
            anchor = features[chosen].mean(axis=0)
            con, g_con = _contrastive(anchor, positives, pool, cfg.tau)
            grads_con = np.zeros_like(features)
            grads_con[chosen] += g_con / len(chosen)
            seg_mean, grads_seg = seg_step(field_, view, positives, target, buffers)

            weight = cfg.lam * cfg.ratio(iteration)
            step_loss = seg_mean + weight * con
            if not math.isfinite(step_loss):
                raise NumericError(f"non-finite loss at iteration {iteration}")
            step_grad = grads_seg + weight * grads_con

            iteration += 1
            m *= ADAM_BETA1
            m += np.multiply(step_grad, 1.0 - ADAM_BETA1, out=step)
            v *= ADAM_BETA2
            v += np.multiply(np.square(step_grad, out=step), 1.0 - ADAM_BETA2, out=step)
            # features -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1.0 - ADAM_BETA1**iteration, out=step)
            step *= cfg.feature_lr
            np.divide(v, 1.0 - ADAM_BETA2**iteration, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            features -= np.divide(step, denom, out=step)
            curve.append((iteration, seg_mean, con, step_loss))

    return field_, curve


# the centers of an object's Gaussian cloud, as offsets from its center in units of its radii
OFFSETS = ((0.0, 0.0), (-0.5, 0.0), (0.5, 0.0), (0.0, -0.5), (0.0, 0.5))


def field_from_ground_truth(
    gt: GroundTruth,
    n_views: int,
    height: int,
    width: int,
    dim: int = 32,
    spread: float = 8.0,
    per_object: int = 5,
) -> ToyReferringField:
    """Fixed geometry from the true object motion: a cloud of ``per_object`` Gaussians per object."""
    if not 1 <= per_object <= len(OFFSETS):
        raise ValueError(f"gaussians_per_object must be in [1, {len(OFFSETS)}], got {per_object!r}")
    gaussians = []
    for obj in gt.objects:
        rx, ry = obj.radii
        for ox, oy in OFFSETS[:per_object]:
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
            {"id": g.gid, "track": g.track, "centers": _json_centers(g.centers), "feature": feature.tolist()}
            for g, feature in zip(field_.gaussians, field_.features)
        ],
    }
    write_json(obj, path)


def _json_centers(centers) -> list:
    """Each (x, y) row as a list of floats, or None where it is not finite (not visible)."""
    centers = np.asarray(centers, dtype=float)
    visible = np.isfinite(centers).all(axis=1).tolist()
    return [row if seen else None for row, seen in zip(centers.tolist(), visible)]


def load_field(path: str | Path, ds: SceneDataset | None = None) -> ToyReferringField:
    """Read a field file; every feature must be finite and of length ``dim``. Against
    ``ds``, the field must have the dataset's view size, one center entry per view
    and the embeddings' ``dim``."""

    def parse(obj: dict) -> ToyReferringField:
        height, width, dim = (json_int(obj[key], key) for key in ("h", "w", "dim"))
        if ds is not None and (height, width) != (ds.height, ds.width):
            raise SchemaError(f"field is {height}x{width}, the dataset's views are {ds.height}x{ds.width}")
        if ds is not None and dim != ds.dim:
            raise SchemaError(f"field dim is {dim}, the dataset's embeddings have dim {ds.dim}")
        gaussians, features = [], []
        for g in obj["gaussians"]:
            gid = json_int(g["id"], "gaussian id")
            if ds is not None and len(g["centers"]) != ds.n_views:
                raise SchemaError(
                    f"gaussian {gid}: {len(g['centers'])} centers, the dataset has {ds.n_views} views"
                )
            centers = np.array(
                [[np.nan, np.nan] if c is None else [float(c[0]), float(c[1])] for c in g["centers"]]
            )
            track = json_int(g["track"], f"gaussian {gid}: track")
            gaussians.append(ToyGaussian(gid=gid, track=track, centers=centers))
            features.append(as_vector(g["feature"], dim, f"gaussian {gid}: feature"))
        features = np.array(features).reshape(len(gaussians), dim)
        return ToyReferringField(height, width, float(obj["spread"]), dim, gaussians, features)

    return read_json(path, parse)


def save_loss_curve(curve: list[tuple[int, float, float, float]], path: str | Path) -> None:
    write_csv(["iter", "seg", "con", "total"], curve, path)
