"""Toy language-grounded Gaussian referring field.

Geometry is fixed: one (n_gaussians, n_views, 2) array holds each Gaussian's
2-D center per view, NaN where it is not visible, and the Gaussians share an
isotropic spread; only the features are learned, one (n_gaussians, dim)
matrix on the field. A query renders to a probability grid through

    prob(p) = sigmoid( sum_g w_g(p) * (feature_g . query) ),
    w_g(p)  = exp(-|p - center_g|^2 / (2 s^2)),  truncated to 0 beyond 3 s.

Training minimizes  L = L_seg + lam * rho(t) * L_con: L_seg is the mean
binary cross-entropy of the rendered grids of a track's positives against
its consensus pseudo mask (one render product, one ``seg_loss`` pass), L_con
a multi-positive softmax contrastive loss over the view's description pool,
and rho(t) a stepwise decay of the contrastive weight; all gradients are
analytic. ``train`` builds its plan once, as indices into one table of text
vectors and bit-packed pseudo masks, so that an epoch only gathers, renders,
takes the losses and updates the feature matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import ConsensusRecord
from .errors import NumericError, SchemaError
from .records import DescriptionSet, SceneDataset, as_vector, parse_json, read_kept, write_csv, write_json_kept
from .rle import json_float, json_floats, json_int
from .synth import GroundTruth

BCE_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the largest double whose square is finite; a spread is refused if its cutoff 3 s is above it,
# since the squared cutoff is taken with Python's float **, which raises rather than giving inf
MAX_CUTOFF = math.sqrt(sys.float_info.max)


@dataclass
class ToyReferringField:
    height: int
    width: int
    spread: float
    gaussians: np.ndarray  # (n_gaussians, n_views, 2) centers (x, y); NaN rows mean not visible
    features: np.ndarray  # (n_gaussians, dim), row g is Gaussian g's feature

    def __post_init__(self) -> None:
        if not 0 < self.spread < math.inf:
            raise ValueError(f"spread must be positive and finite, got {self.spread}")
        if not 3.0 * self.spread <= MAX_CUTOFF:
            raise ValueError(
                f"spread must be at most {MAX_CUTOFF / 3:.3g}, so that (3 * spread) ** 2 is finite, got {self.spread}"
            )
        if not 2.0 * self.spread**2 > 0:  # the weights' denominator (below about 1.6e-162)
            raise ValueError(f"spread is too small: 2 * spread ** 2 underflows to 0, got {self.spread}")
        self.gaussians = np.asarray(self.gaussians, dtype=float)
        centers, features = self.gaussians.shape, np.shape(self.features)
        if len(centers) != 3 or centers[2] != 2 or len(features) != 2 or centers[0] != features[0]:
            raise SchemaError(f"centers {centers} and features {features} are not (n_gaussians, n_views, 2) "
                              "and (n_gaussians, dim)")
        # one (n_gaussians, h*w) buffer holds the weights of the last view asked for;
        # it is non-zero only inside the windows listed in _filled
        self._buffer: np.ndarray | None = None
        self._buffer_view: int | None = None
        self._filled: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (gaussians, tops, lefts)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def weights(self, view: int) -> np.ndarray:
        """(n_gaussians, h*w) spatial weights for one view, as a read-only array.

        The field keeps one buffer: a call for another view zeroes the windows
        of the last view and fills this view's, and a repeated call for the
        same view does no work. The returned array is therefore valid only
        until ``weights`` is called for another view; copy it to keep it.

        Every Gaussian gets a window of the same size per axis, min(side,
        floor(6 s) + 2), placed at its first row and column whose own squared
        offset from the center is within the cutoff (3 s)^2, and moved back
        into the view where it would cross the far edge. Those rows and
        columns form one run no longer than floor(6 s) + 1, even with the
        offsets rounded, so the window covers it; any other pixel of the
        window has d^2 > (3 s)^2 and is written as 0, the weight a full-grid
        evaluation gives it. Training visits the views in order and eval renders
        each view once, so each view is filled once per epoch or per eval.
        """
        if view != self._buffer_view:
            if self._buffer is None:
                self._buffer = np.zeros((len(self.gaussians), self.height * self.width))
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
        blocks under 1/8 of the buffer, and at least one.

        There is no loop over Gaussians. One broadcast add of each window's slices of dx^2 and
        dy^2 gives d^2, one divide by -(2 s^2) and one exp give the weights in d^2's block, and
        the pixels past the cutoff are set to 0; advanced indexing of the window view writes the
        chunk's windows, as it zeroed the last view's."""
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
        centers = self.gaussians[:, view]
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
            # exp(-d2 / (2 s^2)), one operation at a time in d2's block; d2 / -denom is
            # (-d2) / denom bit for bit, since negation is exact
            np.divide(d2, -denom, out=d2)
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
    allocates nothing of the grid's size. ``-z`` costs no pass over the grid:
    the render is of the negated query, and since negation is exact, every
    product and sum of both BLAS products is negated with it, so the grid
    is ``-z`` bit for bit but for the sign of a zero, where ``exp`` gives 1
    either way.
    """
    probs = render_logits(field_, view, np.negative(query), out=out)
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

    The band is almost always empty, and two counts show it: every logit
    >= 1e-15 is also > 0, so the band is empty exactly when both counts are
    equal. Only a band that holds some logit is gathered and fixed up.
    """
    out = logits > 0.0
    if np.count_nonzero(out) != np.count_nonzero(logits >= 1e-15):
        band = out & (logits < 1e-15)
        out[band] = 1.0 / (1.0 + np.exp(-logits[band])) > 0.5
    return out


def _select_inside(field_: ToyReferringField, view: int, packed: np.ndarray) -> list[np.ndarray]:
    """Choose the Gaussians of each of a view's pseudo masks, given as field-sized bit-packed rows
    (``np.packbits``): the ids, as an intp array, whose center at the view rounds to a pixel set
    in the mask, read from its bit without unpacking the row."""
    # np.rint rounds half to even like round(); NaN and inf fail the bounds
    col, row = np.rint(field_.gaussians[:, view]).T
    gids = np.flatnonzero((0 <= row) & (row < field_.height) & (0 <= col) & (col < field_.width))
    pixels = row[gids].astype(int) * field_.width + col[gids].astype(int)
    # np.packbits puts pixel p in bit 7 - p % 8 of byte p // 8
    inside = (packed[:, pixels // 8] >> (7 - pixels % 8).astype(np.uint8) & 1).astype(bool)
    chosen = [gids[row] for row in inside]
    if not all(ids.size for ids in chosen):
        raise NumericError(f"no Gaussian center inside the pseudo mask at view {view}")
    return chosen


def _contrastive(
    anchor: np.ndarray, positives: np.ndarray, pool: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Multi-positive softmax loss and its gradient with respect to anchor, for positives that are
    rows of the pool by construction (``contrastive_loss`` in ``tests/oracles.py`` checks that first):
    loss = -(1/|P|) sum_p log( exp(anchor.p / tau) / sum_d exp(anchor.d / tau) )."""
    n_pos = positives.shape[0]
    logits = pool @ anchor / tau
    # each reduction is the ufunc's own, which np.max, np.sum and np.mean call; a mean is that
    # sum divided by the count, as np.mean divides it
    m = float(np.maximum.reduce(logits))
    lse = m + math.log(float(np.add.reduce(np.exp(logits - m))))
    pos_logits = positives @ anchor / tau
    loss = float(lse - np.add.reduce(pos_logits) / n_pos)

    softmax = np.exp(logits - lse)
    grad = (softmax @ pool - np.add.reduce(positives, axis=0) / n_pos) / tau
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
    (2, *probs.shape) or reshaped to it without a copy; the second holds the
    log terms and then the gradient, which the returned gradient views. A
    training loop passes the same one each step, so that no block of the
    stack's size is allocated per call.

    A stack whose every probability lies within the clamp, as a trained
    field's almost always do, takes a path on which the clamp changes no
    value: one min and one max reduction show it (NaN fails both bounds, and
    an empty stack takes the other path). There ``where(y, p, 1 - p)`` is
    ``|(1 - y) - p|``, with ``1 - y`` in the first pixels of the first block:
    ``0 - p`` is ``-p`` exactly and ``1 - p`` is positive, so the log terms,
    and the gradient with nothing to zero, are the clamped path's bit for bit.
    Otherwise the first block holds the clamped probabilities and then, once
    the log terms are taken, the two boolean masks of the clamp, a byte a pixel.
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(target, dtype=bool)
    if y.ndim != 2 or probs.ndim not in (2, 3) or probs.shape[-2:] != y.shape:
        raise SchemaError(f"shape mismatch: probs {probs.shape} vs target {y.shape}")
    p, buf = np.empty((2, *probs.shape)) if out is None else out.reshape((2, *probs.shape))
    clamped = not (
        probs.size
        and np.minimum.reduce(probs, axis=None) >= BCE_EPS
        and np.maximum.reduce(probs, axis=None) <= 1.0 - BCE_EPS
    )
    # -log(where(y, p, 1 - p)); the terms are summed before negating, which rounds the
    # same, since negation is exact
    if clamped:  # built as 1 - p with p copied in where y
        np.clip(probs, BCE_EPS, 1.0 - BCE_EPS, out=p)
        np.subtract(1.0, p, out=buf)
        np.copyto(buf, p, where=y)
    else:
        flip = np.subtract(1.0, y, out=p if p.ndim == 2 else p[0])
        np.abs(np.subtract(flip, probs, out=buf), out=buf)
    np.log(buf, out=buf)
    # np.mean's sum and division, without its wrapper
    loss = -(np.add.reduce(buf, axis=(-2, -1)) / y.size)
    # (probs - y) / N with y as 0.0 and 1.0, zeroed where clamped flat; the clamped
    # probabilities are spent, so their block holds the two masks of the clamp
    grad = np.subtract(probs, y, out=buf)
    grad /= y.size
    if clamped:
        low, high = p.reshape(-1).view(bool)[: 2 * probs.size].reshape((2, *probs.shape))
        np.less(probs, BCE_EPS, out=low)
        np.greater(probs, 1.0 - BCE_EPS, out=high)
        np.logical_or(low, high, out=low)
        np.copyto(grad, 0.0, where=low)
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
    grad = (field_.weights(view) @ g_logits.reshape(n_pos, -1).T) @ positives
    grad /= n_pos
    return seg_mean, grad


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

    Every block a step writes is allocated once per call: the render and
    ``seg_loss``'s two blocks, of the largest positive set, and the
    gradient and Adam buffers of the feature matrix; only one view's pseudo
    masks are unpacked at a time. The sigmoid, the clamped cross-entropy,
    its gradient and the Adam update are taken in place with the same
    floating-point operations as their one-expression forms, so the model
    and the loss curve are those of ``tests/oracles.py``'s ``oracle_train``
    byte for byte.
    """
    desc_by_track = {d.track_id: d for d in descriptions}
    for d in descriptions if not include_category else ():
        if not d.referrals:
            raise ValueError(f"track {d.track_id} has no referrals: positive set would be empty")
    views = cfg.views if cfg.views is not None else tuple(range(ds.n_views))
    for view in views:
        if not 0 <= view < ds.n_views:
            raise ValueError(f"view {view} is not a view of the dataset, which has {ds.n_views} views")

    # the geometry and the pseudo masks are fixed, so the plan is built once, as indices:
    # - keys maps each (track, text) key to its row of one table, which holds its first vector;
    # - per view, pool_rows lists the table rows of the view's pool, in first-seen order;
    # - per visible track, its positives' rows in that pool (a repeated key reuses its row, so
    #   they are a subset of the pool by construction) and its chosen Gaussians;
    # - per view, its pseudo masks, as rows of the dataset's bit-packed block (``ds.packed``), a
    #   row per track, from which the Gaussians are chosen.
    # The plan is view-major, so each epoch fills each view's weights, gathers its pool and
    # unpacks its masks once.
    h, w = field_.height, field_.width
    if (ds.height, ds.width) != (h, w):
        raise SchemaError(f"pseudo mask is {ds.height}x{ds.width}, field is {h}x{w}")
    records = sorted(records, key=lambda r: r.track_id)
    # each record's member in a view; a record's member views strictly increase
    members = [dict(rec.members) for rec in records]
    keys: dict[tuple[int, str], tuple[int, np.ndarray]] = {}  # key -> (table row, vector)
    plan = []
    for view in views:
        pool: dict[int, int] = {}  # table row -> pool row
        positive_rows, det_rows = [], []
        for rec, member in zip(records, members):
            index = member.get(view)
            desc = desc_by_track.get(rec.track_id)
            if index is None or desc is None:
                continue
            category = [(desc.category, ds.embedding(desc.category))] if include_category else []
            texts = [*category, *desc.referrals]
            table_rows = [keys.setdefault((rec.track_id, text), (len(keys), vec))[0] for text, vec in texts]
            positive_rows.append(np.array([pool.setdefault(row, len(pool)) for row in table_rows], dtype=np.intp))
            det_rows.append(ds.first[view] + index)
        if det_rows:
            entries = list(zip(positive_rows, _select_inside(field_, view, ds.packed[det_rows])))
            plan.append((view, np.array(list(pool), dtype=np.intp), det_rows, entries))
    table = np.stack([vec for _, vec in keys.values()]) if keys else None

    # one render block and two seg_loss blocks of the largest positive set, for every step
    n_rows = max((rows.size for *_, entries in plan for rows, _ in entries), default=0)
    buffers = np.empty((3, n_rows, h * w))
    # the features and the Adam moments are updated in place, each product and sum
    # rounded as in m = b1 * m + (1 - b1) * g and its kin; the caller's array is kept.
    # grads_con is zero but for the rows a step writes, which it zeroes again after use.
    features = field_.features = field_.features.astype(float)
    m, v, step, denom, grads_con, step_grad = (np.zeros_like(features) for _ in range(6))
    curve: list[tuple[int, float, float, float]] = []
    iteration = 0

    for _ in range(cfg.epochs):
        for view, pool_rows, det_rows, entries in plan:
            pool = table[pool_rows]
            targets = np.unpackbits(ds.packed[det_rows], axis=1, count=h * w).view(bool).reshape(-1, h, w)
            for (rows, chosen), target in zip(entries, targets):
                positives = pool[rows]
                # np.mean's sum and division, without its wrapper
                anchor = np.add.reduce(features[chosen], axis=0) / chosen.size
                con, g_con = _contrastive(anchor, positives, pool, cfg.tau)
                grads_con[chosen] += g_con / chosen.size
                seg_mean, grads_seg = seg_step(field_, view, positives, target, buffers)

                weight = cfg.lam * cfg.ratio(iteration)
                step_loss = seg_mean + weight * con
                if not math.isfinite(step_loss):
                    raise NumericError(f"non-finite loss at iteration {iteration}")
                # grads_seg + weight * grads_con
                np.add(grads_seg, np.multiply(grads_con, weight, out=step_grad), out=step_grad)
                grads_con[chosen] = 0.0

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
# the cloud of a run that does not set train.spread or train.gaussians_per_object
DEFAULT_SPREAD = 8.0
DEFAULT_GAUSSIANS_PER_OBJECT = 5


def field_from_ground_truth(
    gt: GroundTruth,
    n_views: int,
    height: int,
    width: int,
    dim: int = 32,
    spread: float = DEFAULT_SPREAD,
    per_object: int = DEFAULT_GAUSSIANS_PER_OBJECT,
) -> ToyReferringField:
    """Fixed geometry from the true object motion: a cloud of ``per_object`` Gaussians per object."""
    if not 1 <= per_object <= len(OFFSETS):
        raise ValueError(f"gaussians_per_object must be in [1, {len(OFFSETS)}], got {per_object!r}")
    centers = np.full((len(gt.objects), per_object, n_views, 2), np.nan)
    offsets = np.array(OFFSETS[:per_object])[:, None]  # (per_object, 1, 2)
    for obj, cloud in zip(gt.objects, centers):
        seen = [view for view, visible in enumerate(obj.visible[:n_views]) if visible]
        cloud[:, seen] = np.array(obj.centers, dtype=float)[seen] + offsets * obj.radii
    centers = centers.reshape(len(gt.objects) * per_object, n_views, 2)
    return ToyReferringField(height, width, spread, centers, np.zeros((len(centers), dim)))


def save_field(field_: ToyReferringField, path: str | Path, ds: SceneDataset) -> None:
    """Write a field file, one ``{"centers", "feature"}`` record per Gaussian, in row order, and
    keep what ``load_field(path, ds)`` reads back (``write_kept``)."""
    obj = {
        "h": field_.height,
        "w": field_.width,
        "spread": field_.spread,
        "dim": field_.dim,
        "gaussians": [
            {"centers": _json_centers(centers), "feature": feature.tolist()}
            for centers, feature in zip(field_.gaussians, field_.features)
        ],
    }
    write_json_kept("field", obj, path, ds.key, _field_step(ds))


def _json_centers(centers: np.ndarray) -> list:
    """Each (x, y) row of a Gaussian's float centers as a list, or None where it is not finite (not visible)."""
    visible = np.isfinite(centers).all(axis=1).tolist()
    return [row if seen else None for row, seen in zip(centers.tolist(), visible)]


def load_field(path: str | Path, ds: SceneDataset) -> ToyReferringField:
    """Read a field file against ``ds``: the field must have the dataset's view size and the
    embeddings' ``dim``, every Gaussian one center entry per view, each null or two finite numbers,
    and every feature must be finite and of length ``dim``.
    A Gaussian's ``id`` and ``track``, which older files carry, are not read; a Gaussian is named
    by its position.

    The parse is kept (``read_kept``), its centers and features read-only. Each call returns a new
    field around those arrays, so that training it (which takes a copy of the features) or binding
    its attributes never reaches the kept value.
    """
    step = _field_step(ds)
    parsed, _ = read_kept("field", path, ds.key, lambda text: parse_json(str(path), text, step))
    return ToyReferringField(parsed.height, parsed.width, parsed.spread, parsed.gaussians, parsed.features)


def _field_step(ds: SceneDataset):
    """The parse of a field file's JSON value, read against ``ds``: a field whose arrays are read-only."""

    def parse(obj: dict) -> ToyReferringField:
        height, width, dim = (json_int(obj[key], key) for key in ("h", "w", "dim"))
        if (height, width) != (ds.height, ds.width):
            raise SchemaError(f"field is {height}x{width}, the dataset's views are {ds.height}x{ds.width}")
        if dim != ds.dim:
            raise SchemaError(f"field dim is {dim}, the dataset's embeddings have dim {ds.dim}")
        gaussians = obj["gaussians"]
        centers, features = [], []
        for gid, g in enumerate(gaussians):
            if len(g["centers"]) != ds.n_views:
                raise SchemaError(f"gaussian {gid}: {len(g['centers'])} centers, the dataset has {ds.n_views} views")
            for view, c in enumerate(g["centers"]):
                if c is not None and len(c) != 2:
                    raise SchemaError(f"gaussian {gid}: view {view} center must be null or 2 numbers, got {c!r}")
            json_floats([v for c in g["centers"] if c is not None for v in c], f"gaussian {gid}: center")
            centers.append([[np.nan, np.nan] if c is None else c for c in g["centers"]])
            features.append(as_vector(g["feature"], dim, f"gaussian {gid}: feature"))
        centers = np.array(centers, dtype=float).reshape(len(gaussians), ds.n_views, 2)
        features = np.array(features).reshape(len(gaussians), dim)
        for array in (centers, features):
            array.flags.writeable = False
        return ToyReferringField(height, width, json_float(obj["spread"], "spread"), centers, features)

    return parse


def save_loss_curve(curve: list[tuple[int, float, float, float]], path: str | Path) -> None:
    write_csv(["iter", "seg", "con", "total"], curve, path)
