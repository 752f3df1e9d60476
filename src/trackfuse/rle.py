"""Run-length encoded binary masks: encode/decode, area, and the bit-packed rows every stage
reads (``pack_views``), each mask decoded once, with their one IoU kernel (``packed_iou``). The
per-pair reference ``mask_iou``, which decodes both masks, is in ``tests/oracles.py``.

Runs are row-major (left to right, top to bottom) and alternate
background/foreground, starting with background. The leading background
run may be 0; no other run may be 0. All operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import SchemaError


@dataclass(frozen=True)
class RleMask:
    """A binary mask of shape (height, width) stored as run lengths."""

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise SchemaError(f"mask dimensions must be positive, got {self.height}x{self.width}")
        if not self.counts:
            raise SchemaError("mask counts must be non-empty")
        if min(self.counts) < 0:
            raise SchemaError(f"mask counts must be nonnegative, got {self.counts}")
        if 0 in self.counts[1:]:
            raise SchemaError("only the leading background run may be 0")
        total = sum(self.counts)
        if total != self.height * self.width:
            raise SchemaError(
                f"run lengths sum to {total}, expected {self.height * self.width} "
                f"for a {self.height}x{self.width} mask"
            )

    def to_json(self) -> dict:
        return {"h": self.height, "w": self.width, "counts": list(self.counts)}

    @classmethod
    def from_json(cls, obj: dict) -> "RleMask":
        counts = tuple(obj["counts"])
        if not set(map(type, counts)) <= {int}:
            bad = next(c for c in counts if type(c) is not int)
            raise SchemaError(f"mask counts must be integers, got {bad!r}")
        return cls(json_int(obj["h"], "mask h"), json_int(obj["w"], "mask w"), counts)


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, bool or string is refused, not truncated."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def json_float(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number; a bool or string is refused, not converted."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def json_floats(values: list, what: str) -> list[float]:
    """``json_float`` of each of ``values``: one set of types and one ``isfinite`` pass check them
    all, and only a list that fails goes value by value, to raise for the first bad one."""
    if {type(v) for v in values} <= {int, float} and all(map(math.isfinite, values)):
        return list(map(float, values))
    return [json_float(v, what) for v in values]


def json_str(value, what: str) -> str:
    """``value`` if it is a non-empty JSON string; a number is refused, not converted."""
    if type(value) is not str or not value:
        raise SchemaError(f"{what} must be a non-empty string, got {value!r}")
    return value


def json_bool(value, what: str) -> bool:
    """``value`` if it is a JSON boolean; a string or number is refused, not tested for truth."""
    if type(value) is not bool:
        raise SchemaError(f"{what} must be true or false, got {value!r}")
    return value


def rle_encode(bitmap) -> RleMask:
    """Encode a row-major boolean grid. Raises SchemaError on ragged input."""
    if isinstance(bitmap, np.ndarray):
        grid = bitmap.astype(bool)
        if grid.ndim != 2 or grid.size == 0:
            raise SchemaError(f"expected a non-empty 2-D grid, got shape {grid.shape}")
    else:
        rows = list(bitmap)
        if not rows or not rows[0]:
            raise SchemaError("expected a non-empty 2-D grid")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise SchemaError("ragged grid: all rows must have equal length")
        grid = np.asarray(rows, dtype=bool)

    flat = grid.ravel()
    boundaries = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    edges = np.concatenate(([0], boundaries, [flat.size]))
    counts = np.diff(edges).tolist()
    if flat[0]:
        counts = [0] + counts
    return RleMask(grid.shape[0], grid.shape[1], tuple(int(c) for c in counts))


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode to a boolean array of shape (height, width)."""
    values = np.arange(len(mask.counts)) % 2 == 1
    flat = np.repeat(values, np.asarray(mask.counts, dtype=np.int64))
    return flat.reshape(mask.height, mask.width)


def rle_decode_many(masks: Sequence[RleMask]) -> np.ndarray:
    """Decode masks of one size to an (n, height*width) boolean block, row i bit-equal to
    ``rle_decode(masks[i]).ravel()``; no masks give a (0, 0) block.

    All runs go through one ``np.repeat``: a mask with an odd number of runs
    gets a closing run of length 0, so that every mask's runs start at an even
    position and alternate background/foreground from there. A mask of another
    size than the first raises ``check_same_size``'s SchemaError for the first such mask.
    """
    if not masks:
        return np.zeros((0, 0), dtype=bool)
    first = masks[0]
    if len({(mask.height, mask.width) for mask in masks}) > 1:
        for mask in masks:
            check_same_size(first, mask)
    runs = []
    for mask in masks:
        runs.append(mask.counts)
        if len(mask.counts) % 2:
            runs.append((0,))  # a constant: no tuple is built per mask
    counts = np.fromiter(chain.from_iterable(runs), dtype=np.int64)
    values = np.zeros(counts.size, dtype=bool)
    values[1::2] = True
    return np.repeat(values, counts).reshape(len(masks), first.height * first.width)


def mask_area(mask: RleMask) -> int:
    """Number of foreground pixels (the odd-indexed runs)."""
    return int(sum(mask.counts[1::2]))


def check_same_size(a, b) -> None:
    """Refuse two masks, or a mask and what holds masks (a dataset), of different height x width."""
    if (a.height, a.width) != (b.height, b.width):
        raise SchemaError(
            f"mask dimensions differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )


def pack_views(views: Sequence[Sequence[RleMask]], size) -> np.ndarray:
    """The masks of each view in turn, each of ``size`` (anything with a height and a width), as one
    read-only (n, ceil(h*w / 8)) uint8 block of bit-packed rows (``np.packbits``: eight pixels a
    byte, row-major, the last byte of a row zero-padded). A view is decoded in one block
    (``rle_decode_many``) and packed before the next, so no more than one view's booleans are held
    at once. A view whose first mask is not of ``size`` raises ``mask dimensions differ: <mask> vs
    <size>``; one of two sizes, ``rle_decode_many``'s.
    """
    rows = np.empty((sum(map(len, views)), -(-size.height * size.width // 8)), dtype=np.uint8)
    start = 0
    for masks in views:
        if masks:
            check_same_size(masks[0], size)
            rows[start : start + len(masks)] = np.packbits(rle_decode_many(masks), axis=1)
        start += len(masks)
    rows.flags.writeable = False
    return rows


def packed_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask IoU of bit-packed rows of one size (``pack_views``), pair by pair along the last axis,
    ``a`` and ``b`` broadcast against each other; bit-equal to ``mask_iou`` (``tests/oracles.py``)
    of each pair.

    Intersections and unions are ``np.bitwise_count`` of the rows' AND and OR, summed: exact
    integers, and each cell divides the same two as ``mask_iou``, as a float only then. No BLAS
    and no float takes part before that division. The zero bits that pad a row's last byte are
    set in neither row, so they add to neither count; an empty union gives 1.0.
    """
    # uint32 counts every pixel of a grid below 2**32 pixels exactly
    inter = np.bitwise_count(a & b).sum(axis=-1, dtype=np.uint32)
    union = np.bitwise_count(a | b).sum(axis=-1, dtype=np.uint32)
    return np.where(union == 0, 1.0, inter / np.maximum(union, 1))


def iou_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) table of ``packed_iou`` of each row of ``a`` with each row of ``b``."""
    return packed_iou(a[:, None], b[None])
