import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import mask_bbox

from trackfuse.errors import SchemaError
from trackfuse.rle import (
    RleMask, iou_table, mask_area, mask_iou, pack_views, packed_iou, rle_decode, rle_decode_many, rle_encode,
)


def grid(rows):
    return np.asarray(rows, dtype=bool)


class TestEncode:
    def test_all_background(self):
        assert rle_encode(grid([[0, 0], [0, 0]])).counts == (4,)

    def test_all_foreground(self):
        assert rle_encode(grid([[1, 1], [1, 1]])).counts == (0, 4)

    def test_alternating_runs(self):
        assert rle_encode(grid([[0, 1, 1, 0]])).counts == (1, 2, 1)

    def test_ragged_grid_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            rle_encode([[False, True], [False]])

    def test_empty_grid_rejected(self):
        with pytest.raises(SchemaError):
            rle_encode([])


class TestDecode:
    def test_all_background(self):
        assert not rle_decode(RleMask(2, 2, (4,))).any()

    def test_all_foreground(self):
        assert rle_decode(RleMask(2, 2, (0, 4))).all()

    def test_sum_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="sum to"):
            RleMask(2, 2, (1, 2))

    def test_internal_zero_rejected(self):
        with pytest.raises(SchemaError, match="leading"):
            RleMask(1, 4, (1, 0, 3))

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"h": 2, "w": 2, "counts": [1.9, 3.2]}, "mask counts must be integers, got 1.9"),
            ({"h": 2, "w": 2, "counts": [1, 3.0]}, "mask counts must be integers, got 3.0"),
            ({"h": 2, "w": 2, "counts": [True, 3]}, "mask counts must be integers, got True"),
            ({"h": 2.7, "w": 2, "counts": [4]}, "mask h must be an integer, got 2.7"),
            ({"h": 2, "w": True, "counts": [2]}, "mask w must be an integer, got True"),
            ({"h": "2", "w": 2, "counts": [4]}, "mask h must be an integer, got '2'"),
        ],
    )
    def test_non_integer_fields_refused(self, obj, message):
        with pytest.raises(SchemaError, match=message):
            RleMask.from_json(obj)

    def test_negative_run_rejected(self):
        with pytest.raises(SchemaError, match="nonnegative"):
            RleMask(1, 4, (5, -1))

    def test_roundtrip_random_64(self):
        rng = np.random.default_rng(0)
        g = rng.random((64, 64)) < 0.4
        assert np.array_equal(rle_decode(rle_encode(g)), g)


class TestArea:
    def test_empty(self):
        assert mask_area(rle_encode(grid([[0, 0], [0, 0]]))) == 0

    def test_full(self):
        assert mask_area(rle_encode(grid([[1, 1], [1, 1]]))) == 4

    def test_partial(self):
        assert mask_area(RleMask(1, 4, (1, 2, 1))) == 2


class TestBbox:
    def test_empty_mask(self):
        assert mask_bbox(rle_encode(grid([[0, 0], [0, 0]]))) is None

    def test_tight_box(self):
        g = np.zeros((5, 6), dtype=bool)
        g[1:4, 2:5] = True
        assert mask_bbox(rle_encode(g)) == (1, 2, 3, 4)


class TestIou:
    def test_identical(self):
        m = rle_encode(grid([[1, 0], [0, 1]]))
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = rle_encode(grid([[1, 0], [0, 0]]))
        b = rle_encode(grid([[0, 0], [0, 1]]))
        assert mask_iou(a, b) == 0.0

    def test_one_third(self):
        a = rle_encode(grid([[0, 1, 1, 0]]))
        b = rle_encode(grid([[0, 0, 1, 1]]))
        assert mask_iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty_is_one(self):
        a = rle_encode(grid([[0, 0]]))
        assert mask_iou(a, a) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(SchemaError, match="differ"):
            mask_iou(rle_encode(grid([[0, 0]])), rle_encode(grid([[0], [0]])))


bool_grids = st.integers(1, 24).flatmap(
    lambda h: st.integers(1, 24).flatmap(
        lambda w: st.lists(
            st.lists(st.booleans(), min_size=w, max_size=w), min_size=h, max_size=h
        )
    )
)


@given(bool_grids)
@settings(max_examples=200, deadline=None)
def test_roundtrip_identity(rows):
    g = grid(rows)
    assert np.array_equal(rle_decode(rle_encode(g)), g)


@given(bool_grids)
@settings(max_examples=100, deadline=None)
def test_area_matches_decode(rows):
    m = rle_encode(grid(rows))
    assert mask_area(m) == int(np.count_nonzero(rle_decode(m)))


@given(bool_grids, st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_iou_symmetric_and_bounded(rows, seed):
    g = grid(rows)
    other = np.random.default_rng(seed).random(g.shape) < 0.5
    a, b = rle_encode(g), rle_encode(other)
    assert mask_iou(a, b) == mask_iou(b, a)
    assert 0.0 <= mask_iou(a, b) <= 1.0
    if g.any():
        assert mask_iou(a, a) == 1.0


def mask_lists(shapes):
    """Lists of up to 5 masks, each of a shape drawn from ``shapes``."""
    mask = st.sampled_from(shapes).flatmap(
        lambda hw: st.one_of(
            st.lists(st.lists(st.booleans(), min_size=hw[1], max_size=hw[1]), min_size=hw[0], max_size=hw[0]),
            st.sampled_from([False, True]).map(lambda v: [[v] * hw[1]] * hw[0]),
        )
    )
    return st.lists(mask.map(lambda rows: rle_encode(grid(rows))), max_size=5)


# (h, w) and two lists of h x w masks; sizes 1 to 12 leave 0 to 7 padding bits in a packed row
same_size_pairs = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda hw: st.tuples(st.just(hw), mask_lists([hw]), mask_lists([hw]))
)


def pack(masks, h, w):
    """The bit-packed rows of ``masks``, all h x w (``pack_views`` of one view)."""
    return pack_views([masks], RleMask(h, w, (h * w,))).rows


@given(same_size_pairs)
@settings(max_examples=200, deadline=None)
def test_iou_table_is_mask_iou_bit_for_bit(pair):
    (h, w), a, b = pair
    table = iou_table(pack(a, h, w), pack(b, h, w))
    assert table.shape == (len(a), len(b))
    assert table.dtype == np.float64
    for i in range(len(a)):
        for j in range(len(b)):
            assert float(table[i, j]).hex() == mask_iou(a[i], b[j]).hex()


@given(same_size_pairs)
@settings(max_examples=100, deadline=None)
def test_packed_iou_of_row_pairs_is_the_table_diagonal(pair):
    (h, w), a, b = pair
    n = min(len(a), len(b))
    rows_a, rows_b = pack(a[:n], h, w), pack(b[:n], h, w)
    assert packed_iou(rows_a, rows_b).tolist() == np.diag(iou_table(rows_a, rows_b)).tolist()


class TestPackViews:
    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda hw: st.lists(mask_lists([hw]), max_size=4).map(lambda views: (hw, views))))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_the_packed_decode_of_each_view_in_turn(self, case):
        (h, w), views = case
        packed = pack_views(views, RleMask(h, w, (h * w,)))
        masks = [m for view in views for m in view]
        assert packed.rows.shape == (len(masks), -(-h * w // 8)) and packed.rows.dtype == np.uint8
        assert packed.first.tolist() == np.cumsum([0, *map(len, views)]).tolist()
        for row, mask in zip(packed.rows, masks):
            assert row.tobytes() == np.packbits(rle_decode(mask).ravel()).tobytes()
        assert packed.area.tolist() == [mask_area(m) for m in masks]
        for view, masks_of_view in enumerate(views):
            assert packed.view(view).tobytes() == pack(masks_of_view, h, w).tobytes()
        assert not any(arr.flags.writeable for arr in packed[:3])

    @given(st.lists(mask_lists([(2, 3), (3, 2)]), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_a_mask_of_another_size_names_both_sizes(self, views):
        if all((m.height, m.width) == (2, 3) for view in views for m in view):
            assert len(pack_views(views, RleMask(2, 3, (6,))).rows) == sum(map(len, views))
            return
        with pytest.raises(SchemaError) as raised:
            pack_views(views, RleMask(2, 3, (6,)))
        assert str(raised.value) in ("mask dimensions differ: 3x2 vs 2x3", "mask dimensions differ: 2x3 vs 3x2")


class TestIouTable:
    def test_empty_sides(self):
        rows = pack([rle_encode(grid([[1, 0]])), rle_encode(grid([[0, 0]]))], 1, 2)
        assert iou_table(rows[:0], rows).shape == (0, 2)
        assert iou_table(rows, rows[:0]).shape == (2, 0)
        assert iou_table(rows[:0], rows[:0]).shape == (0, 0)


def batches(h, w):
    """Up to 6 masks of one size: random grids, all background, all foreground, and grids whose
    first pixel is foreground, so that their counts open with the empty background run 0."""
    shaped = hnp.arrays(np.bool_, (h, w))
    leading = shaped.map(lambda g: np.concatenate([[True], g.ravel()[1:]]).reshape(h, w))
    constant = st.booleans().map(lambda v: np.full((h, w), v))
    return st.lists(st.one_of(shaped, leading, constant).map(rle_encode), max_size=6)


def random_masks(h, w, n, seed):
    grids = np.random.default_rng(seed).random((n, h, w)) < 0.4
    grids[0, 0, 0] = True
    return [rle_encode(g) for g in grids]


class TestDecodeMany:
    @given(st.tuples(st.integers(1, 50), st.integers(1, 50)).flatmap(lambda hw: batches(*hw)))
    @example(random_masks(33, 47, 4, 0))
    @example(random_masks(33, 47, 1, 1))
    @example([RleMask(33, 47, (33 * 47,)), RleMask(33, 47, (0, 33 * 47)), RleMask(33, 47, (0, 1, 33 * 47 - 1))])
    @settings(max_examples=200, deadline=None)
    def test_is_rle_decode_bit_for_bit(self, masks):
        block = rle_decode_many(masks)
        assert block.dtype == bool
        assert block.shape == ((len(masks), masks[0].height * masks[0].width) if masks else (0, 0))
        for row, mask in zip(block, masks):
            assert row.tobytes() == rle_decode(mask).ravel().tobytes()

    @given(mask_lists([(2, 3), (3, 2), (6, 1)]))
    @settings(max_examples=100, deadline=None)
    def test_mixed_sizes_raise_the_first_mismatch(self, masks):
        mismatched = [m for m in masks if (m.height, m.width) != (masks[0].height, masks[0].width)]
        if not mismatched:
            assert rle_decode_many(masks).shape[0] == len(masks)
            return
        first = mismatched[0]
        message = f"mask dimensions differ: {masks[0].height}x{masks[0].width} vs {first.height}x{first.width}"
        with pytest.raises(SchemaError) as raised:
            rle_decode_many(masks)
        assert str(raised.value) == message
