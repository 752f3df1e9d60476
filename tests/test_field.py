import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    grad_check,
    oracle_field_json,
    oracle_render_logits,
    oracle_seg_loss,
    oracle_seg_step,
    oracle_select_inside,
    oracle_train,
    oracle_view_batch,
    oracle_weights,
    render_grids,
    smallest_accepted,
)

import trackfuse as tf
import trackfuse.field as field_module
from trackfuse.errors import NumericError, SchemaError
from trackfuse.field import (
    BCE_EPS,
    ToyReferringField,
    binarize_logits,
    contrastive_loss,
    field_from_ground_truth,
    load_field,
    render_logits,
    render_mask,
    save_field,
    seg_loss,
    seg_step,
    select_gaussians,
)
from trackfuse.keyframes import run_keyframes
from trackfuse.records import DescriptionSet, dumps
from trackfuse.rle import rle_decode, rle_encode


def make_field(features, centers, h=16, w=16, spread=3.0):
    gaussians = np.asarray(centers, dtype=float)[:, None]
    features = np.asarray(features, dtype=float)
    return ToyReferringField(height=h, width=w, spread=spread, gaussians=gaussians, features=features)


def disk_mask(h, w, cx, cy, r):
    ys, xs = np.mgrid[0:h, 0:w]
    return rle_encode((xs - cx) ** 2 + (ys - cy) ** 2 <= r * r)


class TestRender:
    def test_zero_features_give_half(self):
        field = make_field([[0.0, 0.0]], [(8.0, 8.0)])
        probs = render_mask(field, 0, np.array([1.0, 0.0]))
        assert np.all(probs == 0.5)

    def test_aligned_feature_saturates_center(self):
        q = np.array([1.0, 0.0])
        field = make_field([[10.0, 0.0]], [(8.0, 8.0)])
        probs = render_mask(field, 0, q)
        assert probs[8, 8] > 0.99

    def test_orthogonal_query_is_uniform_half(self):
        field = make_field([[5.0, 0.0], [3.0, 0.0]], [(4.0, 4.0), (10.0, 10.0)])
        probs = render_mask(field, 0, np.array([0.0, 1.0]))
        assert np.all(probs == 0.5)

    def test_truncation_beyond_three_spreads(self):
        field = make_field([[10.0, 0.0]], [(0.0, 0.0)], h=32, w=32, spread=2.0)
        probs = render_mask(field, 0, np.array([1.0, 0.0]))
        assert probs[20, 20] == 0.5  # distance > 3 spreads: weight exactly 0

    def test_centers_without_a_feature_row_each_are_refused(self):
        # three center rows against two feature rows: a render's product would fail inside numpy
        with pytest.raises(SchemaError, match=r"centers \(3, 1, 2\) and features \(2, 2\) are not"):
            ToyReferringField(16, 16, 3.0, np.full((3, 1, 2), 8.0), np.ones((2, 2)))

    def test_invisible_view_contributes_nothing(self):
        field = ToyReferringField(16, 16, 3.0, np.array([[[np.nan, np.nan]]]), np.array([[5.0, 0.0]]))
        probs = render_mask(field, 0, np.array([1.0, 0.0]))
        assert np.all(probs == 0.5)


class TestSelectGaussians:
    def test_single_inside(self):
        field = make_field([[1.0, 2.0]], [(8.0, 8.0)])
        chosen = select_gaussians(field, 0, disk_mask(16, 16, 8, 8, 3))
        anchor = field.features[chosen].mean(axis=0)
        assert chosen == [0]
        assert np.array_equal(anchor, np.array([1.0, 2.0]))

    def test_opposite_features_cancel(self):
        field = make_field([[1.0, 0.0], [-1.0, 0.0]], [(7.0, 8.0), (9.0, 8.0)])
        anchor = field.features[select_gaussians(field, 0, disk_mask(16, 16, 8, 8, 4))].mean(axis=0)
        assert np.array_equal(anchor, np.zeros(2))

    def test_mean_of_three(self):
        e = np.eye(3)
        field = make_field([e[0], e[1], e[2]], [(7.0, 8.0), (8.0, 8.0), (9.0, 8.0)])
        anchor = field.features[select_gaussians(field, 0, disk_mask(16, 16, 8, 8, 4))].mean(axis=0)
        assert np.allclose(anchor, np.full(3, 1 / 3))

    def test_empty_selection_rejected(self):
        field = make_field([[1.0, 0.0]], [(2.0, 2.0)])
        with pytest.raises(NumericError, match="no Gaussian"):
            select_gaussians(field, 0, disk_mask(16, 16, 12, 12, 2))

    def test_dimension_mismatch(self):
        field = make_field([[1.0, 0.0]], [(2.0, 2.0)])
        with pytest.raises(SchemaError):
            select_gaussians(field, 0, disk_mask(8, 8, 4, 4, 2))


class TestContrastiveLoss:
    def test_single_positive_fixture(self):
        pool = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = contrastive_loss(np.array([1.0, 0.0]), pool[:1], pool, tau=1.0)
        assert loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

    def test_symmetric_softmax_fixture(self):
        pool = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = contrastive_loss(np.array([0.3, 0.3]), pool, pool, tau=1.0)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_loss_nonnegative_when_positives_in_pool(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pool = rng.standard_normal((5, 4))
            pos = pool[: int(rng.integers(1, 5))]
            loss, _ = contrastive_loss(rng.standard_normal(4), pos, pool, 0.5)
            assert loss >= 0.0

    def test_empty_positives_rejected(self):
        pool = np.ones((2, 2))
        with pytest.raises(ValueError, match="empty"):
            contrastive_loss(np.zeros(2), np.zeros((0, 2)), pool, 1.0)

    def test_positive_outside_pool_rejected(self):
        pool = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="subset"):
            contrastive_loss(np.zeros(2), np.array([[0.0, 1.0]]), pool, 1.0)

    def test_temperature_scales_logits(self):
        # dividing tau by k multiplies all logits by k: softmax argmax unchanged
        rng = np.random.default_rng(3)
        pool = rng.standard_normal((4, 3))
        anchor = rng.standard_normal(3)
        _, g1 = contrastive_loss(anchor, pool[:1], pool, tau=1.0)
        _, g2 = contrastive_loss(anchor, pool[:1], pool, tau=0.5)
        assert not np.allclose(g1, g2)
        for tau in (0.1, 0.5, 1.0, 3.0):
            logits = pool @ anchor / tau
            softmax = np.exp(logits - logits.max())
            assert int(np.argmax(softmax)) == int(np.argmax(pool @ anchor))

    def test_equal_similarities_give_log_pool_size(self):
        # a zero summary vector makes every pool similarity equal, so the
        # loss is exactly log |D| whenever P = D
        rng = np.random.default_rng(5)
        for n in (2, 3, 7):
            pool = rng.standard_normal((n, 4))
            loss, _ = contrastive_loss(np.zeros(4), pool, pool, tau=0.3)
            assert loss == pytest.approx(math.log(n), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            pool = rng.standard_normal((6, 8))
            pos = pool[: int(rng.integers(1, 4))]
            tau = float(rng.uniform(0.1, 1.0))
            fn = lambda x: contrastive_loss(x, pos, pool, tau)
            worst = max(worst, grad_check(fn, rng.standard_normal(8)))
        assert worst < 1e-4


class TestSegLoss:
    def test_perfect_prediction_is_clamp_residual(self):
        y = np.array([[1.0, 0.0]])
        loss, _ = seg_loss(np.array([[1.0, 0.0]]), y)
        assert loss == pytest.approx(-math.log(1 - 1e-7), rel=1e-6)

    def test_uniform_halanchorives_log2(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = seg_loss(np.full((2, 2), 0.5), y)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            seg_loss(np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("h, w", [(5, 4), (96, 96), (100, 129)])
    def test_stack_equals_each_grid_bit_for_bit(self, h, w):
        rng = np.random.default_rng(h * w)
        probs = rng.random((3, h, w))
        probs[0, 0, :2] = [0.0, 1.0]  # clamped flat: zero gradient
        target = rng.random((h, w)) < 0.4
        losses, grads = seg_loss(probs, target)
        assert losses.shape == (3,) and grads.shape == probs.shape
        for row, loss, grad in zip(probs, losses.tolist(), grads):
            want_loss, want_grad = seg_loss(row, target)
            assert loss == want_loss
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("probs_shape", [(2, 3, 2), (1, 2, 2, 2), (4,)])
    def test_stack_shape_mismatch_rejected(self, probs_shape):
        with pytest.raises(SchemaError):
            seg_loss(np.full(probs_shape, 0.5), np.zeros((2, 2), dtype=bool))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            z = rng.standard_normal((5, 4)) * 2
            y = rng.uniform(size=(5, 4)) > 0.5

            def fn(zz):
                return seg_loss(1 / (1 + np.exp(-zz)), y)

            worst = max(worst, grad_check(fn, z))
        assert worst < 1e-4


class TestTotalLoss:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            tf.TrainConfig(lam=-0.1)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        A = np.diag([1.0, 2.0, 3.0])

        def fn(x):
            return 0.5 * float(x @ A @ x), A @ x

        assert grad_check(fn, np.array([0.3, -0.7, 1.1])) < 1e-8

    def test_composite_loss_through_rendering(self):
        rng = np.random.default_rng(21)
        h = w = 16
        dim, n_gauss = 6, 3
        centers = rng.uniform(5, 11, size=(n_gauss, 1, 2))
        features = np.stack([rng.standard_normal(dim) * 0.3 for _ in range(n_gauss)])
        field = ToyReferringField(h, w, 3.0, centers, features)
        q = rng.standard_normal(dim)
        q /= np.linalg.norm(q)
        ys, xs = np.mgrid[0:h, 0:w]
        target = (xs - 8) ** 2 + (ys - 8) ** 2 <= 25
        mask = rle_encode(target)
        pool = rng.standard_normal((4, dim))
        pos = pool[:2]
        lam, tau = 0.1, 0.5

        def fn(flat):
            field.features = flat.reshape(n_gauss, dim)
            probs = render_mask(field, 0, q)
            l_seg, g_logits = seg_loss(probs, target)
            grad = np.outer(field.weights(0) @ g_logits.ravel(), q)
            chosen = select_gaussians(field, 0, mask)
            anchor = field.features[chosen].mean(axis=0)
            l_con, g_con = contrastive_loss(anchor, pos, pool, tau)
            for gid in chosen:
                grad[gid] += lam * g_con / len(chosen)
            return l_seg + lam * l_con, grad.ravel()

        x0 = field.features.ravel()
        assert grad_check(fn, x0) < 1e-4


class TestTraining:
    def _fixture(self):
        cfg = tf.SynthConfig(n_views=1, n_objects=1, seed=5)
        ds, gt = tf.generate_scene(cfg)
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        descs = [DescriptionSet(track_id=0, category=result.records[0].canonical, referrals=[])]
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        return ds, result, descs, field, gt

    def test_zero_epochs_leaves_field_unchanged(self):
        ds, result, descs, field, _ = self._fixture()
        before = field.features.copy()
        field, curve = tf.train(field, ds, result.records, descs, tf.TrainConfig(epochs=0))
        assert curve == []
        assert np.array_equal(field.features, before)

    def test_seg_loss_strictly_decreases_early(self):
        ds, result, descs, field, _ = self._fixture()
        _, curve = tf.train(
            field, ds, result.records, descs, tf.TrainConfig(lam=0.0, epochs=200)
        )
        segs = [row[1] for row in curve]
        assert len(segs) == 200
        assert all(b < a for a, b in zip(segs[:50], segs[1:51]))

    def test_loss_curve_bit_reproducible(self):
        ds, result, descs, _, gt = self._fixture()
        curves = []
        for _ in range(2):
            field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
            _, curve = tf.train(field, ds, result.records, descs, tf.TrainConfig(epochs=20))
            curves.append(curve)
        assert curves[0] == curves[1]

    def test_ratio_schedule(self):
        cfg = tf.TrainConfig(ratio_start=0.1, ratio_factor=0.6, ratio_interval=2000)
        assert cfg.ratio(0) == pytest.approx(0.1)
        assert cfg.ratio(1999) == pytest.approx(0.1)
        assert cfg.ratio(2000) == pytest.approx(0.06)
        assert cfg.ratio(4000) == pytest.approx(0.036)

    @pytest.mark.parametrize("view", [1, 7, -1])
    def test_view_outside_dataset_rejected(self, view):
        ds, result, descs, field, _ = self._fixture()
        with pytest.raises(ValueError, match=f"view {view} is not a view of the dataset, which has 1 views"):
            tf.train(field, ds, result.records, descs, tf.TrainConfig(views=(0, view)))

    def test_train_equals_per_iteration_selection(self, noisy_scene):
        """The plan built once gives the loop that rebuilds batches and selects in every iteration."""
        ds, gt = noisy_scene
        result = tf.run_consensus(ds, tf.import_tracks(ds))
        descriptions = run_keyframes(ds, result.records)
        self._check_against_per_iteration_loop(ds, gt, result.records, descriptions)

    def test_category_repeated_as_referral_equals_per_iteration_selection(self, noisy_scene):
        """A referral text equal to the category repeats the (track, text) key: the pool keeps
        one row for it, the positives keep both, bit for bit as the per-iteration loop."""
        ds, gt = noisy_scene
        result = tf.run_consensus(ds, tf.import_tracks(ds))
        descriptions = [
            DescriptionSet(d.track_id, d.category, [(d.category, ds.embedding(d.category)), *d.referrals])
            for d in run_keyframes(ds, result.records)
        ]
        self._check_against_per_iteration_loop(ds, gt, result.records, descriptions)

    def test_category_text_with_another_vector_takes_the_category_vector(self, noisy_scene):
        """A referral that repeats the category text with its own vector trains as if it
        carried the category embedding: the first vector of a (track, text) key wins."""
        ds, gt = noisy_scene
        result = tf.run_consensus(ds, tf.import_tracks(ds))
        described = run_keyframes(ds, result.records)
        cfg = tf.TrainConfig(epochs=2, feature_lr=0.01, lam=1.0)
        runs = []
        for vector in (lambda d: d.referrals[0][1], lambda d: ds.embedding(d.category)):
            descriptions = [
                DescriptionSet(d.track_id, d.category, [(d.category, vector(d)), *d.referrals])
                for d in described
            ]
            field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
            runs.append(tf.train(field, ds, result.records, descriptions, cfg))
        (field, curve), (want_field, want_curve) = runs
        assert not np.array_equal(described[0].referrals[0][1], ds.embedding(described[0].category))
        assert len(curve) > 2 * ds.n_views
        assert curve == want_curve
        assert np.array_equal(field.features, want_field.features)

    @staticmethod
    def _check_against_per_iteration_loop(ds, gt, records, descriptions):
        cfg = tf.TrainConfig(epochs=2, feature_lr=0.01, lam=1.0)
        fresh = lambda: field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        field, curve = tf.train(fresh(), ds, records, descriptions, cfg)

        b1, b2, eps = field_module.ADAM_BETA1, field_module.ADAM_BETA2, field_module.ADAM_EPS
        ref, want = fresh(), []
        m = v = np.zeros_like(ref.features)
        by_track = {d.track_id: d for d in descriptions}
        for _ in range(cfg.epochs):
            for view in range(ds.n_views):
                entries, pool = oracle_view_batch(ds, records, by_track, view)
                for positives, pseudo_mask in entries:
                    chosen = select_gaussians(ref, view, pseudo_mask)
                    anchor = ref.features[chosen].mean(axis=0)
                    con, g_con = contrastive_loss(anchor, positives, pool, cfg.tau)
                    grads_con = np.zeros_like(ref.features)
                    for gid in chosen:
                        grads_con[gid] += g_con / len(chosen)
                    seg, grads_seg = seg_step(ref, view, positives, rle_decode(pseudo_mask))
                    weight = cfg.lam * cfg.ratio(len(want))
                    step_grad = grads_seg + weight * grads_con
                    k = len(want) + 1
                    m = b1 * m + (1.0 - b1) * step_grad
                    v = b2 * v + (1.0 - b2) * step_grad**2
                    ref.features = ref.features - cfg.feature_lr * (m / (1.0 - b1**k)) / (
                        np.sqrt(v / (1.0 - b2**k)) + eps
                    )
                    want.append((k, seg, con, seg + weight * con))
        assert len(want) > 2 * ds.n_views
        assert curve == want
        assert np.array_equal(field.features, ref.features)

    def test_long_only_requires_referrals(self):
        ds, result, descs, field, _ = self._fixture()
        with pytest.raises(ValueError, match="no referrals"):
            tf.train(
                field, ds, result.records, descs, tf.TrainConfig(epochs=1), include_category=False
            )

    def test_long_only_differs_only_by_positives(self, clean_scene):
        ds, gt, trajs = clean_scene
        result = tf.run_consensus(ds, trajs)
        from trackfuse.keyframes import run_keyframes

        descs = run_keyframes(ds, result.records)
        cfg = tf.TrainConfig(epochs=2)
        f1 = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        f2 = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        _, c1 = tf.train(f1, ds, result.records, descs, cfg)
        _, c2 = tf.train(f2, ds, result.records, descs, cfg, include_category=False)
        assert len(c1) == len(c2)
        assert c1 != c2


class TestFieldIo:
    def test_roundtrip(self, tmp_path, clean_scene):
        ds, gt, _ = clean_scene
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        field.features[0] = np.arange(ds.dim, dtype=float)
        save_field(field, tmp_path / "f.json")
        loaded = load_field(tmp_path / "f.json")
        assert loaded.spread == field.spread
        assert np.array_equal(loaded.features, field.features)
        assert np.array_equal(loaded.gaussians, field.gaussians, equal_nan=True)

    @pytest.mark.parametrize("with_dataset", [False, True])
    def test_file_with_gaussian_ids_and_tracks_loads_the_same_arrays(self, tmp_path, clean_scene, with_dataset):
        # the older format: each Gaussian also held its position as "id" and its object as "track"
        ds, gt, _ = clean_scene
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        field.features = np.random.default_rng(0).standard_normal(field.features.shape)
        save_field(field, tmp_path / "new.json")
        obj = json.loads((tmp_path / "new.json").read_text())
        for gid, g in enumerate(obj["gaussians"]):
            g.update(id=gid, track=gt.objects[gid // 5].object_id)
        (tmp_path / "old.json").write_text(dumps(obj) + "\n")
        ds_or_none = ds if with_dataset else None
        new, old = load_field(tmp_path / "new.json", ds_or_none), load_field(tmp_path / "old.json", ds_or_none)
        assert old.gaussians.tobytes() == new.gaussians.tobytes() == field.gaussians.tobytes()
        assert old.features.tobytes() == new.features.tobytes() == field.features.tobytes()

    def test_gaussians_with_different_center_counts_are_refused_without_a_dataset(self, tmp_path, clean_scene):
        ds, gt, _ = clean_scene
        save_field(field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim), tmp_path / "f.json")
        obj = json.loads((tmp_path / "f.json").read_text())
        del obj["gaussians"][2]["centers"][-1]
        (tmp_path / "f.json").write_text(dumps(obj) + "\n")
        message = f"{tmp_path / 'f.json'}: gaussian 2: {ds.n_views - 1} centers, gaussian 0 has {ds.n_views}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_field(tmp_path / "f.json")

    @pytest.mark.parametrize("per_object", [0, 6, 9])
    def test_gaussian_count_outside_the_offsets_is_refused(self, clean_scene, per_object):
        # a slice of the five offsets would silently build fewer Gaussians than asked for
        ds, gt, _ = clean_scene
        with pytest.raises(ValueError, match=f"gaussians_per_object must be in \\[1, 5\\], got {per_object}"):
            field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, per_object=per_object)


class TestSpreadBound:
    """A spread is accepted exactly when the squared cutoff (3 s) ** 2 is a finite double and the
    weights' denominator 2 * s ** 2 is above 0."""

    @staticmethod
    def _largest():
        spread = field_module.MAX_CUTOFF / 3
        while 3.0 * spread > field_module.MAX_CUTOFF:
            spread = float(np.nextafter(spread, 0.0))
        return spread

    def test_largest_accepted_spread_fills_like_the_full_grid(self):
        spread = self._largest()
        assert math.isfinite((3.0 * spread) ** 2)
        field = make_field([[1.0]] * 3, [(3.0, 4.0), (-2.0, 9.5), (math.nan, 1.0)], h=7, w=11, spread=spread)
        assert field.weights(0).tobytes() == oracle_weights(field, 0).tobytes()

    @pytest.mark.parametrize("spread", ["next", 4.48e153, 1e154, 1e300])
    def test_spread_whose_squared_cutoff_overflows_is_refused(self, spread):
        if spread == "next":  # one ulp above the largest accepted spread
            spread = float(np.nextafter(self._largest(), math.inf))
        with pytest.raises(OverflowError):
            (3.0 * spread) ** 2
        message = r"spread must be at most 4.47e\+153, so that \(3 \* spread\) \*\* 2 is finite"
        with pytest.raises(ValueError, match=message):
            make_field([[1.0]], [(3.0, 4.0)], spread=spread)

    @staticmethod
    def _smallest():
        def accepts(spread):
            try:
                make_field([[1.0]], [(3.0, 4.0)], spread=spread)
            except ValueError:
                return False
            return True

        return smallest_accepted(accepts)

    def test_smallest_accepted_spread_fills_like_the_full_grid(self):
        spread = self._smallest()
        assert 2.0 * spread**2 > 0 and 1e-162 < spread < 2e-162
        field = make_field([[1.0]] * 3, [(3.0, 4.0), (2.5, 9.0), (math.nan, 1.0)], h=7, w=11, spread=spread)
        with np.errstate(over="ignore"):  # off the centre's pixel, -d2 / (2 s^2) is -inf
            weights = field.weights(0)
            assert weights.tobytes() == oracle_weights(field, 0).tobytes()
        assert weights[0, 4 * 11 + 3] == 1.0 and weights.sum() == 1.0  # the centre's pixel only
        assert not np.isnan(render_logits(field, 0, np.ones(1))).any()

    @pytest.mark.parametrize("spread", ["next", 1e-200, 5e-324])
    def test_spread_whose_doubled_square_underflows_is_refused(self, spread):
        if spread == "next":  # one ulp below the smallest accepted spread
            spread = math.nextafter(self._smallest(), 0.0)
        assert 2.0 * spread**2 == 0.0
        with pytest.raises(ValueError, match=r"spread is too small: 2 \* spread \*\* 2 underflows to 0"):
            make_field([[1.0]], [(3.0, 4.0)], spread=spread)


# ---------------------------------------------------------------------------
# batched and windowed paths against the per-query, per-Gaussian oracles


def coordinate(limit):
    """A center coordinate: exact halves, on-grid, near or past the border, NaN and inf."""
    return st.one_of(
        st.integers(-3, limit + 3).map(lambda k: k + 0.5),
        st.integers(-3, limit + 3).map(float),
        st.floats(-2.0 * limit - 12, 2.0 * limit + 12),
        st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, -1e300]),
    )


@st.composite
def fields(draw):
    """A small field with drawn centers; features at scale 1e-17 give logits in (0, 1e-15]."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    n_views, dim = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    spread = draw(st.sampled_from([0.5, 1.0, 1.5]) | st.floats(0.2, 4.0))
    scale = draw(st.sampled_from([1.0, 1e-17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaussians, features = [], []
    for _ in range(draw(st.integers(1, 6))):
        gaussians.append([[draw(coordinate(w)), draw(coordinate(h))] for _ in range(n_views)])
        features.append(scale * rng.standard_normal(dim))
    return ToyReferringField(height=h, width=w, spread=spread, gaussians=gaussians, features=np.stack(features))


def sigmoid_above_half(logits):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logits)) > 0.5


# centers at +-1e300 overflow the squared offset to inf in both paths, as intended
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
class TestBatchedOracles:
    @given(fields())
    @settings(max_examples=100, deadline=None)
    def test_windowed_weights_equal_full_grid(self, field):
        for view in range(field.gaussians.shape[1]):
            got, want = field.weights(view), oracle_weights(field, view)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(fields(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_selection_equals_per_gaussian_loop(self, field, seed):
        grid = np.random.default_rng(seed).random((field.height, field.width)) < 0.6
        for view in range(field.gaussians.shape[1]):
            want = oracle_select_inside(field, view, grid)
            if not want:
                with pytest.raises(NumericError, match="no Gaussian"):
                    select_gaussians(field, view, rle_encode(grid))
                continue
            chosen = select_gaussians(field, view, rle_encode(grid))
            anchor = field.features[chosen].mean(axis=0)
            assert chosen == want
            assert np.array_equal(anchor, np.stack([field.features[g] for g in want]).mean(axis=0))

    @given(fields(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_batched_logits_within_1e12_of_per_query(self, field, n_queries, seed):
        queries = np.random.default_rng(seed).standard_normal((n_queries, field.dim))
        feats = np.abs(field.features)
        for view in range(field.gaussians.shape[1]):
            got = render_logits(field, view, queries)
            assert got.shape == (n_queries, field.height, field.width)
            assert render_logits(field, view, queries[0]).shape == (field.height, field.width)
            for q, logits in zip(queries, got):
                # error bound of a reordered float64 sum: relative to the sum of |terms|
                scale = ((feats @ np.abs(q)) @ oracle_weights(field, view)).reshape(logits.shape)
                assert np.all(np.abs(logits - oracle_render_logits(field, view, q)) <= 1e-12 * scale)

    def test_logits_into_a_reused_buffer_are_the_same_bits(self, clean_scene):
        ds, gt, _ = clean_scene
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        rng = np.random.default_rng(2)
        field.features = rng.standard_normal(field.features.shape)
        queries = rng.standard_normal((3, ds.dim))
        out = np.empty((3, ds.height * ds.width))
        for view in (1, 0, 1):
            got = render_logits(field, view, queries, out=out)
            assert np.shares_memory(got, out)
            assert got.tobytes() == render_logits(field, view, queries).tobytes()
        single = np.empty(ds.height * ds.width)
        assert render_logits(field, 0, queries[0], out=single).tobytes() == render_logits(field, 0, queries[0]).tobytes()

    @given(fields(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_eval_grids_equal_per_query_render_mask(self, field, n_queries, seed):
        queries = list(np.random.default_rng(seed).standard_normal((n_queries, field.dim)))
        views = list(range(field.gaussians.shape[1]))
        grids = render_grids(field, views, queries)
        assert len(grids) == n_queries
        for q, per_view in zip(queries, grids):
            assert sorted(per_view) == views
            for view, grid in per_view.items():
                assert grid.dtype == bool
                assert np.array_equal(grid, sigmoid_above_half(oracle_render_logits(field, view, q)))

    @given(st.lists(
        st.floats(0.0, 1e-15, exclude_min=True)
        | st.floats(-1e-15, 1e-15)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([0.0, -0.0, 2.0**-52, 2.0**-51, 3 * 2.0**-52]),
        min_size=1, max_size=30,
    ))
    # the band edges: signed zeros, subnormals, tiny logits that round to 0.5, the doubles
    # either side of 1e-15, infinities and NaN
    @example([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022 - 2.0**-1074, 1e-16, 1.1e-16])
    @example([np.nextafter(1e-15, 0.0), 1e-15, np.nextafter(1e-15, 1.0), 2e-15, 1e-14])
    @example([math.inf, -math.inf, math.nan, -math.nan])
    @settings(max_examples=200, deadline=None)
    def test_binarized_logits_equal_sigmoid_threshold(self, values):
        logits = np.array(values)
        assert np.array_equal(binarize_logits(logits), sigmoid_above_half(logits))

    @pytest.mark.parametrize("band", [5e-17, 1e-16, 2e-16, float(np.nextafter(1e-15, 0.0))])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_band_logit_among_ordinary_ones(self, band, seed):
        # the counts of z > 0 and z >= 1e-15 differ by one, so the band's fix-up runs for one logit
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((3, 40))
        logits.flat[rng.integers(logits.size)] = band
        assert np.array_equal(binarize_logits(logits), sigmoid_above_half(logits))

    def test_tiny_positive_logit_is_background(self):
        # sigmoid rounds to exactly 0.5 there, so the pixel is not foreground
        logits = np.array([[-1.0, 0.0, 5e-17, 1e-16, 2e-16, 1e-3]])
        assert binarize_logits(logits).tolist() == [[False, False, False, False, True, True]]
        assert sigmoid_above_half(logits).tolist() == binarize_logits(logits).tolist()

    def test_no_queries_render_nothing(self):
        field = make_field([[1.0, 0.0]], [(2.0, 2.0)])
        assert render_grids(field, [0], []) == []

    def test_seg_step_within_1e12_of_per_positive_step(self, clean_scene):
        ds, gt, _ = clean_scene
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        rng = np.random.default_rng(0)
        field.features = rng.standard_normal((len(field.gaussians), ds.dim))
        positives = rng.standard_normal((4, ds.dim))
        target = rng.random((ds.height, ds.width)) < 0.3
        seg, grad = seg_step(field, 1, positives, target)
        want_seg, want_grad = oracle_seg_step(field, 1, positives, target)
        assert abs(seg - want_seg) <= 1e-12 * want_seg
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    def test_train_within_1e12_of_per_positive_training(self, noisy_scene, monkeypatch):
        ds, gt = noisy_scene
        result = tf.run_consensus(ds, tf.import_tracks(ds))
        descriptions = run_keyframes(ds, result.records)
        assert all(d.referrals for d in descriptions)  # hybrid positives: category + referrals
        cfg = tf.TrainConfig(epochs=3, feature_lr=0.01)

        def trained():
            field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
            return tf.train(field, ds, result.records, descriptions, cfg)

        field, curve = trained()
        monkeypatch.setattr(field_module, "seg_step", oracle_seg_step)
        want_field, want_curve = trained()
        assert len(curve) == len(want_curve) > 0
        for row, want in zip(curve, want_curve):
            assert row[0] == want[0]
            assert np.all(np.abs(np.subtract(row[1:], want[1:])) <= 1e-12 * np.abs(want[1:]))
        feats, want_feats = field.features, want_field.features
        assert np.max(np.abs(feats - want_feats)) <= 1e-12 * np.max(np.abs(want_feats))


class TestWeightBuffer:
    @staticmethod
    def _field(spread):
        """Three views of 8x10: centers on the border, past it, NaN, on-grid and at halves."""
        centers = [
            [(0.0, 0.0), (9.0, 7.0), (4.5, 3.5)],
            [(-2.0, 3.0), (11.5, -1.0), (5.0, 8.5)],
            [(math.nan, 2.0), (3.0, 3.0), (math.nan, math.nan)],
            [(9.5, 7.5), (0.5, 6.0), (-0.5, 0.0)],
            [(4.0, 4.0), (math.nan, math.nan), (10.0, 4.0)],
        ]
        features = np.random.default_rng(0).standard_normal((len(centers), 3))
        return ToyReferringField(8, 10, spread, centers, features)

    @pytest.mark.parametrize("spread", [0.5, 1.0, 1.5])
    def test_revisited_views_equal_full_grid(self, spread):
        field = self._field(spread)
        first = field.weights(0)
        for view in (0, 1, 0, 2, 1):
            got = field.weights(view)
            assert got.tobytes() == oracle_weights(field, view).tobytes()
            # one read-only buffer, refilled for each view
            assert not got.flags.writeable
            assert np.shares_memory(got, first)
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 1.0

    def test_repeated_view_refills_nothing(self, monkeypatch):
        field = self._field(1.0)
        field.weights(2)
        want = oracle_weights(field, 2).tobytes()
        monkeypatch.setattr(field_module.np, "exp", None)  # a refill would call it
        assert field.weights(2).tobytes() == want

    def test_rendering_every_view_holds_one_buffer(self):
        n_views, h, w, n = 6, 48, 48, 16
        rng = np.random.default_rng(1)
        gaussians = [rng.uniform(0, h, (n_views, 2)) for _ in range(n)]
        field = ToyReferringField(h, w, 8.0, gaussians, rng.standard_normal((n, 4)))
        buffer_bytes = n * h * w * 8
        tracemalloc.start()
        try:
            render_grids(field, list(range(n_views)), list(rng.standard_normal((2, 4))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # n_views buffers if each view kept its own; one plus the small render temporaries here
        assert buffer_bytes <= peak < 2 * buffer_bytes


# spreads whose 6 s is an integer, or one ulp either side of one, put the 3-sigma run of
# pixels at its longest for the window size floor(6 s) + 2
EDGE_SPREADS = [k / 6 for k in (1, 2, 3, 5, 9, 17)] + [
    float(np.nextafter(k / 6, direction)) for k in (1, 3, 9, 17) for direction in (0.0, math.inf)
]


@st.composite
def windowed_fields(draw):
    """Odd and degenerate view sizes, spreads from tiny to wider than the view, and a view order."""
    h = draw(st.sampled_from([1, 2, 7, 33, 47]) | st.integers(1, 50))
    w = draw(st.sampled_from([1, 3, 33, 47]) | st.integers(1, 50))
    spread = draw(st.sampled_from(EDGE_SPREADS) | st.floats(0.05, 3.0) | st.floats(3.0, 1e6) | st.just(1e150))
    n_views = draw(st.integers(1, 4))
    gaussians = [
        [[draw(coordinate(w)), draw(coordinate(h))] for _ in range(n_views)] for _ in range(draw(st.integers(1, 10)))
    ]
    field = ToyReferringField(h, w, spread, gaussians, np.zeros((len(gaussians), 2)))
    order = draw(st.lists(st.integers(0, n_views - 1), min_size=1, max_size=6))
    return field, order


@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
class TestWindowedFill:
    """``weights`` fills fixed-size windows in chunks; every view, in any order, is the full-grid oracle."""

    @given(windowed_fields())
    @example((TestWeightBuffer._field(20.0), [2, 0, 1, 0]))  # every 3-sigma box is wider than the view
    @example((make_field([[0.0]] * 3, [(16.5, 0.5), (-0.5, 32.5), (math.nan, 3.0)], h=33, w=47, spread=1 / 3), [0, 0]))
    @settings(max_examples=100, deadline=None)
    def test_views_in_any_order_equal_full_grid(self, case):
        field, order = case
        for view in order:
            got = field.weights(view)
            assert got.tobytes() == oracle_weights(field, view).tobytes()

    @pytest.mark.parametrize("spread", EDGE_SPREADS)
    def test_every_center_offset_at_edge_spreads(self, spread):
        # centers a fraction of a pixel apart sweep the 3-sigma run across every phase
        offsets = np.linspace(0.0, 1.0, 41)
        centers = [(20.0 + dx, 16.0 + dx / 3) for dx in offsets]
        field = make_field([[1.0]] * len(centers), centers, h=33, w=47, spread=spread)
        assert field.weights(0).tobytes() == oracle_weights(field, 0).tobytes()

    def test_fill_temporaries_stay_under_an_eighth_of_the_buffer(self):
        n, h, w = 64, 96, 96
        rng = np.random.default_rng(3)
        gaussians = [rng.uniform(0, h, (3, 2)) for _ in range(n)]
        field = ToyReferringField(h, w, 8.0, gaussians, np.zeros((n, 2)))
        field.weights(0)
        buffer_bytes = n * h * w * 8
        tracemalloc.start()
        try:
            field.weights(1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the chunk's window temporaries, plus the (n, h) and (n, w) offset rows
        assert peak - current < buffer_bytes // 8 + 32 * n * (h + w)
        assert field.weights(1).tobytes() == oracle_weights(field, 1).tobytes()


class TestSaveFieldText:
    @staticmethod
    def _field(centers):
        features = np.random.default_rng(0).standard_normal((len(centers), 3))
        return ToyReferringField(8, 8, 1.5, centers, features)

    @pytest.mark.parametrize(
        "centers",
        [
            [[(0.0, -0.0), (-0.0, 0.0)], [(math.nan, 1.0), (1.0, math.nan)]],
            [[(1e300, -1e300), (math.inf, 2.0)], [(-math.inf, -math.inf), (5e-324, 0.1)]],
            [[(math.nan, math.nan), (2.5, 3.5)], [(123456789.123456789, -2.0**60), (7.0, 7)]],
        ],
        ids=["signed-zero-and-nan", "huge-infinite-and-subnormal", "nan-row-and-large"],
    )
    def test_text_equals_per_center_expression(self, tmp_path, centers):
        field = self._field(centers)
        save_field(field, tmp_path / "f.json")
        assert (tmp_path / "f.json").read_text() == dumps(oracle_field_json(field)) + "\n"

    @given(st.lists(st.tuples(coordinate(40), coordinate(40)), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_drawn_centers_give_the_same_document(self, rows):
        field = self._field([rows])
        got = field_module._json_centers(field.gaussians[0])
        assert dumps(got) == dumps(oracle_field_json(field)["gaussians"][0]["centers"])

    def test_integer_centers_are_written_as_floats(self, tmp_path):
        field = ToyReferringField(4, 4, 1.0, np.array([[[1, 2], [3, 4]]]), np.zeros((1, 1)))
        save_field(field, tmp_path / "f.json")
        assert '"centers":[[1.0,2.0],[3.0,4.0]]' in (tmp_path / "f.json").read_text()
        assert (tmp_path / "f.json").read_text() == dumps(oracle_field_json(field)) + "\n"


class TestSubsetCheck:
    def test_nan_positive_is_not_in_pool(self):
        pool = np.array([[np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not a subset"):
            contrastive_loss(np.array([1.0, 0.0]), pool[:1], pool, 0.1)

    @pytest.mark.parametrize("pool_dim", [1, 3])
    def test_dimension_mismatch_is_not_in_pool(self, pool_dim):
        with pytest.raises(ValueError, match="not a subset"):
            contrastive_loss(np.ones(2), np.ones((1, 2)), np.ones((2, pool_dim)), 0.1)

    def test_signed_zero_and_repeats_are_in_pool(self):
        pool = np.array([[0.0, 1.0], [1.0, 0.0]])
        positives = np.array([[-0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        loss, _ = contrastive_loss(np.array([1.0, 0.0]), positives, pool, 0.5)
        assert math.isfinite(loss)


# probabilities at and either side of the clamp bounds, where seg_loss's two branches meet
EDGE_PROBS = (
    0.0,
    1.0,
    BCE_EPS,
    1.0 - BCE_EPS,
    *np.nextafter([BCE_EPS, BCE_EPS, 1.0 - BCE_EPS, 1.0 - BCE_EPS], [0.0, 1.0, 0.0, 1.0]).tolist(),
)
EDGE_TARGET = np.array([[True, False, True], [False, False, True]])


def at_edge_probs(test):
    """One example per edge value: a (2, 2, 3) stack of it, against a mixed target."""
    for value in EDGE_PROBS:
        test = example(inputs=(np.full((2, 2, 3), value), EDGE_TARGET))(test)
    return test


def one_pixel_at_edge(test):
    """A (2, 2, 3) stack wholly inside the clamp (no clamp pass changes a value), then the same
    stack with one pixel at each clamp bound and just outside it, and an empty (0, 2, 3) stack."""
    inside = np.linspace(0.05, 0.95, 12).reshape(2, 2, 3)
    test = example(inputs=(inside, EDGE_TARGET))(test)
    for value in EDGE_PROBS[2:]:
        stack = inside.copy()
        stack[1, 0, 2] = value
        test = example(inputs=(stack, EDGE_TARGET))(test)
    return example(inputs=(np.zeros((0, 2, 3)), EDGE_TARGET))(test)


@st.composite
def seg_inputs(draw):
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = (h, w) if draw(st.booleans()) else (draw(st.integers(1, 3)), h, w)
    values = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PROBS), st.floats())  # any double too
    probs = draw(hnp.arrays(np.float64, shape, elements=values))
    return probs, draw(hnp.arrays(np.bool_, (h, w)))


class TestLeanTrainStep:
    """The in-place step is bit for bit the one that allocates every array afresh."""

    @settings(max_examples=200, deadline=None)
    @given(inputs=seg_inputs())
    @at_edge_probs
    @one_pixel_at_edge
    @example(inputs=(np.array([[np.nan, 0.5], [-0.0, np.inf]]), np.array([[True, False], [True, False]])))
    def test_seg_loss_is_the_oracle_bit_for_bit(self, inputs):
        probs, target = inputs
        with np.errstate(all="ignore"):
            loss, grad = seg_loss(probs, target)
            want_loss, want_grad = oracle_seg_loss(probs, target)
            # into buffers that hold stale values, as in training
            out = np.full((2, *probs.shape), -7.0)
            buffered_loss, buffered_grad = seg_loss(probs, target, out=out)
        assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
        assert np.asarray(buffered_loss).tobytes() == np.asarray(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes() == buffered_grad.tobytes()
        # no array of zero size shares memory with another
        assert np.shares_memory(buffered_grad, out) or not probs.size

    @staticmethod
    def _scene(noisy_scene):
        ds, gt = noisy_scene
        result = tf.run_consensus(ds, tf.import_tracks(ds))
        return ds, gt, result.records, run_keyframes(ds, result.records)

    @pytest.mark.parametrize(
        "case", ["hybrid", "long_only", "views_subset", "repeated_key", "odd_size", "epochs_out_of_order"]
    )
    def test_train_is_the_oracle_bit_for_bit(self, noisy_scene, case):
        if case == "odd_size":
            # 33 x 47 = 1 551 pixels, not a multiple of 8: packed masks end in a partial byte; with
            # dropout, a track is missing from some views, so the views' pools differ
            cfg = tf.SynthConfig(
                n_views=6, height=33, width=47, n_objects=3, seed=11,
                noise=tf.NoiseSpec(synonym_rate=0.3, wrong_label_rate=0.1, dropout_rate=0.3, mask_jitter=1),
            )
            ds, gt = tf.generate_scene(cfg)
            noisy_scene = tf.corrupt(ds, gt, cfg), gt
        ds, gt, records, descriptions = self._scene(noisy_scene)
        assert all(d.referrals for d in descriptions)  # hybrid positives: category + referrals
        cfg = tf.TrainConfig(epochs=3, feature_lr=0.01, lam=1.0)
        include_category = case != "long_only"
        if case == "views_subset":
            cfg = tf.TrainConfig(epochs=3, feature_lr=0.01, lam=1.0, views=(5, 0, 3, 6))
        if case == "epochs_out_of_order":  # every view, out of order, one of them twice
            cfg = tf.TrainConfig(epochs=2, feature_lr=0.01, lam=1.0, views=(6, 1, 7, 3, 0, 2, 1, 5, 4))
        if case == "repeated_key":  # the category again as a referral: one pool row, two positives
            descriptions = [
                DescriptionSet(d.track_id, d.category, [(d.category, ds.embedding(d.category)), *d.referrals])
                for d in descriptions
            ]
        fresh = lambda: field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        field, curve = tf.train(fresh(), ds, records, descriptions, cfg, include_category)
        want_field, want_curve = oracle_train(fresh(), ds, records, descriptions, cfg, include_category)
        assert len(curve) == len(want_curve) > 2 * len(cfg.views or range(ds.n_views))
        assert np.array(curve).tobytes() == np.array(want_curve).tobytes()
        assert field.features.tobytes() == want_field.features.tobytes()

    def test_train_keeps_the_callers_features(self, noisy_scene):
        ds, gt, records, descriptions = self._scene(noisy_scene)
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        initial = field.features
        trained, _ = tf.train(field, ds, records, descriptions, tf.TrainConfig(epochs=1))
        assert not initial.any() and trained.features.any()

    def test_train_refuses_a_pseudo_mask_of_another_size(self, noisy_scene):
        ds, gt, records, descriptions = self._scene(noisy_scene)
        field = field_from_ground_truth(gt, ds.n_views, 32, 48, dim=ds.dim)
        with pytest.raises(SchemaError, match="pseudo mask is 64x64, field is 32x48"):
            tf.train(field, ds, records, descriptions, tf.TrainConfig(epochs=1))
        # checked before the plan: also when no view is trained, so no pseudo mask is read
        with pytest.raises(SchemaError, match="pseudo mask is 64x64, field is 32x48"):
            tf.train(field, ds, records, descriptions, tf.TrainConfig(epochs=1, views=()))

    def test_train_plan_holds_one_vector_table_and_packed_masks(self):
        """On a vocab_wide-shaped scene, train's traced peak is the weight buffer and the step
        blocks, with the plan's indices and packed masks; a plan that copies each entry's
        positives and each view's pool, and keeps each mask as a bool grid, takes 4.4 MB."""
        words = ("small", "large", "red", "old", "round")
        vocabulary = tuple(tf.SynonymGroup(f"w{g:02d}", tuple(f"w{g:02d} {word}" for word in words)) for g in range(16))
        cfg = tf.SynthConfig(
            n_views=32, height=32, width=32, n_objects=16, dim=128, vocabulary=vocabulary, seed=1,
            noise=tf.NoiseSpec(synonym_rate=0.5, wrong_label_rate=0.4),
        )
        ds, gt = tf.generate_scene(cfg)
        ds, gt, records, descriptions = self._scene((tf.corrupt(ds, gt, cfg), gt))
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim, spread=2.0, per_object=1)
        tracemalloc.start()
        try:
            _, curve = tf.train(field, ds, records, descriptions, tf.TrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curve) > 10 * ds.n_views
        assert peak <= 1.5e6

    def test_train_refuses_a_pseudo_mask_without_a_gaussian_center(self, noisy_scene):
        ds, gt, records, descriptions = self._scene(noisy_scene)
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        view = min(v for rec in records for v, _ in rec.members)
        field.gaussians[:, view] = np.nan
        with pytest.raises(NumericError, match=f"no Gaussian center inside the pseudo mask at view {view}"):
            tf.train(field, ds, records, descriptions, tf.TrainConfig(epochs=1))
