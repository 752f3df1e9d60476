import math

import numpy as np
import pytest

import trackfuse as tf
from trackfuse.errors import NumericError, SchemaError
from trackfuse.field import (
    ViewBatch,
    TrackPositives,
    ToyGaussian,
    ToyReferringField,
    build_view_batch,
    contrastive_loss,
    field_from_ground_truth,
    grad_check,
    load_field,
    render_mask,
    save_field,
    seg_loss,
    select_gaussians,
    total_loss,
)
from trackfuse.records import DescriptionSet
from trackfuse.rle import rle_encode


def make_field(features, centers, h=16, w=16, spread=3.0):
    dim = len(features[0])
    gaussians = [
        ToyGaussian(g, 0, np.asarray([c], dtype=float), np.asarray(f, dtype=float))
        for g, (f, c) in enumerate(zip(features, centers))
    ]
    return ToyReferringField(height=h, width=w, spread=spread, dim=dim, gaussians=gaussians)


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

    def test_invisible_view_contributes_nothing(self):
        gaussian = ToyGaussian(0, 0, np.array([[np.nan, np.nan]]), np.array([5.0, 0.0]))
        field = ToyReferringField(16, 16, 3.0, 2, [gaussian])
        probs = render_mask(field, 0, np.array([1.0, 0.0]))
        assert np.all(probs == 0.5)


class TestSelectGaussians:
    def test_single_inside(self):
        field = make_field([[1.0, 2.0]], [(8.0, 8.0)])
        chosen, anchor = select_gaussians(field, 0, disk_mask(16, 16, 8, 8, 3))
        assert chosen == [0]
        assert np.array_equal(anchor, np.array([1.0, 2.0]))

    def test_opposite_features_cancel(self):
        field = make_field([[1.0, 0.0], [-1.0, 0.0]], [(7.0, 8.0), (9.0, 8.0)])
        _, anchor = select_gaussians(field, 0, disk_mask(16, 16, 8, 8, 4))
        assert np.array_equal(anchor, np.zeros(2))

    def test_mean_of_three(self):
        e = np.eye(3)
        field = make_field([e[0], e[1], e[2]], [(7.0, 8.0), (8.0, 8.0), (9.0, 8.0)])
        _, anchor = select_gaussians(field, 0, disk_mask(16, 16, 8, 8, 4))
        assert np.allclose(anchor, np.full(3, 1 / 3))

    def test_empty_selection_rejected(self):
        field = make_field([[1.0, 0.0]], [(2.0, 2.0)])
        with pytest.raises(NumericError, match="no Gaussian"):
            select_gaussians(field, 0, disk_mask(16, 16, 12, 12, 2))

    def test_dimension_mismatch(self):
        field = make_field([[1.0, 0.0]], [(2.0, 2.0)])
        with pytest.raises(SchemaError):
            select_gaussians(field, 0, disk_mask(8, 8, 4, 4, 2))

    def test_rendered_selection_on_informative_field(self):
        from trackfuse.field import select_gaussians_rendered

        q = np.array([1.0, 0.0])
        field = make_field([[10.0, 0.0], [0.0, 0.0]], [(4.0, 4.0), (12.0, 12.0)])
        chosen, anchor = select_gaussians_rendered(field, 0, q)
        assert chosen == [0]
        assert np.array_equal(anchor, np.array([10.0, 0.0]))

    def test_rendered_selection_fails_on_cold_field(self):
        from trackfuse.field import select_gaussians_rendered

        field = make_field([[0.0, 0.0]], [(8.0, 8.0)])
        with pytest.raises(NumericError, match="rendered mask"):
            select_gaussians_rendered(field, 0, np.array([1.0, 0.0]))


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
    def test_lambda_zero(self):
        assert total_loss(0.5, 123.0, 0.0) == 0.5

    def test_weighted_sum(self):
        assert total_loss(0.5, 1.0, 0.1) == pytest.approx(0.6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            total_loss(1.0, 1.0, -0.1)


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
        gaussians = [
            ToyGaussian(g, 0, centers[g], rng.standard_normal(dim) * 0.3)
            for g in range(n_gauss)
        ]
        field = ToyReferringField(h, w, 3.0, dim, gaussians)
        q = rng.standard_normal(dim)
        q /= np.linalg.norm(q)
        ys, xs = np.mgrid[0:h, 0:w]
        target = (xs - 8) ** 2 + (ys - 8) ** 2 <= 25
        mask = rle_encode(target)
        pool = rng.standard_normal((4, dim))
        pos = pool[:2]
        lam, tau = 0.1, 0.5

        def fn(flat):
            field.set_features(flat.reshape(n_gauss, dim))
            probs = render_mask(field, 0, q)
            l_seg, g_logits = seg_loss(probs, target)
            grad = np.outer(field.weights(0) @ g_logits.ravel(), q)
            chosen, anchor = select_gaussians(field, 0, mask)
            l_con, g_con = contrastive_loss(anchor, pos, pool, tau)
            for gid in chosen:
                grad[gid] += lam * g_con / len(chosen)
            return l_seg + lam * l_con, grad.ravel()

        x0 = np.stack([g.feature for g in gaussians]).ravel()
        assert grad_check(fn, x0) < 1e-4


class TestViewBatch:
    def test_positives_must_be_in_pool(self):
        mask = disk_mask(8, 8, 4, 4, 2)
        entry = TrackPositives(
            track_id=0,
            pos_keys=[(0, "missing")],
            pos_vecs=np.ones((1, 2)),
            pseudo_mask=mask,
        )
        with pytest.raises(SchemaError, match="missing from pool"):
            ViewBatch(view=0, entries=[entry], pool_keys=[(0, "other")], pool_vecs=np.ones((1, 2)))

    def test_pool_keys_distinct(self):
        with pytest.raises(SchemaError, match="distinct"):
            ViewBatch(view=0, entries=[], pool_keys=[(0, "a"), (0, "a")], pool_vecs=np.ones((2, 2)))

    def test_build_pools_covisible_tracks(self, clean_scene):
        ds, _, trajs = clean_scene
        result = tf.run_consensus(ds, trajs)
        from trackfuse.keyframes import run_keyframes

        descs = {d.track_id: d for d in run_keyframes(ds, result.records)}
        batch = build_view_batch(ds, result.records, descs, view=0)
        assert batch is not None
        assert len(batch.entries) == 2
        total_pos = sum(len(e.pos_keys) for e in batch.entries)
        assert len(batch.pool_keys) == total_pos  # distinct tracks, distinct texts
        for entry in batch.entries:
            assert all(k in batch.pool_keys for k in entry.pos_keys)


class TestTraining:
    def _fixture(self):
        cfg = tf.SynthConfig(n_views=1, n_objects=1, seed=5)
        ds, gt = tf.generate_scene(cfg)
        trajs = tf.import_tracks(ds)
        result = tf.run_consensus(ds, trajs)
        tf.propagate(ds, result.records)
        descs = [DescriptionSet(track_id=0, category=result.records[0].canonical, referrals=[])]
        field = field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)
        return ds, result, descs, field, gt

    def test_zero_epochs_leaves_field_unchanged(self):
        ds, result, descs, field, _ = self._fixture()
        before = field.features().copy()
        field, curve = tf.train(field, ds, result.records, descs, tf.TrainConfig(epochs=0))
        assert curve == []
        assert np.array_equal(field.features(), before)

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

    def test_invalid_selection_mode_rejected(self):
        with pytest.raises(ValueError, match="selection"):
            tf.TrainConfig(selection="magic")

    def test_rendered_selection_trains_on_informative_field(self):
        ds, result, descs, field, _ = self._fixture()
        query = ds.embedding(descs[0].category)
        for g in field.gaussians:
            g.feature = 3.0 * query  # confident field: rendered mask is usable
        cfg = tf.TrainConfig(epochs=5, selection="rendered")
        field, curve = tf.train(field, ds, result.records, descs, cfg)
        assert len(curve) == 5

    def test_rendered_selection_fails_from_cold_start(self):
        ds, result, descs, field, _ = self._fixture()
        cfg = tf.TrainConfig(epochs=1, selection="rendered")
        with pytest.raises(NumericError, match="rendered mask"):
            tf.train(field, ds, result.records, descs, cfg)

    def test_long_only_requires_referrals(self):
        ds, result, descs, field, _ = self._fixture()
        with pytest.raises(ValueError, match="no referrals"):
            tf.train(
                field, ds, result.records, descs, tf.TrainConfig(epochs=1), include_category=False
            )

    def test_long_only_differs_only_by_positives(self, clean_scene):
        ds, gt, trajs = clean_scene
        result = tf.run_consensus(ds, trajs)
        tf.propagate(ds, result.records)
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
        field.gaussians[0].feature = np.arange(ds.dim, dtype=float)
        save_field(field, tmp_path / "f.json")
        loaded = load_field(tmp_path / "f.json")
        assert loaded.spread == field.spread
        assert np.array_equal(loaded.features(), field.features())
        for a, b in zip(field.gaussians, loaded.gaussians):
            assert np.array_equal(np.isnan(a.centers), np.isnan(b.centers))
            mask = ~np.isnan(a.centers)
            assert np.array_equal(a.centers[mask], b.centers[mask])
