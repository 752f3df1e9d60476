"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import trackfuse as tf
from trackfuse.cli import load_config, run_pipeline
from trackfuse.consensus import cluster_synonyms, run_consensus
from trackfuse.field import (
    ToyReferringField,
    contrastive_loss,
    field_from_ground_truth,
    render_mask,
    seg_loss,
    select_gaussians,
)
from trackfuse.keyframes import visibility_score
from trackfuse.metrics import (
    consensus_accuracy,
    detection_ious,
    match_tracks_to_objects,
    matched_objects,
    miou,
)
from trackfuse.records import LabelEmbedding
from trackfuse.rle import mask_iou, rle_decode, rle_encode
from trackfuse.synth import DEFAULT_VOCABULARY, build_vocabulary_embeddings

from oracles import (
    each_detection,
    grad_check,
    oracle_cluster,
    oracle_visibility,
    oracle_vote,
    partition_of,
    random_unit_vectors,
    short_query_union,
    vote_trajectory,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number}: FAIL - {description}")
        raise
    print(f"[ACCEPTANCE] criterion {number}: PASS - {description}")


def test_criterion_1_consensus_oracle_equivalence():
    with criterion(1, "clustering and voting match brute-force oracles on 1000 instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240801)
        mismatches = 0
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            labels = [f"label{k}" for k in range(n)]
            vecs = random_unit_vectors(rng, n, 6)
            embs = {lab: LabelEmbedding(lab, vec) for lab, vec in zip(labels, vecs)}
            tau = float(rng.uniform(0.05, 0.95))
            got = partition_of(cluster_synonyms(labels, embs, tau))
            if got != oracle_cluster(labels, embs, tau):
                mismatches += 1

            size = int(rng.integers(1, 51))
            alphabet = ["aa", "b", "cc", "d", "e"]
            votes = [
                (alphabet[int(rng.integers(0, len(alphabet)))], int(rng.integers(0, 500)))
                for _ in range(size)
            ]
            if vote_trajectory(votes) != oracle_vote(votes):
                mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"


def test_criterion_2_visibility_score_analytics():
    with criterion(2, "visibility score: peak value, bound, monotonicity, oracle match"):
        rng = np.random.default_rng(77)
        # v = A exactly at the median
        for _ in range(1000):
            area = float(rng.uniform(1, 1e6))
            sigma = float(rng.uniform(1, 1e3))
            v = visibility_score(area, area, sigma)
            assert abs(v - area) <= 1e-9 * area
        # v <= A everywhere
        for _ in range(10000):
            area = float(rng.uniform(0, 1e6))
            med = float(rng.uniform(0, 1e6))
            sigma = float(rng.uniform(1, 1e3))
            assert visibility_score(area, med, sigma) <= area
        # strict monotonicity on (0, A_med]
        med, sigma = 250_000.0, 100.0
        areas = np.linspace(med / 10_000, med, 10_000)
        values = [visibility_score(a, med, sigma) for a in areas]
        assert all(b > a for a, b in zip(values, values[1:]))
        # direct-evaluation oracle, relative error 1e-12
        for _ in range(10000):
            area = float(rng.uniform(0, 1e6))
            med = float(rng.uniform(0, 1e6))
            sigma = float(rng.uniform(1, 1e3))
            got = visibility_score(area, med, sigma)
            want = oracle_visibility(area, med, sigma)
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 1e-12 * abs(want)


def test_criterion_3_gradient_checks():
    with criterion(3, "analytic gradients match central differences (rel err < 1e-4)"):
        start = time.perf_counter()
        rng = np.random.default_rng(99)

        worst_con = 0.0
        for _ in range(100):
            pool = rng.standard_normal((int(rng.integers(3, 8)), 8))
            pos = pool[: int(rng.integers(1, 3))]
            tau = float(rng.uniform(0.1, 1.0))
            fn = lambda x: contrastive_loss(x, pos, pool, tau)
            worst_con = max(worst_con, grad_check(fn, rng.standard_normal(8), step=1e-5))
        assert worst_con < 1e-4, f"contrastive gradient rel err {worst_con:.2e}"

        worst_bce = 0.0
        for _ in range(100):
            z = rng.standard_normal((5, 5)) * 2

            y = rng.uniform(size=(5, 5)) > 0.5

            def bce(zz):
                return seg_loss(1.0 / (1.0 + np.exp(-zz)), y)

            worst_bce = max(worst_bce, grad_check(bce, z, step=1e-5))
        assert worst_bce < 1e-4, f"bce gradient rel err {worst_bce:.2e}"

        worst_full = 0.0
        for _ in range(100):
            h = w = 12
            dim, n_gauss = 5, 3
            centers = rng.uniform(4, 8, size=(n_gauss, 1, 2))
            features = np.stack([rng.standard_normal(dim) * 0.3 for _ in range(n_gauss)])
            field_ = ToyReferringField(h, w, 2.5, centers, features)
            q = rng.standard_normal(dim)
            q /= np.linalg.norm(q)
            ys, xs = np.mgrid[0:h, 0:w]
            target = (xs - 6) ** 2 + (ys - 6) ** 2 <= 9
            mask = rle_encode(target)
            pool = rng.standard_normal((4, dim))
            pos = pool[:2]
            lam, tau = 0.1, 0.5

            def composite(flat):
                field_.features = flat.reshape(n_gauss, dim)
                probs = render_mask(field_, 0, q)
                l_seg, g_logits = seg_loss(probs, target)
                grad = np.outer(field_.weights(0) @ g_logits.ravel(), q)
                chosen = select_gaussians(field_, 0, mask)
                anchor = field_.features[chosen].mean(axis=0)
                l_con, g_con = contrastive_loss(anchor, pos, pool, tau)
                for gid in chosen:
                    grad[gid] += lam * g_con / len(chosen)
                return l_seg + lam * l_con, grad.ravel()

            x0 = field_.features.ravel()
            worst_full = max(worst_full, grad_check(composite, x0, step=1e-5))
        assert worst_full < 1e-4, f"composite gradient rel err {worst_full:.2e}"

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_4_contrastive_spot_values():
    with criterion(4, "contrastive loss spot fixtures equal log(1+e^-1) and log 2"):
        pool = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss1, _ = contrastive_loss(np.array([1.0, 0.0]), pool[:1], pool, tau=1.0)
        assert abs(loss1 - math.log(1.0 + math.exp(-1.0))) <= 1e-9
        loss2, _ = contrastive_loss(np.array([0.25, 0.25]), pool, pool, tau=1.0)
        assert abs(loss2 - math.log(2.0)) <= 1e-9


def test_criterion_5_consensus_beats_per_view():
    with criterion(5, "voted labels beat per-view labels by >= 5 points over 20 seeds"):
        start = time.perf_counter()
        n_views, n_objects = 8, 4
        wrong_rate = 0.1
        per_view, tscm = [], []
        trajectory_sizes = []
        for seed in range(20):
            cfg = tf.SynthConfig(
                n_views=n_views,
                n_objects=n_objects,
                seed=seed,
                noise=tf.NoiseSpec(synonym_rate=0.3, wrong_label_rate=wrong_rate),
            )
            ds, gt = tf.generate_scene(cfg)
            noisy = tf.corrupt(ds, gt, cfg)
            trajectories = tf.import_tracks(noisy)
            trajectory_sizes.extend(len(t.members) for t in trajectories)
            result = run_consensus(noisy, trajectories)
            matched = matched_objects(detection_ious(noisy, gt))
            [acc] = consensus_accuracy(result, gt, matched)
            per_view.append(acc["per_view_acc"])
            tscm.append(acc["tscm_acc"])
        assert min(trajectory_sizes) >= 5

        # binomial strict-majority prediction, computed from the noise rates
        # alone: a member's clustered identity is correct unless the wrong-label
        # event fired, and a strict majority of correct members always wins.
        p_correct = 1.0 - wrong_rate
        prediction = 0.0
        weight_total = 0
        for m in trajectory_sizes:
            win = sum(
                math.comb(m, k) * p_correct**k * (1.0 - p_correct) ** (m - k)
                for k in range(m // 2 + 1, m + 1)
            )
            prediction += win * m
            weight_total += m
        prediction /= weight_total

        mean_per_view = float(np.mean(per_view))
        mean_tscm = float(np.mean(tscm))
        assert mean_tscm - mean_per_view >= 0.05, (
            f"tscm {mean_tscm:.4f} vs per-view {mean_per_view:.4f}"
        )
        assert mean_tscm >= prediction - 0.02, (
            f"tscm {mean_tscm:.4f} below binomial prediction {prediction:.4f} - 0.02"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"consensus experiment took {elapsed:.1f}s"


def test_criterion_6_threshold_monotonicity_and_recovery():
    with criterion(6, "cluster count nondecreasing in tau_sem; 0.85 recovers the groups"):
        embeddings = build_vocabulary_embeddings(DEFAULT_VOCABULARY, 32, seed=0)
        labels = sorted(embeddings)
        counts = []
        for tau in (0.70, 0.75, 0.80, 0.85, 0.90):
            clustering = cluster_synonyms(labels, embeddings, tau)
            counts.append(len(clustering.canonical))
        assert counts == sorted(counts)

        clustering = cluster_synonyms(labels, embeddings, 0.85)
        group_of = {w: g.canonical for g in DEFAULT_VOCABULARY for w in g.words}
        assert len(clustering.canonical) == len(DEFAULT_VOCABULARY)
        for label, k in zip(labels, clustering.cluster):
            assert clustering.canonical[k] == group_of[label]


def test_criterion_7_hybrid_beats_long_only():
    with criterion(7, "hybrid positives beat referral-only training on short queries"):
        start = time.perf_counter()
        cfg = tf.SynthConfig(n_views=25, n_objects=3, seed=13)
        ds, gt = tf.generate_scene(cfg)
        trajectories = tf.import_tracks(ds)
        result = run_consensus(ds, trajectories)
        from trackfuse.keyframes import run_keyframes

        descriptions = run_keyframes(ds, result.records)
        train_views = tuple(range(20))
        eval_views = list(range(20, 25))
        tcfg = tf.TrainConfig(epochs=20, views=train_views, feature_lr=0.01)

        def fresh_field():
            return field_from_ground_truth(
                gt, ds.n_views, ds.height, ds.width, dim=ds.dim, spread=8.0
            )

        def evaluate(field_):
            categories = sorted({o.identity for o in gt.objects})
            sp = {
                c: {v: render_mask(field_, v, ds.embedding(c)) for v in eval_views}
                for c in categories
            }
            sg = {
                c: {v: short_query_union(gt, c, v) for v in eval_views} for c in categories
            }
            _, short = miou(sp, sg)
            track_to_obj = match_tracks_to_objects(result.table, gt, detection_ious(ds, gt))
            lp, lg = {}, {}
            for desc in descriptions:
                obj = gt.objects[track_to_obj[desc.track_id]]
                for text, vec in desc.referrals:
                    key = f"{desc.track_id}:{text}"
                    lp[key] = {v: render_mask(field_, v, vec) for v in eval_views}
                    lg[key] = {v: rle_decode(obj.masks[v]) for v in eval_views}
            _, long_ = miou(lp, lg)
            return short, long_

        hybrid, _ = tf.train(fresh_field(), ds, result.records, descriptions, tcfg)
        baseline, _ = tf.train(
            fresh_field(), ds, result.records, descriptions, tcfg, include_category=False
        )
        hybrid_short, hybrid_long = evaluate(hybrid)
        base_short, base_long = evaluate(baseline)

        print(
            f"  hybrid short={hybrid_short:.3f} long={hybrid_long:.3f} | "
            f"long-only short={base_short:.3f} long={base_long:.3f}"
        )
        assert hybrid_short > base_short, (
            f"hybrid short mIoU {hybrid_short:.4f} not above baseline {base_short:.4f}"
        )
        assert abs(hybrid_long - base_long) < 0.10, (
            f"long-query gap {abs(hybrid_long - base_long):.4f} >= 10 points"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"training experiment took {elapsed:.1f}s"


def test_criterion_8_multiview_consistency():
    with criterion(8, "every detection gets exactly one voted label on all suite datasets"):
        noise_specs = [
            tf.NoiseSpec(),
            tf.NoiseSpec(synonym_rate=0.3, wrong_label_rate=0.1),
            tf.NoiseSpec(synonym_rate=0.6, wrong_label_rate=0.3, dropout_rate=0.2, mask_jitter=2),
        ]
        for seed in range(6):
            for noise in noise_specs:
                cfg = tf.SynthConfig(n_views=7, n_objects=3, seed=seed, noise=noise)
                ds, gt = tf.generate_scene(cfg)
                noisy = tf.corrupt(ds, gt, cfg)
                if not noisy.masks:
                    continue
                trajectories = (
                    tf.import_tracks(noisy)
                    if not noise.strip_track_ids
                    else tf.associate_greedy(noisy)
                )
                result = run_consensus(noisy, trajectories)
                # the voted-label map: each detection, the canonical labels of the records it is a member of
                voted: dict[tuple[int, int], list[str]] = {}
                for rec in result.records:
                    for member in rec.members:
                        voted.setdefault(member, []).append(rec.canonical)
                assert sorted(voted) == [(v, i) for v, i, _ in each_detection(noisy)]
                assert all(len(labels) == 1 for labels in voted.values())


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "identical config+seed produce byte-identical stage outputs"):
        config = {
            "seed": 4,
            "synth": {
                "n_views": 5,
                "n_objects": 3,
                "height": 48,
                "width": 48,
                "noise": {"synonym_rate": 0.3, "wrong_label_rate": 0.1, "mask_jitter": 1},
            },
            "train": {"epochs": 2},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        cfg = load_config(str(cfg_path))
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_pipeline(cfg, d)

        def tree(root: Path):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "run.json"
            }

        ta, tb = tree(dirs[0]), tree(dirs[1])
        assert sorted(ta) == sorted(tb)
        assert ta == tb


def test_criterion_10_codec_and_metric_properties():
    with criterion(10, "RLE round trip, IoU properties, and the mIoU fixture"):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            h = int(rng.integers(1, 129))
            w = int(rng.integers(1, 129))
            grid = rng.random((h, w)) < rng.uniform(0.05, 0.95)
            assert np.array_equal(rle_decode(rle_encode(grid)), grid)

        for _ in range(200):
            shape = (int(rng.integers(1, 33)), int(rng.integers(1, 33)))
            a = rle_encode(rng.random(shape) < 0.5)
            b = rle_encode(rng.random(shape) < 0.5)
            assert mask_iou(a, b) == mask_iou(b, a)
            assert 0.0 <= mask_iou(a, b) <= 1.0
            if sum(a.counts[1::2]) > 0:
                assert mask_iou(a, a) == 1.0

        full = np.ones((1, 2), dtype=bool)
        empty = np.zeros((1, 2), dtype=bool)
        half_pred = np.array([[True, False]])
        halanchort = np.array([[True, True]])
        per_query, overall = miou(
            {"q1": {0: full, 1: full}, "q2": {0: half_pred}},
            {"q1": {0: full, 1: empty}, "q2": {0: halanchort}},
        )
        assert per_query["q1"] == pytest.approx(0.5)
        assert per_query["q2"] == pytest.approx(0.5)
        assert overall == pytest.approx(0.5)
