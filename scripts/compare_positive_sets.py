#!/usr/bin/env python3
"""Train the toy referring field twice on the same scene -- once with
category + referral positives, once with referrals only -- and compare
mIoU on held-out views for short (category) and long (referral) queries."""

import argparse
import sys

import trackfuse as tf
from trackfuse.field import field_from_ground_truth
from trackfuse.keyframes import run_keyframes
from trackfuse.metrics import category_grids, iou_tables, match_tracks_to_objects, miou, object_grids


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--train-views", type=int, default=20)
    parser.add_argument("--eval-views", type=int, default=5)
    parser.add_argument("--feature-lr", type=float, default=0.01)
    args = parser.parse_args()

    n_views = args.train_views + args.eval_views
    cfg = tf.SynthConfig(n_views=n_views, n_objects=3, seed=args.seed)
    ds, gt = tf.generate_scene(cfg)
    trajectories = tf.import_tracks(ds)
    result = tf.run_consensus(ds, trajectories)
    tf.propagate(ds, result.records)
    descriptions = run_keyframes(ds, result.records)

    train_views = tuple(range(args.train_views))
    eval_views = list(range(args.train_views, n_views))
    tcfg = tf.TrainConfig(epochs=args.epochs, views=train_views, feature_lr=args.feature_lr)

    def fresh_field():
        return field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)

    # ground-truth grids and the track -> object matching do not depend on the model
    categories = sorted({o.identity for o in gt.objects})
    grids = object_grids(gt, eval_views)
    short_gts = category_grids(gt, grids)
    track_to_obj = match_tracks_to_objects(result.records, gt, iou_tables(ds, gt))
    grids_by_id = {o.object_id: g for o, g in zip(gt.objects, grids)}
    long_gts = {
        f"{desc.track_id}:{text}": grids_by_id[track_to_obj[desc.track_id]]
        for desc in descriptions
        for text, _ in desc.referrals
    }

    def evaluate(field_):
        short_preds = {
            c: {v: tf.render_mask(field_, v, ds.embedding(c)) for v in eval_views}
            for c in categories
        }
        _, short = miou(short_preds, short_gts)
        long_preds = {
            f"{desc.track_id}:{text}": {v: tf.render_mask(field_, v, vec) for v in eval_views}
            for desc in descriptions
            for text, vec in desc.referrals
        }
        _, long_ = miou(long_preds, long_gts)
        return short, long_

    hybrid, _ = tf.train(fresh_field(), ds, result.records, descriptions, tcfg)
    referral_only, _ = tf.train(
        fresh_field(), ds, result.records, descriptions, tcfg, include_category=False
    )
    h_short, h_long = evaluate(hybrid)
    r_short, r_long = evaluate(referral_only)

    print(f"{'positives':>16} {'short mIoU':>11} {'long mIoU':>10}")
    print(f"{'referrals only':>16} {r_short:>11.3f} {r_long:>10.3f}")
    print(f"{'hybrid':>16} {h_short:>11.3f} {h_long:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
