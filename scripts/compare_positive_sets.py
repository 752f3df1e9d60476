#!/usr/bin/env python3
"""Train the toy referring field twice on the same scene -- once with
category + referral positives, once with referrals only -- and compare
mIoU on held-out views for short (category) and long (referral) queries."""

import argparse
import sys

import trackfuse as tf
from trackfuse.field import field_from_ground_truth
from trackfuse.keyframes import run_keyframes
from trackfuse.metrics import detection_ious, eval_miou


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
    descriptions = run_keyframes(ds, result.records)

    train_views = tuple(range(args.train_views))
    eval_views = list(range(args.train_views, n_views))
    tcfg = tf.TrainConfig(epochs=args.epochs, views=train_views, feature_lr=args.feature_lr)

    def fresh_field():
        return field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim)

    # the track -> object matching does not depend on the model
    ious = detection_ious(ds, gt)

    def evaluate(field_):
        # eval's path: all queries of a view in one render, scored as it renders
        scores = eval_miou(field_, ds, gt, result.records, ious, eval_views, descriptions)
        return scores["miou_short"], scores["miou_long"]

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
