#!/usr/bin/env python3
"""Sweep the synonym-clustering threshold on a noisy scene and tabulate
cluster counts and label accuracies per value."""

import argparse
import sys

import numpy as np

import trackfuse as tf
from trackfuse.consensus import check_tau_sem, member_table
from trackfuse.metrics import iou_tables, match_detections_to_objects, tau_sem_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", default="0.70,0.75,0.80,0.85,0.90,0.95,0.99")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--synonym-rate", type=float, default=0.35)
    parser.add_argument("--wrong-label-rate", type=float, default=0.1)
    args = parser.parse_args()
    values = [float(v) for v in args.values.split(",")]
    try:
        for value in values:
            check_tau_sem(value)  # every value before any scene is built
    except ValueError as exc:
        parser.error(str(exc))

    # each scene's detection -> object matching, member table and one
    # agglomeration are built once, and all its values scored in one call,
    # as `trackfuse sweep` does
    per_scene = []
    for seed in range(args.seeds):
        cfg = tf.SynthConfig(
            n_views=8,
            n_objects=4,
            seed=seed,
            noise=tf.NoiseSpec(
                synonym_rate=args.synonym_rate, wrong_label_rate=args.wrong_label_rate
            ),
        )
        ds, gt = tf.generate_scene(cfg)
        noisy = tf.corrupt(ds, gt, cfg)
        mapping = match_detections_to_objects(iou_tables(noisy, gt), gt)
        table = member_table(noisy, tf.import_tracks(noisy))
        agglomeration = tf.cluster_synonyms(list(noisy.labels), noisy.embeddings, values[0])
        per_scene.append(tau_sem_rows(table, agglomeration, values, gt, mapping))

    rows = []
    for k, tau in enumerate(values):
        scene_rows = [scene[k] for scene in per_scene]
        rows.append((tau, *(np.mean([row[key] for row in scene_rows])
                            for key in ("cluster_count", "per_view_acc", "tscm_acc"))))

    print(f"{'tau_sem':>8} {'clusters':>9} {'per_view':>9} {'consensus':>10}")
    for tau, n_clusters, pv, tc in rows:
        print(f"{tau:>8.2f} {n_clusters:>9.1f} {pv:>9.3f} {tc:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
