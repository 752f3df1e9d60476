#!/usr/bin/env python3
"""Sweep the synonym-clustering threshold on a noisy scene and tabulate
cluster counts and label accuracies per value."""

import argparse
import sys

import numpy as np

import trackfuse as tf
from trackfuse.consensus import member_table, observed_labels
from trackfuse.metrics import iou_tables, match_detections_to_objects, tau_sem_row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", default="0.70,0.75,0.80,0.85,0.90,0.95,0.99")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--synonym-rate", type=float, default=0.35)
    parser.add_argument("--wrong-label-rate", type=float, default=0.1)
    args = parser.parse_args()
    values = [float(v) for v in args.values.split(",")]

    # each scene, its detection -> object matching, member table and one
    # agglomeration to the lowest value are built once; each value cuts the
    # agglomeration and votes over the table, as `trackfuse sweep` does
    scenes = []
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
        agglomeration = tf.cluster_synonyms(observed_labels(noisy), noisy.embeddings, min(values))
        table = member_table(noisy, tf.import_tracks(noisy))
        scenes.append((noisy, gt, table, mapping, agglomeration))

    rows = []
    for tau in values:
        counts, per_view, tscm = [], [], []
        for noisy, gt, table, mapping, agglomeration in scenes:
            row = tau_sem_row(noisy, table, agglomeration, tau, gt, mapping)
            counts.append(row["cluster_count"])
            per_view.append(row["per_view_acc"])
            tscm.append(row["tscm_acc"])
        rows.append((tau, np.mean(counts), np.mean(per_view), np.mean(tscm)))

    print(f"{'tau_sem':>8} {'clusters':>9} {'per_view':>9} {'consensus':>10}")
    for tau, n_clusters, pv, tc in rows:
        print(f"{tau:>8.2f} {n_clusters:>9.1f} {pv:>9.3f} {tc:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
