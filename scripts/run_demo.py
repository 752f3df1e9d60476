#!/usr/bin/env python3
"""End-to-end demo: noisy synthetic scene -> tracks -> consensus ->
keyframes -> training -> report. Prints the report and where the
artifacts live."""

import argparse
import json
import sys
from pathlib import Path

from trackfuse.cli import load_config, run_pipeline

DEMO_CONFIG = {
    "seed": 7,
    "synth": {
        "n_views": 12,
        "n_objects": 3,
        "height": 64,
        "width": 64,
        "noise": {"synonym_rate": 0.35, "wrong_label_rate": 0.1, "mask_jitter": 1},
    },
    "train": {"epochs": 10, "feature_lr": 0.01},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()

    cfg = load_config(None)
    for key, value in DEMO_CONFIG.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    if args.seed is not None:
        cfg["seed"] = args.seed

    out = Path(args.out)
    run_pipeline(cfg, out, force=args.force)

    report = json.loads((out / "report.json").read_text())
    print(json.dumps(report["metrics"], indent=2, sort_keys=True))
    print(f"\nartifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
