"""Benchmark workloads: scene and pipeline configs generated from a seed.

Every workload runs closed-loop: one client, one pipeline at a time, in a
single process per pipeline run. A run of a workload draws ``scenes``
independent scenes from the seed and reports the mean over scenes of each
scene's median, so that one unusual scene does not decide the result.
Workloads whose work and quality vary more between scenes draw more of them.

The scene sizes are smaller than the paper-scale tiers so that a run can
repeat each pipeline several times within its time budget. These choices
keep the work and quality per scene nearly independent of the seed, which
is what the run-to-run spread across seeds depends on:

- ``vocab_wide`` draws its 16 objects from all 16 synonym groups of its
  vocabulary, so label noise observes nearly every one of the 96 words and
  the clustering input size barely varies;
- ``eval_fragmented`` drops half of all detections and ends a track at its
  first missed view (max_gap 0), so each object breaks into many short
  tracks and the track count (which sets the number of referral queries)
  has a small relative spread;
- every object has its own category (field_train draws 6 objects from the
  6 default groups), because the toy field often renders a category shared
  by several objects as empty, which made per-scene mIoU swing by 40%;
- the Gaussian spread scales with the image side (side / 16), so the toy
  field can represent the objects and mIoU stays well away from 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

SWEEP_VALUES = "0.70,0.75,0.80,0.85,0.90"
STAGES = ("associate", "consensus", "keyframe", "train", "eval")

_SYNONYM_WORDS = ("small", "large", "red", "old", "round")


def generated_vocabulary(n_groups: int) -> list[dict]:
    """``n_groups`` synonym groups of 6 words; the canonical word is the shortest."""
    return [
        {"canonical": f"w{g:02d}", "synonyms": [f"w{g:02d} {s}" for s in _SYNONYM_WORDS]}
        for g in range(n_groups)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_size: str
    scenes: int
    config: dict

    def scene_config(self, seed: int, scene: int) -> dict:
        """Pipeline config of one scene; distinct seeds give disjoint scenes."""
        cfg = copy.deepcopy(self.config)
        cfg["seed"] = seed * 1000 + scene
        return cfg


_NOISY_LABELS = {"synonym_rate": 0.35, "wrong_label_rate": 0.1, "mask_jitter": 1,
                 "strip_track_ids": True}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="field_train",
            why=(
                "Training gradient path and dense per-view weight cache; clustering ~1%, so consensus "
                "changes should not move it. Traced pipeline_s: train 65%, eval 30%, associate 3%."
            ),
            input_size="24 views at 96x96, 6 objects, 18 labels, greedy association, 2 epochs",
            scenes=4,
            config={
                "synth": {"n_views": 24, "height": 96, "width": 96, "n_objects": 6,
                          "noise": dict(_NOISY_LABELS)},
                "assoc": {"mode": "greedy"},
                "train": {"epochs": 2, "spread": 6.0},
            },
        ),
        Workload(
            name="vocab_wide",
            why=(
                "cluster_synonyms on ~95 labels, 7 calls per scene (37% of pipeline_s+sweep_s); the "
                "sweep reuses one label set. Traced pipeline_s: eval 49%, train 33%, consensus 14%."
            ),
            input_size="32 views at 32x32, 16 objects, 96-word vocabulary, imported tracks, 1 epoch",
            scenes=3,
            config={
                "synth": {"n_views": 32, "height": 32, "width": 32, "n_objects": 16, "dim": 128,
                          "vocabulary": generated_vocabulary(16),
                          "noise": {"synonym_rate": 0.5, "wrong_label_rate": 0.4}},
                "assoc": {"mode": "import"},
                "train": {"epochs": 1, "spread": 2.0, "gaussians_per_object": 1},
            },
        ),
        Workload(
            name="eval_fragmented",
            why=(
                "Forward-only rendering, many queries per view: dropout splits 8 objects into ~64 "
                "tracks, all queried in every view. Traced pipeline_s: eval 70%, train 23%, keyframe 3%."
            ),
            input_size="32 views at 48x48, 8 objects of 8 categories, dropout 0.5, greedy association max_gap 0, 1 epoch",
            scenes=6,
            config={
                "synth": {"n_views": 32, "height": 48, "width": 48, "n_objects": 8,
                          "vocabulary": generated_vocabulary(8),
                          "noise": {"dropout_rate": 0.5, "mask_jitter": 1, "strip_track_ids": True}},
                "assoc": {"mode": "greedy", "max_gap": 0},
                "train": {"epochs": 1, "spread": 3.0},
            },
        ),
    )
}
