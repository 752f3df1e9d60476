import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI selects this profile (--hypothesis-profile=ci): the examples are derived from each test, so a
# failure in CI reproduces from its log; local runs keep the default profile, which explores
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)

import trackfuse as tf
from trackfuse import records


@pytest.fixture(autouse=True)
def nothing_kept():
    """Each test starts with nothing kept, as a new process does (``records.read_kept``)."""
    records.forget_kept()


@pytest.fixture
def clean_scene():
    """Noise-free 6-view scene with 2 objects, plus its trajectories."""
    cfg = tf.SynthConfig(n_views=6, n_objects=2, seed=3)
    ds, gt = tf.generate_scene(cfg)
    trajectories = tf.import_tracks(ds)
    return ds, gt, trajectories


@pytest.fixture
def noisy_scene():
    cfg = tf.SynthConfig(
        n_views=8,
        n_objects=3,
        seed=7,
        noise=tf.NoiseSpec(synonym_rate=0.3, wrong_label_rate=0.1, mask_jitter=1),
    )
    ds, gt = tf.generate_scene(cfg)
    noisy = tf.corrupt(ds, gt, cfg)
    return noisy, gt
