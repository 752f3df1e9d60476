"""trackfuse: cross-view consistent pseudo-labels from noisy per-view
detections (track, cluster synonyms, vote, pick keyframes) plus a toy
language-grounded Gaussian referring field trained with a multi-positive
contrastive objective.
"""

__version__ = "0.1.0"

from .consensus import cluster_synonyms, run_consensus
from .errors import NumericError, SchemaError, StageError, TrackfuseError
from .field import TrainConfig, train
from .records import DescriptionSet, SceneDataset, Trajectory
from .rle import rle_decode, rle_encode
from .synth import NoiseSpec, SynonymGroup, SynthConfig, corrupt, generate_scene
from .tracking import AssocParams, associate_greedy, import_tracks
